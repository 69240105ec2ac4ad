/** @file Tests for the genetic algorithm. */

#include <gtest/gtest.h>

#include <cmath>

#include "ga/ga.h"
#include "service/thread_pool.h"

namespace dac::ga {
namespace {

double
sphere(const std::vector<double> &x)
{
    // Minimum 0 at x = 0.5^n.
    double s = 0.0;
    for (double v : x)
        s += (v - 0.5) * (v - 0.5);
    return s;
}

double
rastriginLike(const std::vector<double> &x)
{
    // Many local optima; global minimum at 0.5^n.
    double s = 0.0;
    for (double v : x) {
        const double z = (v - 0.5) * 8.0;
        s += z * z - 8.0 * std::cos(2.0 * M_PI * z) + 8.0;
    }
    return s;
}

GaParams
defaults(uint64_t seed = 1)
{
    GaParams p;
    p.seed = seed;
    return p;
}

TEST(Ga, MinimizesSphere)
{
    GeneticAlgorithm ga(defaults());
    const auto r = ga.minimize(sphere, 6);
    EXPECT_LT(r.bestFitness, 0.05);
    for (double v : r.best) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
}

TEST(Ga, EscapesLocalOptima)
{
    GaParams p = defaults(3);
    p.maxGenerations = 150;
    p.convergencePatience = 0;
    GeneticAlgorithm ga(p);
    const auto r = ga.minimize(rastriginLike, 4);
    // Random search rarely gets below ~4 here; the GA should.
    EXPECT_LT(r.bestFitness, 3.0);
}

TEST(Ga, HistoryIsMonotoneNonIncreasing)
{
    GeneticAlgorithm ga(defaults(5));
    const auto r = ga.minimize(sphere, 8);
    ASSERT_GT(r.history.size(), 1u);
    for (size_t i = 1; i < r.history.size(); ++i)
        EXPECT_LE(r.history[i], r.history[i - 1]);
    EXPECT_DOUBLE_EQ(r.history.back(), r.bestFitness);
}

TEST(Ga, ConvergencePatienceStopsEarly)
{
    GaParams p = defaults(7);
    p.maxGenerations = 1000;
    p.convergencePatience = 10;
    GeneticAlgorithm ga(p);
    const auto r = ga.minimize(sphere, 3);
    EXPECT_LT(r.generations, 1000);
    EXPECT_LE(r.convergedAt, r.generations);
}

TEST(Ga, Deterministic)
{
    GeneticAlgorithm a(defaults(11));
    GeneticAlgorithm b(defaults(11));
    const auto ra = a.minimize(sphere, 5);
    const auto rb = b.minimize(sphere, 5);
    EXPECT_EQ(ra.best, rb.best);
    EXPECT_DOUBLE_EQ(ra.bestFitness, rb.bestFitness);
}

TEST(Ga, SeedPopulationIsUsed)
{
    // Seed with the exact optimum: generation 0 must already have it.
    GaParams p = defaults(13);
    p.maxGenerations = 1;
    GeneticAlgorithm ga(p);
    const std::vector<double> optimum(4, 0.5);
    const auto r = ga.minimize(sphere, 4, {optimum});
    EXPECT_DOUBLE_EQ(r.history.front(), 0.0);
    EXPECT_DOUBLE_EQ(r.bestFitness, 0.0);
}

TEST(Ga, SeedGenomeWidthChecked)
{
    GeneticAlgorithm ga(defaults());
    EXPECT_THROW(ga.minimize(sphere, 4, {{0.5, 0.5}}),
                 std::logic_error);
}

TEST(Ga, ElitismPreservesBest)
{
    // With a deceptive objective and tiny mutation, the best must
    // never regress (checked via the history invariant + elitism).
    GaParams p = defaults(17);
    p.eliteCount = 2;
    p.maxGenerations = 30;
    GeneticAlgorithm ga(p);
    const auto r = ga.minimize(rastriginLike, 6);
    for (size_t i = 1; i < r.history.size(); ++i)
        EXPECT_LE(r.history[i], r.history[i - 1]);
}

TEST(Ga, InvalidParamsPanic)
{
    GaParams p;
    p.populationSize = 1;
    EXPECT_THROW(GeneticAlgorithm{p}, std::logic_error);
    GaParams q;
    q.eliteCount = 100;
    EXPECT_THROW(GeneticAlgorithm{q}, std::logic_error);
}

TEST(Ga, ZeroDimensionPanics)
{
    GeneticAlgorithm ga(defaults());
    EXPECT_THROW(ga.minimize(sphere, 0), std::logic_error);
}

TEST(Ga, ParallelEvaluationIsBitIdenticalToSerial)
{
    GaParams serial_params = defaults(23);
    serial_params.maxGenerations = 30;
    const auto serial =
        GeneticAlgorithm(serial_params).minimize(rastriginLike, 5);

    service::ThreadPool pool(3);
    GaParams parallel_params = serial_params;
    parallel_params.executor = &pool;
    const auto parallel =
        GeneticAlgorithm(parallel_params).minimize(rastriginLike, 5);

    EXPECT_EQ(serial.best, parallel.best);
    EXPECT_DOUBLE_EQ(serial.bestFitness, parallel.bestFitness);
    EXPECT_EQ(serial.history, parallel.history);
    EXPECT_EQ(serial.generations, parallel.generations);
    EXPECT_EQ(serial.convergedAt, parallel.convergedAt);
}

/**
 * Values recorded from the GA's draws on the standard 64-bit Mersenne
 * Twister (hexadecimal literals: exact bits). Both runs minimize
 * rastriginLike over 6 genes, one without elites, one with every child
 * bred by crossover; any change to breeding or to the RNG stream
 * shows up here.
 */
struct GaGolden
{
    std::vector<double> best;
    double bestFitness;
    std::vector<double> history;
    int generations;
    int convergedAt;
};

void
expectGolden(const GaResult &r, const GaGolden &golden)
{
    EXPECT_EQ(r.best, golden.best);
    EXPECT_EQ(r.bestFitness, golden.bestFitness);
    EXPECT_EQ(r.history, golden.history);
    EXPECT_EQ(r.generations, golden.generations);
    EXPECT_EQ(r.convergedAt, golden.convergedAt);
}

TEST(GaGoldenRun, NoElites)
{
    GaParams p = defaults(101);
    p.eliteCount = 0;
    p.maxGenerations = 60;
    const GaGolden golden{
        {
            0x1.7d963886886f1p-2, 0x1.04668a4d2f806p-1, 0x1.04885bb142014p-1,
            0x1.3f3aaeb460fe1p-1, 0x1.04414ff56eb76p-1, 0x1.fced1450bea64p-2,
        },
        0x1.19a6915cfa2fbp+2,
        {
            0x1.5dd1942569eb4p+5, 0x1.a5be488871cd5p+4, 0x1.a5be488871cd5p+4,
            0x1.3de70149ef0bp+4, 0x1.f4d27a0b9607cp+3, 0x1.6ba4705b56e6p+3,
            0x1.08bbef00a972cp+3, 0x1.b6ad4f1f897bep+2, 0x1.b6ad4f1f897bep+2,
            0x1.b6ad4f1f897bep+2, 0x1.5aad3a9edcc1ap+2, 0x1.5aad3a9edcc1ap+2,
            0x1.555c194e93809p+2, 0x1.1ef7b2ad4370cp+2, 0x1.1ef7b2ad4370cp+2,
            0x1.1ef7b2ad4370cp+2, 0x1.19a6915cfa2fbp+2, 0x1.19a6915cfa2fbp+2,
            0x1.19a6915cfa2fbp+2, 0x1.19a6915cfa2fbp+2, 0x1.19a6915cfa2fbp+2,
            0x1.19a6915cfa2fbp+2, 0x1.19a6915cfa2fbp+2, 0x1.19a6915cfa2fbp+2,
            0x1.19a6915cfa2fbp+2, 0x1.19a6915cfa2fbp+2, 0x1.19a6915cfa2fbp+2,
            0x1.19a6915cfa2fbp+2, 0x1.19a6915cfa2fbp+2, 0x1.19a6915cfa2fbp+2,
            0x1.19a6915cfa2fbp+2, 0x1.19a6915cfa2fbp+2,
        },
        31,
        16};
    expectGolden(GeneticAlgorithm(p).minimize(rastriginLike, 6), golden);
}

TEST(GaGoldenRun, AlwaysCrossover)
{
    GaParams p = defaults(202);
    p.crossoverRate = 1.0;
    p.maxGenerations = 60;
    const GaGolden golden{
        {
            0x1.fc0a23b389fa4p-2, 0x1.430c715f5ce1fp-1, 0x1.02b18f0d37661p-1,
            0x1.7d2881d0b1177p-2, 0x1.8377efcdacf7p-2, 0x1.0034fd6481d59p-1,
        },
        0x1.048e44a73ca6dp+2,
        {
            0x1.8ecac9e4d8392p+5, 0x1.faafe3b5058a9p+4, 0x1.8bae6711724d2p+4,
            0x1.d5994050b477ep+3, 0x1.d5994050b477ep+3, 0x1.5ba53ada88078p+3,
            0x1.40a693e6e9ab2p+3, 0x1.ab8b10247521p+2, 0x1.ab8b10247521p+2,
            0x1.ab8b10247521p+2, 0x1.ab8b10247521p+2, 0x1.ab8b10247521p+2,
            0x1.8513990b53cf6p+2, 0x1.8513990b53cf6p+2, 0x1.8513990b53cf6p+2,
            0x1.8513990b53cf6p+2, 0x1.8513990b53cf6p+2, 0x1.8513990b53cf6p+2,
            0x1.8513990b53cf6p+2, 0x1.8513990b53cf6p+2, 0x1.8513990b53cf6p+2,
            0x1.8513990b53cf6p+2, 0x1.8513990b53cf6p+2, 0x1.8513990b53cf6p+2,
            0x1.8513990b53cf6p+2, 0x1.4ba553d929bf6p+2, 0x1.4ba553d929bf6p+2,
            0x1.4ba553d929bf6p+2, 0x1.4ba553d929bf6p+2, 0x1.459ab0ced81fbp+2,
            0x1.459ab0ced81fbp+2, 0x1.459ab0ced81fbp+2, 0x1.459ab0ced81fbp+2,
            0x1.459ab0ced81fbp+2, 0x1.459ab0ced81fbp+2, 0x1.459ab0ced81fbp+2,
            0x1.459ab0ced81fbp+2, 0x1.459ab0ced81fbp+2, 0x1.459ab0ced81fbp+2,
            0x1.459ab0ced81fbp+2, 0x1.459ab0ced81fbp+2, 0x1.459ab0ced81fbp+2,
            0x1.459ab0ced81fbp+2, 0x1.440e4c5aedd41p+2, 0x1.440e4c5aedd41p+2,
            0x1.440e4c5aedd41p+2, 0x1.440e4c5aedd41p+2, 0x1.440e4c5aedd41p+2,
            0x1.440e4c5aedd41p+2, 0x1.440e4c5aedd41p+2, 0x1.440e4c5aedd41p+2,
            0x1.440e4c5aedd41p+2, 0x1.048e44a73ca6dp+2, 0x1.048e44a73ca6dp+2,
            0x1.048e44a73ca6dp+2, 0x1.048e44a73ca6dp+2, 0x1.048e44a73ca6dp+2,
            0x1.048e44a73ca6dp+2, 0x1.048e44a73ca6dp+2, 0x1.048e44a73ca6dp+2,
            0x1.048e44a73ca6dp+2,
        },
        60,
        52};
    expectGolden(GeneticAlgorithm(p).minimize(rastriginLike, 6), golden);
}

} // namespace
} // namespace dac::ga
