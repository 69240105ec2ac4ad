#include "ga/ga.h"

#include <algorithm>
#include <cmath>

#include "obs/tracer.h"
#include "support/logging.h"
#include "support/random.h"

namespace dac::ga {

namespace {

/** One individual: genome plus cached objective value. */
struct Individual
{
    std::vector<double> genome;
    double fitness = 0.0;
};

/** Scores batch[from..end); must not touch the GA's RNG. */
using Evaluator = std::function<void(std::vector<Individual> &batch,
                                     size_t from)>;

/**
 * The generational loop shared by both minimize overloads; `evaluate`
 * is the only step that differs (per-genome vs whole-generation).
 */
GaResult
runGenerations(const GaParams &params, size_t dimensions,
               const std::vector<std::vector<double>> &seed_population,
               const Evaluator &evaluate)
{
    DAC_ASSERT(dimensions > 0, "zero-dimensional search space");
    Rng rng(params.seed);

    auto random_genome = [&]() {
        std::vector<double> g(dimensions);
        for (double &v : g)
            v = rng.uniform();
        return g;
    };

    // Initial population: seeds first, random fill after.
    std::vector<Individual> pop;
    pop.reserve(params.populationSize);
    for (const auto &g : seed_population) {
        if (pop.size() >= params.populationSize)
            break;
        DAC_ASSERT(g.size() == dimensions, "seed genome width mismatch");
        pop.push_back(Individual{g, 0.0});
    }
    while (pop.size() < params.populationSize)
        pop.push_back(Individual{random_genome(), 0.0});
    evaluate(pop, 0);

    auto by_fitness = [](const Individual &a, const Individual &b) {
        return a.fitness < b.fitness;
    };
    std::sort(pop.begin(), pop.end(), by_fitness);

    auto tournament = [&]() -> const Individual & {
        size_t best = rng.index(pop.size());
        for (int t = 1; t < params.tournamentSize; ++t) {
            const size_t challenger = rng.index(pop.size());
            if (pop[challenger].fitness < pop[best].fitness)
                best = challenger;
        }
        return pop[best];
    };

    GaResult result;
    result.best = pop.front().genome;
    result.bestFitness = pop.front().fitness;
    result.history.push_back(result.bestFitness);

    // The next generation is bred into a second population allocated
    // once per search and swapped in: elites and clones copy-assign
    // into existing genomes and children are written in place, so
    // breeding allocates nothing. The draw order (crossover coin,
    // tournaments, per-gene picks, mutation) is part of the result;
    // the GaGoldenRun tests pin it.
    std::vector<Individual> next(
        params.populationSize,
        Individual{std::vector<double>(dimensions), 0.0});
    const size_t firstChild = static_cast<size_t>(params.eliteCount);

    int since_improvement = 0;
    for (int gen = 1; gen <= params.maxGenerations; ++gen) {
        // Deadline/cancel check once per generation: cheap, and a
        // token that never fires changes nothing (no RNG touched).
        if (params.cancel != nullptr && params.cancel->cancelled()) {
            result.cancelled = true;
            break;
        }
        obs::ScopedSpan genSpan("ga.generation");
        if (genSpan.active())
            genSpan.attr("generation", static_cast<uint64_t>(gen));
        for (size_t e = 0; e < firstChild; ++e)
            next[e] = pop[e];

        // Breed the full generation first (serial RNG), score after.
        for (size_t i = firstChild; i < next.size(); ++i) {
            std::vector<double> &child = next[i].genome;
            if (rng.bernoulli(params.crossoverRate)) {
                const double *a = tournament().genome.data();
                const double *b = tournament().genome.data();
                for (size_t d = 0; d < dimensions; ++d) {
                    const double parents[2] = {b[d], a[d]};
                    child[d] = parents[rng.bernoulli(0.5)];
                }
            } else {
                child = tournament().genome;
            }
            for (size_t d = 0; d < dimensions; ++d) {
                if (rng.bernoulli(params.mutationRate)) {
                    // Half resets, half local Gaussian perturbations.
                    if (rng.bernoulli(0.5)) {
                        child[d] = rng.uniform();
                    } else {
                        child[d] = std::clamp(
                            child[d] + rng.normal(0.0, 0.1), 0.0, 1.0);
                    }
                }
            }
        }
        evaluate(next, firstChild);

        pop.swap(next);
        std::sort(pop.begin(), pop.end(), by_fitness);

        result.generations = gen;
        if (pop.front().fitness < result.bestFitness - 1e-12) {
            result.bestFitness = pop.front().fitness;
            result.best = pop.front().genome;
            result.convergedAt = gen;
            since_improvement = 0;
        } else {
            ++since_improvement;
        }
        result.history.push_back(result.bestFitness);
        if (genSpan.active()) {
            // Mean only computed with tracing on; the hot path skips it.
            double sum = 0.0;
            for (const auto &ind : pop)
                sum += ind.fitness;
            genSpan.attr("best", pop.front().fitness);
            genSpan.attr("mean", sum / static_cast<double>(pop.size()));
        }

        if (params.convergencePatience > 0 &&
            since_improvement >= params.convergencePatience) {
            break;
        }
    }
    return result;
}

} // namespace

GeneticAlgorithm::GeneticAlgorithm(GaParams params)
    : params(params)
{
    DAC_ASSERT(params.populationSize >= 2, "population too small");
    DAC_ASSERT(params.tournamentSize >= 1, "tournament too small");
    DAC_ASSERT(params.eliteCount >= 0 &&
               static_cast<size_t>(params.eliteCount) <
                   params.populationSize,
               "bad elite count");
}

GaResult
GeneticAlgorithm::minimize(const Objective &objective, size_t dimensions,
                           const std::vector<std::vector<double>>
                               &seed_population) const
{
    // Objective calls are the expensive part (a model prediction per
    // genome) and touch no GA randomness, so whole generations are
    // scored through the executor without perturbing the RNG stream.
    auto evaluate = [&](std::vector<Individual> &batch, size_t from) {
        parallelFor(params.executor, batch.size() - from,
                    [&](size_t i) {
                        Individual &ind = batch[from + i];
                        ind.fitness = objective(ind.genome);
                    });
    };
    return runGenerations(params, dimensions, seed_population, evaluate);
}

GaResult
GeneticAlgorithm::minimize(const BatchObjective &objective,
                           size_t dimensions,
                           const std::vector<std::vector<double>>
                               &seed_population) const
{
    // Gather/scatter scratch reused across generations.
    std::vector<const double *> genomes;
    std::vector<double> fitness;
    auto evaluate = [&](std::vector<Individual> &batch, size_t from) {
        const size_t count = batch.size() - from;
        genomes.resize(count);
        fitness.resize(count);
        for (size_t i = 0; i < count; ++i)
            genomes[i] = batch[from + i].genome.data();
        objective(genomes.data(), count, fitness.data());
        for (size_t i = 0; i < count; ++i)
            batch[from + i].fitness = fitness[i];
    };
    return runGenerations(params, dimensions, seed_population, evaluate);
}

} // namespace dac::ga
