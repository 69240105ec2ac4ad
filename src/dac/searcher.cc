#include "dac/searcher.h"

#include <chrono>

#include "ml/flat_ensemble.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "support/logging.h"

namespace dac::core {

Searcher::Searcher(const ml::Model &model, const conf::ConfigSpace &space,
                   bool include_dsize)
    : model(&model), space(&space), includeDsize(include_dsize)
{
}

SearchResult
Searcher::search(double dsize_bytes, const ga::GaParams &params,
                 const std::vector<conf::Configuration> &seeds) const
{
    obs::ScopedSpan searchSpan("search");
    if (searchSpan.active())
        searchSpan.attr("dsize_bytes", dsize_bytes);
    const auto t0 = std::chrono::steady_clock::now();

    std::vector<std::vector<double>> seed_genomes;
    seed_genomes.reserve(seeds.size());
    for (const auto &c : seeds) {
        DAC_ASSERT(&c.space() == space, "seed from a different space");
        seed_genomes.push_back(c.toNormalized());
    }

    // Score through a compiled FlatEnsemble when one is available:
    // the caller's (setCompiled) or a fresh per-search compilation —
    // compiling costs one pass over the trained trees, repaid within
    // the first generation. Fitness values, and hence the GaResult,
    // are exactly those of the interpreted fallback.
    const std::unique_ptr<ml::FlatEnsemble> owned =
        compiled == nullptr ? model->compile() : nullptr;
    const ml::FlatEnsemble *flat =
        compiled != nullptr ? compiled : owned.get();

    ga::GeneticAlgorithm algorithm(params);
    SearchResult out{conf::Configuration(*space), 0.0, {}, 0.0};
    if (flat != nullptr) {
        const size_t width = space->size() + (includeDsize ? 1 : 0);
        std::vector<double> rows; // generation feature matrix, reused
        auto batch = [&](const double *const *genomes, size_t count,
                         double *fitness) {
            rows.resize(count * width);
            // Decode each genome straight into its feature row: the
            // denormalized values ARE the feature columns (dsize
            // appended last), so the per-genome Configuration and
            // toFeatures() allocations vanish from the generation
            // loop. Same values, same fitness bits.
            parallelFor(params.executor, count, [&](size_t i) {
                double *row = rows.data() + i * width;
                space->denormalizeInto(genomes[i], row);
                if (includeDsize)
                    row[width - 1] = dsize_bytes;
            });
            flat->predictBatch(rows.data(), width, count, fitness,
                               params.executor);
        };
        out.ga = algorithm.minimize(ga::GeneticAlgorithm::BatchObjective(
                                        batch),
                                    space->size(), seed_genomes);
    } else {
        auto objective = [&](const std::vector<double> &genome) {
            const auto config =
                conf::Configuration::fromNormalized(*space, genome);
            const auto features = toFeatures(config, dsize_bytes,
                                             includeDsize);
            return model->predict(features);
        };
        out.ga = algorithm.minimize(objective, space->size(),
                                    seed_genomes);
    }
    out.best = conf::Configuration::fromNormalized(*space, out.ga.best);
    out.predictedTimeSec = out.ga.bestFitness;

    const auto t1 = std::chrono::steady_clock::now();
    out.wallSec = std::chrono::duration<double>(t1 - t0).count();
    if (searchSpan.active()) {
        searchSpan.attr("generations",
                        static_cast<uint64_t>(out.ga.generations));
        searchSpan.attr("predicted_sec", out.predictedTimeSec);
    }
    static obs::Counter &searches =
        obs::globalMetrics().counter("search.runs");
    static obs::Histogram &searchSec =
        obs::globalMetrics().histogram("search.sec");
    searches.increment();
    searchSec.observe(out.wallSec);
    return out;
}

} // namespace dac::core
