#include "sim/result_cache.hpp"

#include <chrono>
#include <fstream>
#include <stdexcept>

#include "obs/report.hpp"
#include "sim/batch_engine.hpp"
#include "sim/scenario.hpp"
#include "sim/spec_io.hpp"

namespace coolair {
namespace sim {

bool
resultCacheUsable(const ExperimentSpec &spec)
{
    if (!spec.resultCache || spec.cacheDirPath.empty())
        return false;
    // A trace dump is the run's real output; a cached metrics hit would
    // silently skip producing it.  Reports are fine: hits write one.
    return spec.traceCsvPath.empty() && spec.traceJsonPath.empty();
}

store::ResultStore
openResultStore(const std::string &dir)
{
    return store::ResultStore(dir, kResultCacheSalt, kResultFormatVersion);
}

bool
cacheLookup(store::ResultStore &st, const std::string &id,
            ExperimentResult &out)
{
    std::string payload;
    if (!st.lookup(id, payload))
        return false;
    try {
        out = parseResult(payload);
    } catch (const std::invalid_argument &) {
        // CRC-valid but unparseable: a result-format drift that forgot
        // to bump kResultFormatVersion.  Drop the entry and re-run.
        st.discard(id);
        st.noteInvalidPayload();
        return false;
    }
    return true;
}

ExperimentResult
runAndStore(const ExperimentSpec &spec, store::ResultStore &st,
            const std::string &id)
{
    ExperimentResult result;
    if (spec.batch > 0) {
        // Batched one-lane run; the batch engine writes its own
        // RunReport, so the store's counters are published globally by
        // the caller instead of folded into the report.
        result = runBatchedExperiment(spec);
    } else {
        // Wire the store's counters into any RunReport this run writes
        // (they land after the report's global merge, so the sweep-level
        // publication in the runner stays the single global source).
        auto scenario =
            ScenarioBuilder(spec)
                .withReportStatsSource(
                    [&st](obs::StatsRegistry &reg) { st.addStats(reg); })
                .build();
        result = scenario->run();
    }
    // Store only after the run succeeded: a throwing job reports its
    // failure through the runner and never poisons the store.
    st.store(id, formatResult(result));
    return result;
}

void
writeCacheHitReport(const ExperimentSpec &spec, const ExperimentResult &result,
                    store::ResultStore &st, double wall_seconds)
{
    // The run was skipped, so the report carries the cached metrics,
    // the store's stats, and an explicit provenance annotation instead
    // of engine counters.
    obs::RunReport report =
        makeRunReport(spec, result, wall_seconds, /*sim_seconds=*/0.0);
    report.annotations.push_back({"result_source", "cache"});
    obs::StatsRegistry stats;
    st.addStats(stats);
    std::ofstream os(spec.reportJsonPath);
    if (!os)
        throw std::runtime_error(
            "result cache: cannot open report JSON path: " +
            spec.reportJsonPath);
    obs::writeRunReport(os, report, stats);
}

ExperimentResult
runExperimentCached(const ExperimentSpec &spec, store::ResultStore &st,
                    bool *from_cache)
{
    const std::string id = resultCacheId(spec);

    const auto t0 = std::chrono::steady_clock::now();
    ExperimentResult result;
    if (cacheLookup(st, id, result)) {
        if (from_cache)
            *from_cache = true;
        if (!spec.reportJsonPath.empty()) {
            const double wall =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
            writeCacheHitReport(spec, result, st, wall);
        }
        return result;
    }

    if (from_cache)
        *from_cache = false;
    return runAndStore(spec, st, id);
}

} // namespace sim
} // namespace coolair
