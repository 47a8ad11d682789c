#ifndef COOLAIR_SIM_RESULT_CACHE_HPP
#define COOLAIR_SIM_RESULT_CACHE_HPP

/**
 * @file
 * Experiment-level view of the persistent result store (src/store/):
 * key derivation from a spec, payload (de)serialization via
 * spec_io::formatResult, and the cached run entry points the runner
 * and experiment_cli share.
 *
 * Cache identity.  A spec's identity (resultCacheId, in spec_io.hpp)
 * is its canonical formatSpec text without the output paths
 * (trace_csv, report_json, trace_json) and the cache keys (cache_dir,
 * result_cache), so two specs that differ only in where they write
 * side outputs share one cached result.  PR 1 made results a pure
 * function of the spec (seeds derive from spec identity, never from
 * scheduling), which is exactly what makes this sound.
 *
 * Versioning.  Entries are salted with kResultCacheSalt (bump it when
 * simulation semantics change — any change that alters metrics for an
 * unchanged spec) and keyed on spec_io::kResultFormatVersion (bumped
 * when the serialized result shape changes).  Either bump makes every
 * old entry stale: detected on lookup, dropped, and re-run.
 *
 * Specs that dump traces (trace_csv / trace_json) are never cached:
 * serving their metrics from disk would silently skip producing the
 * trace they exist for.  A report_json spec *is* cached — on a hit the
 * report is still written, carrying the store's stats and a
 * result_source=cache annotation instead of engine counters.
 */

#include <string>

#include "sim/experiment.hpp"
#include "sim/spec_io.hpp"
#include "store/result_store.hpp"

namespace coolair {
namespace sim {

/**
 * Simulation-semantics salt of the result store.  Bump whenever a code
 * change alters the metrics an unchanged spec produces (physics,
 * controllers, workloads, metric definitions...), so stale cached
 * results are re-run instead of served.
 */
inline constexpr const char kResultCacheSalt[] = "coolair-sim-6";

/** True when @p spec asks for caching and its results are servable
    from disk (cache_dir set, result_cache on, no trace outputs). */
bool resultCacheUsable(const ExperimentSpec &spec);

/** Open the experiment result store at @p dir (sim salt + version). */
store::ResultStore openResultStore(const std::string &dir);

/**
 * Look up @p id and parse the payload.  A payload that fails to parse
 * is reclassified as corrupt, discarded, and reported as a miss.
 * Thread-safe; never throws.
 */
bool cacheLookup(store::ResultStore &st, const std::string &id,
                 ExperimentResult &out);

/**
 * Run @p spec (uncached) and store the result under @p id.  The store's
 * stats are wired into any RunReport the run writes.  The result is
 * stored only after the run succeeds, so a throwing job never poisons
 * the store.
 */
ExperimentResult runAndStore(const ExperimentSpec &spec,
                             store::ResultStore &st, const std::string &id);

/**
 * Write the RunReport for a cache-served result to spec.reportJsonPath:
 * the cached metrics, the store's stats, and a result_source=cache
 * annotation in place of engine counters.
 * @throws std::runtime_error if the report path cannot be opened.
 */
void writeCacheHitReport(const ExperimentSpec &spec,
                         const ExperimentResult &result,
                         store::ResultStore &st, double wall_seconds);

/**
 * The full cached run: lookup, else run + store.  On a hit with
 * spec.reportJsonPath set, a RunReport is still written (metrics from
 * the cached result, stats from the store, result_source=cache).
 * @p from_cache (optional) reports whether the result was served.
 */
ExperimentResult runExperimentCached(const ExperimentSpec &spec,
                                     store::ResultStore &st,
                                     bool *from_cache = nullptr);

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_RESULT_CACHE_HPP
