/**
 * @file
 * Payload digests for A/B checks of a change that must keep result
 * bytes: COOLAIR_WORLD_SITES world-grid sites (default 1520) x
 * {Baseline, All-ND}, one measured day (186) at a 120 s physics step on
 * the task-level Facebook workload, run on the scalar path and again at
 * batch=8.  Prints one FNV-1a-64 digest of each spec's formatResult
 * payload, in spec order, then one total per path over all of its
 * payloads.  Build two commits, run both, and diff the outputs:
 *
 *   ./build/bench/bench_payload_digest > a.txt   # and b.txt
 *   diff a.txt b.txt
 *
 * Digests do not depend on COOLAIR_THREADS.  Timing goes to stderr.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "environment/world_grid.hpp"
#include "sim/runner.hpp"
#include "sim/spec_io.hpp"
#include "util/parse.hpp"

using namespace coolair;

namespace {

constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

/** FNV-1a-64 of @p s continued from @p h. */
uint64_t
fnv1a(const std::string &s, uint64_t h = kFnvBasis)
{
    for (char c : s) {
        h ^= uint64_t(uint8_t(c));
        h *= 0x100000001B3ULL;
    }
    return h;
}

} // anonymous namespace

int
main()
{
    const size_t count =
        size_t(util::envInt("COOLAIR_WORLD_SITES", 1520, 1, 1000000));
    const std::vector<environment::Location> sites =
        environment::worldGrid(count);

    std::printf("# %zu world-grid sites x {Baseline, All-ND}, day 186, "
                "120 s, task-level Facebook workload\n",
                sites.size());
    sim::ExperimentRunner runner;
    bool ok = true;
    for (int batch : {0, 8}) {
        std::vector<sim::ExperimentSpec> specs;
        specs.reserve(2 * sites.size());
        for (size_t i = 0; i < sites.size(); ++i) {
            sim::ExperimentSpec spec;
            spec.location = sites[i];
            spec.workload = sim::WorkloadKind::Facebook;
            spec.runKind = sim::RunKind::SingleDay;
            spec.day = 186;
            spec.physicsStepS = 120.0;
            spec.seed =
                sim::ExperimentRunner::deriveSeed(7, i, sites[i].name);
            spec.batch = batch;
            spec.system = sim::SystemId::Baseline;
            specs.push_back(spec);
            spec.system = sim::SystemId::AllNd;
            specs.push_back(spec);
        }

        const auto start = std::chrono::steady_clock::now();
        const sim::SweepOutcome out = runner.run(specs);
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();

        const std::string path =
            batch > 0 ? "batch=" + std::to_string(batch) : "scalar";
        for (const sim::ExperimentFailure &f : out.failures)
            std::fprintf(stderr, "%s: spec %zu failed: %s\n", path.c_str(),
                         f.index, f.message.c_str());
        uint64_t total = kFnvBasis;
        for (size_t i = 0; i < specs.size(); ++i) {
            const char *system = sim::systemName(specs[i].system);
            if (!out.ok(i)) {
                std::printf("%s %zu %s %s FAILED\n", path.c_str(), i,
                            specs[i].location.name.c_str(), system);
                ok = false;
                continue;
            }
            const std::string payload = sim::formatResult(out.results[i]);
            total = fnv1a(payload, total);
            std::printf("%s %zu %s %s %016llx\n", path.c_str(), i,
                        specs[i].location.name.c_str(), system,
                        (unsigned long long)fnv1a(payload));
        }
        std::printf("%s total %016llx\n", path.c_str(),
                    (unsigned long long)total);
        std::fprintf(stderr, "%s: %zu specs on %d threads in %.2f s\n",
                     path.c_str(), specs.size(), runner.threads(), secs);
    }
    return ok ? 0 : 1;
}
