/**
 * @file
 * perfbench harness: runs one workload in this process and prints one
 * JSON report line on stdout (diagnostics go to stderr).
 *
 *   perfbench_harness --workload <name> --seed <n> --seconds <s>
 *                     --trace <0|1> --references <dir>
 *   perfbench_harness --workload <name> --setup-only
 *   perfbench_harness --workload <name> --record <dir>
 *
 * Untraced runs report the end-to-end metrics; traced runs (--trace 1)
 * time half the run untraced and half traced, assert the traced
 * results are bit-identical, and report the per-layer ledger.
 */

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "obs/stats.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"

extern char **environ;

using namespace perfbench;

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric a traced run prints (0 where a workload does
    not exercise the layer). */
const MetricDef kLayerMetrics[] = {
    {"environment.weather_calls", "count"},
    {"environment.weather_ms", "ms"},
    {"environment.weather_cache_hit_ratio", "ratio"},
    {"workload.step_calls", "count"},
    {"workload.ms", "ms"},
    {"sim.controller_epochs", "count"},
    {"sim.controller_ms", "ms"},
    {"core.rollouts", "count"},
    {"core.rollout_abandon_ratio", "ratio"},
    {"core.candidates_per_epoch", "count"},
    {"core.resolve_hit_ratio", "ratio"},
    {"sim.engine_steps", "count"},
    {"sim.engine_self_ms", "ms"},
    {"sim.scenario_build_ms", "ms"},
    {"sim.batch_ctor_ms", "ms"},
    {"sim.batch_run_ms", "ms"},
    {"sim.batch_lanes_stepped", "count"},
    {"sim.batch_lane_fill", "ratio"},
    {"sim.batch_ragged_tail_lanes", "count"},
    {"sim.runner_jobs", "count"},
    {"sim.runner_job_ms_p50", "ms"},
    {"sim.runner_job_ms_p95", "ms"},
    {"sim.runner_idle_frac", "ratio"},
    {"sim.result_cache_id_us", "us"},
    {"sim.parse_result_us", "us"},
    {"store.lookups", "count"},
    {"store.hit_ratio", "ratio"},
    {"store.lookup_us", "us"},
    {"store.bytes_read", "bytes"},
    {"store.stores", "count"},
    {"store.bytes_written", "bytes"},
    {"serve.runs", "count"},
    {"serve.full_dispatches", "count"},
    {"serve.partial_dispatches", "count"},
    {"serve.lane_fill_mean", "lanes"},
    {"serve.worker_busy_frac", "ratio"},
    {"serve.park_ms", "ms"},
    {"serve.batch_run_ms", "ms"},
    {"serve.server_latency_ms", "ms"},
    {"serve.wire_ms", "ms"},
    {"model.learn_s", "s"},
    {"obs.trace_overhead_pct", "%"},
    {"ledger.remainder_ms", "ms"},
    {"ledger.remainder_pct", "%"},
    {"host.cpu_s", "s"},
    {"host.parallel_eff", "ratio"},
    {"host.steal_s", "s"},
    {"host.ref_ms", "ms"},
    {"latency_p95_ms", "ms"},
};

/** Set-ups timed per untraced run: its own, the rest in fresh processes. */
constexpr size_t kSetupSamples = 8;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr, "perfbench_harness: %s\n", why);
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload <name> [--seed n] "
                 "[--seconds s] [--trace 0|1] [--references dir] "
                 "[--setup-only] [--record dir]\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        uint64_t n = 0;
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            if (!coolair::util::parseSize(value(), n))
                usage("--seed takes a non-negative integer");
            opt.seed = n;
        } else if (arg == "--seconds") {
            if (!coolair::util::parseSize(value(), n) || n < 1 || n > 3600)
                usage("--seconds takes an integer in [1, 3600]");
            opt.seconds = double(n);
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (arg == "--references") {
            opt.referenceDir = value();
        } else if (arg == "--record") {
            opt.recordDir = value();
        } else if (arg == "--setup-only") {
            opt.setupOnly = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    return opt;
}

/** Round-by-round correctness: identity with the first round, and the
    committed references at the default seed. */
class Checker
{
  public:
    Checker(const Workload &wl, std::vector<std::string> refs)
        : _wl(wl), _refs(std::move(refs))
    {
    }

    void check(const Round &r, Tally &tally)
    {
        tally.attempted += r.payloads.size();
        if (r.errors > 0)
            tally.fail(std::to_string(r.errors) + " experiments failed",
                       r.errors);
        if (_first.empty())
            _first = r.payloads;
        for (size_t i = 0; i < r.payloads.size(); ++i) {
            const std::string &p = r.payloads[i];
            if (p.empty())
                continue;  // an error, counted above
            if (p != _first[i])
                tally.fail("spec " + std::to_string(i) +
                           ": result differs from the first round");
            if (!_refs.empty() &&
                (_refs[i].empty() ||
                 !matchesReference(p, _refs[i], _wl.refCompare())))
                tally.fail("spec " + std::to_string(i) +
                           ": result does not match the reference");
        }
    }

    const std::vector<std::string> &first() const { return _first; }

  private:
    const Workload &_wl;
    std::vector<std::string> _refs;
    std::vector<std::string> _first;
};

/** The process's CPUs, handed out round-robin. */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    _cpus.push_back(c);
    }

    /** The next CPU in turn; -1 when there is no choice. */
    int next()
    {
        return _cpus.size() < 2 ? -1 : _cpus[_at++ % _cpus.size()];
    }

  private:
    std::vector<int> _cpus;
    size_t _at = 0;
};

/**
 * Pin the calling thread, and the threads and processes it starts, to
 * @p cpu (no-op for -1).
 */
void
pinThread(int cpu)
{
    if (cpu < 0)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
}

/**
 * Set-up time of a fresh harness process for the same workload and
 * seed, pinned to @p cpu [s].  It runs in a directory of its own, so it
 * cannot touch this run's stores or sockets, and inherits none of its
 * descriptors.
 */
double
setupSample(const Options &opt, int cpu)
{
    const std::string dir = "setup-sample";
    std::filesystem::create_directories(dir);
    const std::string seed = std::to_string(opt.seed);
    const char *argv[] = {"perfbench_harness", "--workload",
                          opt.workload.c_str(), "--seed", seed.c_str(),
                          "--setup-only", nullptr};
    int out[2];
    if (pipe(out) != 0)
        throw std::runtime_error("set-up sample: pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclosefrom_np(&actions, STDERR_FILENO + 1);
    posix_spawn_file_actions_addchdir_np(&actions, dir.c_str());
    cpu_set_t mine;
    sched_getaffinity(0, sizeof mine, &mine);
    pinThread(cpu);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               const_cast<char **>(argv), environ);
    sched_setaffinity(0, sizeof mine, &mine);
    posix_spawn_file_actions_destroy(&actions);
    close(out[1]);
    std::string text;
    char buf[256];
    for (ssize_t n; rc == 0 && (n = read(out[0], buf, sizeof buf)) > 0;)
        text.append(buf, size_t(n));
    close(out[0]);
    int status = 0;
    if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error("set-up sample failed");
    std::filesystem::remove_all(dir);
    double v = 0.0;
    if (!coolair::util::parseDouble(text.substr(0, text.find('\n')), v))
        throw std::runtime_error("set-up sample: bad output: " + text);
    return v;
}

std::string
compilerText()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    const auto start = Clock::now();
    const Options opt = parseArgs(argc, argv);
    std::unique_ptr<Workload> wl = makeWorkload(opt.workload, opt.seed);
    if (!wl)
        usage(("unknown workload " + opt.workload).c_str());

    try {
        wl->setup();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "set-up failed: %s\n", e.what());
        return 1;
    }
    const double setupS = secondsSince(start);
    if (opt.setupOnly) {
        std::cout << coolair::obs::formatDouble(setupS) << std::endl;
        return 0;
    }

    if (!opt.recordDir.empty()) {
        if (wl->refCompare() == RefCompare::None) {
            std::fprintf(stderr, "record: %s keeps no references\n",
                         opt.workload.c_str());
            return 1;
        }
        const Round r = wl->round();
        if (r.errors > 0) {
            std::fprintf(stderr, "record: %zu experiments failed\n",
                         r.errors);
            return 1;
        }
        writeReferences(referencePath(opt.recordDir, opt.workload),
                        wl->specTexts(), r.payloads);
        return 0;
    }

    Tally tally;
    std::vector<std::string> refs;
    if (opt.seed == kDefaultSeed && !opt.referenceDir.empty() &&
        wl->refCompare() != RefCompare::None &&
        !readReferences(referencePath(opt.referenceDir, opt.workload),
                        wl->specTexts(), refs))
        tally.fail("reference file missing for " + opt.workload);
    Checker checker(*wl, refs);

    std::vector<double> latencies, untracedWall, tracedWall;
    double bestRate = 0.0;               // of the fastest untraced round,
    std::vector<double> bestLatencyMs;   // and its request latencies
    std::vector<double> setups = {setupS};
    double samplingS = 0.0;  // spent on set-up samples, not on rounds
    const double cpu0 = processCpuSeconds();
    const double steal0 = stealSeconds();
    const double refBefore = referenceLoopMs();
    const auto timed = Clock::now();
    auto elapsed = [&] { return secondsSince(timed) - samplingS; };

    // The guest's vCPUs run at speeds that differ by up to 1.7x and
    // change within seconds, whatever the guest does.  A thread left
    // on one vCPU can see one speed for a whole run, so a
    // single-threaded workload moves to the next CPU each round, and
    // the set-up samples take the CPUs in turn as well.
    CpuRotation cpus;
    const bool rotate = wl->workers() == 1;
    auto runRound = [&](bool traced) {
        if (rotate)
            pinThread(cpus.next());
        Round r = traced ? wl->tracedRound() : wl->round();
        checker.check(r, tally);
        (traced ? tracedWall : untracedWall).push_back(r.wallS);
        if (traced)
            return;
        const double rate = double(r.payloads.size() - r.errors) / r.wallS;
        if (rate > bestRate) {
            bestRate = rate;
            bestLatencyMs = r.latencyMs;
        }
        latencies.insert(latencies.end(), r.latencyMs.begin(),
                         r.latencyMs.end());
    };
    // Set-up samples in fresh processes, spread between the rounds over
    // the whole run, so they do not all see one moment of the host.
    auto sampleSetup = [&] {
        const auto t0 = Clock::now();
        setups.push_back(setupSample(opt, cpus.next()));
        samplingS += secondsSince(t0);
    };
    try {
        // Half the run untraced, then as many traced rounds: the two
        // halves give the tracing overhead, and the traced results must
        // be bit-identical to the untraced first round.
        const double untracedBudget =
            opt.trace ? opt.seconds / 2.0 : opt.seconds;
        const size_t samples = opt.trace ? 0 : kSetupSamples;
        do {
            runRound(false);
            if (setups.size() < samples &&
                elapsed() >= untracedBudget * double(setups.size()) /
                                 double(samples))
                sampleSetup();
        } while (elapsed() < untracedBudget);
        while (setups.size() < samples)
            sampleSetup();
        if (opt.trace)
            for (size_t i = 0; i < untracedWall.size(); ++i)
                runRound(true);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "timed phase failed: %s\n", e.what());
        return 1;
    }
    const double timedWall = elapsed();
    const double refAfter = referenceLoopMs();
    const double cpuS = processCpuSeconds() - cpu0;
    const double stealS = stealSeconds() - steal0;
    const double peakRss = peakRssMb();

    LayerMetrics layers;
    try {
        wl->verify(checker.first(), tally);
        if (opt.trace)
            wl->layerMetrics(layers);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "checks failed: %s\n", e.what());
        return 1;
    }
    tally.failed = std::min(tally.failed, tally.attempted);
    for (const std::string &why : tally.reasons)
        std::fprintf(stderr, "check failed: %s\n", why.c_str());

    const double workers = double(wl->workers());
    LayerMetrics host = {
        {"host.cpu_s", cpuS},
        {"host.parallel_eff", cpuS / (timedWall * workers)},
        {"host.steal_s", stealS},
        {"host.ref_ms", (refBefore + refAfter) / 2.0},
    };

    using coolair::obs::formatDouble;
    using coolair::util::jsonQuote;
    std::ostringstream metrics;
    bool finite = true;
    auto emit = [&](const std::string &name, double value,
                    const std::string &unit) {
        if (!std::isfinite(value)) {
            std::fprintf(stderr, "metric %s is not finite\n", name.c_str());
            finite = false;
        }
        if (metrics.tellp() > 0)
            metrics << ", ";
        metrics << jsonQuote(name) << ": {\"value\": " << formatDouble(value)
                << ", \"unit\": " << jsonQuote(unit) << "}";
    };
    if (!opt.trace) {
        // The host's slow phases only ever add time, so the fastest
        // set-up and the fastest round are the ones they touched least.
        emit("setup_s", *std::min_element(setups.begin(), setups.end()),
             "s");
        emit("specs_per_s", bestRate, "1/s");
        emit("latency_p50_ms", median(bestLatencyMs), "ms");
        emit("peak_rss_mb", peakRss, "MiB");
    } else {
        layers.insert(host.begin(), host.end());
        layers["model.learn_s"] = wl->learnSeconds;
        layers["latency_p95_ms"] = quantile(latencies, 0.95);
        const double base = median(untracedWall);
        layers["obs.trace_overhead_pct"] =
            100.0 * (median(tracedWall) - base) / base;
        for (const MetricDef &m : kLayerMetrics) {
            auto it = layers.find(m.name);
            emit(m.name, it == layers.end() ? 0.0 : it->second, m.unit);
        }
    }

    if (!finite)
        return 1;

    std::ostringstream context;
    context << "{\"workload\": " << jsonQuote(opt.workload)
            << ", \"seed\": " << opt.seed
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"workers\": " << wl->workers()
            << ", \"build_type\": " << jsonQuote(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << jsonQuote(compilerText())
            << ", \"rounds\": " << untracedWall.size()
            << ", \"traced_rounds\": " << tracedWall.size()
            << ", \"latency_samples\": " << latencies.size()
            << ", \"timed_s\": " << formatDouble(timedWall)
            << ", \"setup_samples_s\": [";
    for (size_t i = 0; i < setups.size(); ++i)
        context << (i ? ", " : "") << formatDouble(setups[i]);
    context << "]";
    for (const auto &[name, value] : host)
        context << ", " << jsonQuote(name) << ": " << formatDouble(value);
    context << "}";

    std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed
              << ", \"context\": " << context.str() << ", \"metrics\": {"
              << metrics.str() << "}}" << std::endl;
    return 0;
}
