/**
 * @file
 * Mixed hot/cold load driver for the coolair_serve daemon: starts an
 * in-process LineServer on a Unix socket, fans client threads out
 * against it, and reports sustained specs/s — the ROADMAP item 1
 * measure for the serving layer.
 *
 * Phases:
 *   1. cold warm-up: every spec in the hot set runs once (populates
 *      the result store and the learned-model shared state);
 *   2. mixed load: each client thread issues a deterministic
 *      hot/cold request mix — hot requests repeat the hot set (served
 *      from the in-memory hot cache or the store), cold requests are
 *      fresh single-day specs (each simulates once; concurrent
 *      duplicates dedup in flight);
 *   3. cold-heavy coalescing A/B: the same stream of batch=N cold
 *      specs (N = COOLAIR_SERVE_COALESCE) against fresh services,
 *      scheduler off (solo) and --coalesce N on (coalesced), three
 *      passes per side in alternation, each against its own service,
 *      socket and store; it reports the cross-request batching speedup
 *      of the median passes at 16 clients and the service's worker
 *      count.
 *
 * Environment knobs (strict util::envInt parsing):
 *   COOLAIR_SERVE_CLIENTS   client threads        (default 8)
 *   COOLAIR_SERVE_REQUESTS  requests per client   (default 32)
 *   COOLAIR_SERVE_HOT_PCT   hot share in percent  (default 75)
 *   COOLAIR_SERVE_HOT_KB    hot-cache budget KiB  (default 8192; 0
 *                           serves phase 2 from disk only)
 *   COOLAIR_SERVE_HOT_SHARDS hot-cache stripes    (default 8)
 *   COOLAIR_SERVE_COALESCE  lane target of phase 3 (default 16; <2
 *                           skips the phase and its entries)
 *   COOLAIR_SERVE_COALESCE_CLIENTS  phase-3 clients      (default 16)
 *   COOLAIR_SERVE_COALESCE_REQUESTS per-client requests  (default 4)
 *   COOLAIR_SERVE_COALESCE_WAIT_MS  collection window    (default 20)
 *   COOLAIR_THREADS         daemon worker threads (default all cores)
 *
 * Machine-readable output (the compare_bench.py / google-benchmark
 * JSON schema, so the serve numbers ride the same regression gate as
 * bench_micro):
 *   --benchmark_filter=<regex>   emit only matching entries
 *   --benchmark_out=<path>       write the JSON document there
 *   --benchmark_out_format=json  (the only supported format)
 * Entries: BM_ServeColdWarmup (ns per cold spec), BM_ServeMixed (ns
 * per mixed request, with specs_per_s and latency_p50/p95/p99_ms
 * counters), and BM_ServeColdSolo / BM_ServeColdCoalesced (phase 3, the
 * median pass of each side; the coalesced entry carries
 * coalesce_speedup, the ratio of the two medians, which compare_bench.py
 * gates at >= 2x at one worker and >= 1x at more).  The context block
 * records num_cpus, the build type, and the service's worker count,
 * which that gate reads.  Regenerate the committed baseline with:
 *   build/bench/bench_serve --benchmark_out=bench/BENCH_serve.json \
 *       --benchmark_out_format=json
 *
 * The driver asserts the serving contract as it measures: every hot
 * response must be byte-identical to the response the same spec line
 * got in the warm-up phase, and every phase-3 response after the first
 * solo pass must be byte-identical to that pass's answer for the same
 * spec.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "obs/stats.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

using namespace coolair;

namespace {

/** The hot set: single-day profile-workload specs across the five
    named sites (cheap to simulate, realistic to serve). */
std::vector<std::string>
hotSpecLines()
{
    const char *sites[] = {"newark", "chad", "santiago", "iceland",
                           "singapore"};
    std::vector<std::string> lines;
    for (const char *site : sites)
        for (int day : {60, 240})
            lines.push_back("run=day; day=" + std::to_string(day) +
                            "; site=" + std::string(site) +
                            "; system=allnd; workload=profile; "
                            "physics_step=120");
    return lines;
}

/** A cold spec line nobody has run before (unique day/seed mix). */
std::string
coldSpecLine(size_t client, size_t request)
{
    const size_t n = client * 1000 + request;
    return "run=day; day=" + std::to_string(n % 365) +
           "; site=santiago; system=baseline; workload=profile; "
           "physics_step=120; seed=" +
           std::to_string(100000 + n);
}

/** One benchmark entry of the emitted JSON document. */
struct BenchEntry
{
    std::string name;
    int64_t iterations = 0;
    double realTimeNs = 0.0;  ///< wall time per iteration
    std::vector<std::pair<std::string, double>> counters;
};

/** The value below which @p q of the sorted samples fall. */
double
quantileOf(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double rank = q * double(sorted.size() - 1);
    const size_t lo = size_t(rank);
    const size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - double(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/**
 * Write @p entries as a google-benchmark JSON document — the schema
 * bench/compare_bench.py consumes (context block for comparability
 * warnings, one object per benchmark with real_time in ns).
 */
bool
writeBenchJson(const std::string &path, int workers,
               const std::vector<BenchEntry> &entries)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        return false;
    out << "{\n  \"context\": {\n"
        << "    \"executable\": \"bench_serve\",\n"
        << "    \"num_cpus\": " << std::thread::hardware_concurrency()
        << ",\n"
        << "    \"workers\": " << workers << ",\n"
        << "    \"library_build_type\": \""
#ifdef NDEBUG
           "release"
#else
           "debug"
#endif
        << "\"\n  },\n  \"benchmarks\": [";
    bool first = true;
    for (const BenchEntry &e : entries) {
        if (!first)
            out << ",";
        first = false;
        out << "\n    {\n"
            << "      \"name\": \"" << e.name << "\",\n"
            << "      \"run_name\": \"" << e.name << "\",\n"
            << "      \"run_type\": \"iteration\",\n"
            << "      \"repetitions\": 1,\n"
            << "      \"repetition_index\": 0,\n"
            << "      \"threads\": 1,\n"
            << "      \"iterations\": " << e.iterations << ",\n"
            << "      \"real_time\": " << obs::formatDouble(e.realTimeNs)
            << ",\n"
            << "      \"cpu_time\": " << obs::formatDouble(e.realTimeNs)
            << ",\n"
            << "      \"time_unit\": \"ns\"";
        for (const auto &[key, value] : e.counters)
            out << ",\n      \"" << key
                << "\": " << obs::formatDouble(value);
        out << "\n    }";
    }
    out << "\n  ]\n}\n";
    return bool(out);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    std::string filter = ".";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto valueOf = [&](const char *flag, std::string &into) {
            const std::string prefix = std::string(flag) + "=";
            if (arg.rfind(prefix, 0) != 0)
                return false;
            into = arg.substr(prefix.size());
            return true;
        };
        std::string format;
        if (valueOf("--benchmark_out", out_path) ||
            valueOf("--benchmark_filter", filter))
            continue;
        if (valueOf("--benchmark_out_format", format)) {
            if (format != "json") {
                std::fprintf(stderr,
                             "bench_serve: only json output is "
                             "supported (got '%s')\n",
                             format.c_str());
                return 2;
            }
            continue;
        }
        if (arg.rfind("--benchmark_", 0) == 0)
            continue;  // tolerate other google-benchmark flags
        std::fprintf(stderr, "bench_serve: unknown argument '%s'\n",
                     arg.c_str());
        return 2;
    }

    const int clients = util::envInt("COOLAIR_SERVE_CLIENTS", 8, 1, 256);
    const int requests = util::envInt("COOLAIR_SERVE_REQUESTS", 32, 1,
                                      100000);
    const int hot_pct = util::envInt("COOLAIR_SERVE_HOT_PCT", 75, 0, 100);
    const int hot_kb = util::envInt("COOLAIR_SERVE_HOT_KB", 8192, 0,
                                    1 << 20);
    const int hot_shards =
        util::envInt("COOLAIR_SERVE_HOT_SHARDS", 8, 1, 4096);

    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("bench_serve." + std::to_string(uint64_t(::getpid())));
    fs::create_directories(dir);
    const std::string socket_path = (dir / "serve.sock").string();

    serve::ServiceConfig service_config;
    service_config.cacheDir = (dir / "store").string();
    service_config.hotCacheBytes = size_t(hot_kb) << 10;
    service_config.hotCacheShards = hot_shards;
    serve::ExperimentService service(service_config);

    serve::ServerConfig server_config;
    server_config.unixPath = socket_path;
    serve::LineServer server(service, server_config);
    server.start();

    std::printf("=== bench_serve: %d clients x %d requests, %d%% hot, "
                "%d workers ===\n",
                clients, requests, hot_pct, service.threads());

    // Phase 1: run the hot set cold, remember the exact bytes served.
    const std::vector<std::string> hot = hotSpecLines();
    std::map<std::string, std::string> hot_bytes;
    double cold_s = 0.0;
    {
        serve::Client warmup = serve::Client::connectUnix(socket_path);
        const auto t0 = std::chrono::steady_clock::now();
        for (const std::string &line : hot) {
            serve::Client::Response r = warmup.request("RUN " + line);
            if (!r.ok) {
                std::fprintf(stderr, "warm-up failed: %s\n",
                             r.error.c_str());
                return 1;
            }
            hot_bytes[line] = r.payload;
        }
        cold_s =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        std::printf("cold warm-up: %zu specs in %.2f s (%.1f specs/s)\n",
                    hot.size(), cold_s, double(hot.size()) / cold_s);
    }

    // Phase 2: the mixed load, with per-request latencies collected so
    // the emitted entry carries the tail, not just the mean.
    std::vector<std::thread> pool;
    std::vector<int> failures(size_t(clients), 0);
    std::vector<std::vector<double>> latencies_ms;
    latencies_ms.resize(size_t(clients));
    const auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < clients; ++c) {
        latencies_ms[size_t(c)].reserve(size_t(requests));
        pool.emplace_back([&, c] {
            serve::Client client = serve::Client::connectUnix(socket_path);
            util::Rng rng(42, "bench_serve#" + std::to_string(c));
            for (int i = 0; i < requests; ++i) {
                const bool is_hot =
                    int(rng.uniformInt(0, 99)) < hot_pct;
                const std::string line =
                    is_hot ? hot[size_t(rng.uniformInt(
                                 0, int64_t(hot.size()) - 1))]
                           : coldSpecLine(size_t(c), size_t(i));
                const auto r0 = std::chrono::steady_clock::now();
                serve::Client::Response r = client.request("RUN " + line);
                latencies_ms[size_t(c)].push_back(
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - r0)
                        .count());
                if (!r.ok ||
                    (is_hot && r.payload != hot_bytes.at(line)))
                    ++failures[size_t(c)];
            }
        });
    }
    for (auto &t : pool)
        t.join();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    int failed = 0;
    for (int f : failures)
        failed += f;
    const size_t total = size_t(clients) * size_t(requests);

    std::vector<double> sorted_ms;
    sorted_ms.reserve(total);
    for (const auto &per_client : latencies_ms)
        sorted_ms.insert(sorted_ms.end(), per_client.begin(),
                         per_client.end());
    std::sort(sorted_ms.begin(), sorted_ms.end());
    const double p50 = quantileOf(sorted_ms, 0.50);
    const double p95 = quantileOf(sorted_ms, 0.95);
    const double p99 = quantileOf(sorted_ms, 0.99);

    std::printf("mixed load: %zu requests in %.2f s -> %.1f specs/s "
                "sustained (%d failures)\n",
                total, wall, double(total) / wall, failed);
    std::printf("latency: p50 %.1f ms, p95 %.1f ms, p99 %.1f ms\n", p50,
                p95, p99);

    {
        serve::Client admin = serve::Client::connectUnix(socket_path);
        serve::Client::Response stats = admin.request("STATS");
        if (stats.ok)
            std::fputs(stats.payload.c_str(), stdout);
        admin.request("SHUTDOWN");
    }
    server.stop();

    // Phase 3: cold-heavy coalescing A/B.  The same stream of cold
    // batch=N specs (same shape, distinct seeds — exactly what a sweep
    // fan-out or many parameter-study clients produce) is driven at
    // fresh services, scheduler off (solo) and on (coalesced), in
    // alternation, kPasses times each; one pass takes about half a
    // second at 4 workers, so each side reports its median pass.  Every
    // response after the first solo pass must be byte-identical to that
    // pass's answer for the same spec: a lane's bytes do not depend on
    // which lanes share its engine (DESIGN.md §10).
    constexpr int kPasses = 3;
    const int co_lanes = util::envInt("COOLAIR_SERVE_COALESCE", 16, 0, 64);
    const int co_clients =
        util::envInt("COOLAIR_SERVE_COALESCE_CLIENTS", 16, 1, 256);
    const int co_requests =
        util::envInt("COOLAIR_SERVE_COALESCE_REQUESTS", 4, 1, 10000);
    const int co_wait_ms =
        util::envInt("COOLAIR_SERVE_COALESCE_WAIT_MS", 20, 0, 60000);
    const size_t co_total = size_t(co_clients) * size_t(co_requests);
    std::vector<double> solo_walls;
    std::vector<double> coal_walls;
    if (co_lanes >= 2) {
        auto coldBatchLine = [&](int c, int i) {
            return "run=range; start_day=60; end_day=74; "
                   "site=santiago; system=baseline; "
                   "workload=profile; physics_step=15; batch=" +
                   std::to_string(co_lanes) + "; seed=" +
                   std::to_string(500000 + c * 1000 + i);
        };
        std::map<std::string, std::string> solo_bytes;
        std::mutex bytes_mutex;
        for (int pass = 0; pass < 2 * kPasses; ++pass) {
            const bool coalesce = pass % 2 == 1;
            const std::string tag =
                (coalesce ? "coal" : "solo") + std::to_string(pass / 2);
            serve::ServiceConfig cfg;
            cfg.cacheDir = (dir / ("store_" + tag)).string();
            if (coalesce) {
                cfg.coalesceLanes = co_lanes;
                cfg.coalesceWaitMs = double(co_wait_ms);
            }
            serve::ExperimentService svc(cfg);
            serve::ServerConfig scfg;
            scfg.unixPath = (dir / (tag + ".sock")).string();
            serve::LineServer srv(svc, scfg);
            srv.start();

            std::vector<std::thread> cold_pool;
            std::vector<int> cold_fails(size_t(co_clients), 0);
            const auto c0 = std::chrono::steady_clock::now();
            for (int c = 0; c < co_clients; ++c) {
                cold_pool.emplace_back([&, c] {
                    serve::Client cl =
                        serve::Client::connectUnix(scfg.unixPath);
                    for (int i = 0; i < co_requests; ++i) {
                        const std::string line = coldBatchLine(c, i);
                        serve::Client::Response r =
                            cl.request("RUN " + line);
                        std::lock_guard<std::mutex> lk(bytes_mutex);
                        if (!r.ok) {
                            ++cold_fails[size_t(c)];
                        } else if (pass == 0) {
                            solo_bytes[line] = r.payload;
                        } else {
                            auto it = solo_bytes.find(line);
                            if (it == solo_bytes.end() ||
                                it->second != r.payload)
                                ++cold_fails[size_t(c)];
                        }
                    }
                });
            }
            for (auto &t : cold_pool)
                t.join();
            const double wall_s = std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() -
                                      c0)
                                      .count();
            (coalesce ? coal_walls : solo_walls).push_back(wall_s);
            for (int f : cold_fails)
                failed += f;

            std::printf("cold %s (pass %d of %d): %zu batch=%d specs, %d "
                        "clients, %d workers in %.2f s -> %.1f specs/s\n",
                        coalesce ? "coalesced" : "solo", pass / 2 + 1,
                        kPasses, co_total, co_lanes, co_clients,
                        svc.threads(), wall_s, double(co_total) / wall_s);
            serve::Client admin =
                serve::Client::connectUnix(scfg.unixPath);
            serve::Client::Response stats = admin.request("STATS");
            if (coalesce && stats.ok)
                std::fputs(stats.payload.c_str(), stdout);
            admin.request("SHUTDOWN");
            srv.stop();
        }
    }
    auto median = [](std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v.empty() ? 0.0 : v[v.size() / 2];
    };
    const double solo_s = median(solo_walls);
    const double coal_s = median(coal_walls);
    if (co_lanes >= 2)
        std::printf("coalesce speedup: %.2fx at %d workers (median of %d "
                    "passes per side)\n",
                    solo_s / coal_s, service.threads(), kPasses);

    std::error_code ec;
    fs::remove_all(dir, ec);

    if (failed != 0) {
        std::fprintf(stderr, "FAILED: %d responses wrong or missing\n",
                     failed);
        return 1;
    }

    if (!out_path.empty()) {
        std::vector<BenchEntry> entries;
        BenchEntry cold;
        cold.name = "BM_ServeColdWarmup";
        cold.iterations = int64_t(hot.size());
        cold.realTimeNs = cold_s * 1e9 / double(hot.size());
        cold.counters = {{"specs_per_s", double(hot.size()) / cold_s}};
        entries.push_back(std::move(cold));

        BenchEntry mixed;
        mixed.name = "BM_ServeMixed";
        mixed.iterations = int64_t(total);
        mixed.realTimeNs = wall * 1e9 / double(total);
        mixed.counters = {{"specs_per_s", double(total) / wall},
                          {"clients", double(clients)},
                          {"hot_pct", double(hot_pct)},
                          {"latency_p50_ms", p50},
                          {"latency_p95_ms", p95},
                          {"latency_p99_ms", p99}};
        entries.push_back(std::move(mixed));

        if (co_lanes >= 2) {
            BenchEntry solo;
            solo.name = "BM_ServeColdSolo";
            solo.iterations = int64_t(co_total);
            solo.realTimeNs = solo_s * 1e9 / double(co_total);
            solo.counters = {{"specs_per_s", double(co_total) / solo_s},
                             {"clients", double(co_clients)},
                             {"lanes", double(co_lanes)}};
            entries.push_back(std::move(solo));

            BenchEntry coal;
            coal.name = "BM_ServeColdCoalesced";
            coal.iterations = int64_t(co_total);
            coal.realTimeNs = coal_s * 1e9 / double(co_total);
            coal.counters = {{"specs_per_s", double(co_total) / coal_s},
                             {"clients", double(co_clients)},
                             {"lanes", double(co_lanes)},
                             {"coalesce_speedup", solo_s / coal_s}};
            entries.push_back(std::move(coal));
        }

        std::vector<BenchEntry> kept;
        const std::regex re(filter);
        for (BenchEntry &e : entries)
            if (std::regex_search(e.name, re))
                kept.push_back(std::move(e));
        if (!writeBenchJson(out_path, service.threads(), kept)) {
            std::fprintf(stderr, "bench_serve: cannot write '%s'\n",
                         out_path.c_str());
            return 2;
        }
        std::printf("wrote %zu benchmark entr%s to %s\n", kept.size(),
                    kept.size() == 1 ? "y" : "ies", out_path.c_str());
    }
    return 0;
}
