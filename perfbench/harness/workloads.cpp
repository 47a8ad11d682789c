/**
 * @file
 * The four perfbench workloads.  Each generates its experiments as
 * spec text from the seed, hands the program only that text, and
 * measures from outside through the public API:
 *
 *   year-scalar     sim::runExperiment on one thread: All-ND, task-level
 *                   Facebook workload, the §5.1 weekly protocol (every
 *                   fourth week) at the five named sites (the bit-exact
 *                   oracle path).
 *   sweep-batched   ExperimentRunner over a world-grid slice x {Baseline,
 *                   All-ND}, utilization-profile workload, 26 weeks at a
 *                   120 s step, batch=8, a fresh result store each round
 *                   (the Fig 12/13 shape on the lane-batched engine).
 *   serve-coalesce  an in-process LineServer with --coalesce 16 and four
 *                   workers; two connections keep 8 SUBMITs each in
 *                   flight (a closed loop) of cold batch=16 All-ND 7-day
 *                   range specs (the coalescing scheduler).
 *   sweep-warm      ExperimentRunner re-running a sweep whose every
 *                   result is already in the store (the read path).
 */

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "environment/location.hpp"
#include "environment/world_grid.hpp"
#include "layers.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/batch_engine.hpp"
#include "sim/result_cache.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "sim/spec_io.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace sim = coolair::sim;
namespace obs = coolair::obs;
namespace env = coolair::environment;
namespace serve = coolair::serve;
namespace fs = std::filesystem;

namespace {

/**
 * Runner workers of the two sweeps.  On a 4-vCPU KVM guest, a second
 * busy thread drew 5-11 s of hypervisor steal per 15 s run against
 * about 1 s with one, and widened the run-to-run spread of specs_per_s
 * from 0.02 to 0.16 (sweep-warm) and from 0.06 to 0.13 (sweep-batched)
 * in alternating A/B runs.  One worker keeps the gate steady; the
 * runner code path (pool, planner, store) is the same at any count.
 */
constexpr int kSweepWorkers = 1;

double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1e3;
}

/** Counters and histogram means of a registry, by name. */
std::map<std::string, double>
statValues(const obs::StatsRegistry &reg)
{
    std::map<std::string, double> out;
    for (const auto &e : reg.snapshot()) {
        switch (e.kind) {
          case obs::StatKind::Counter:
            out[e.name] = double(e.counterValue);
            break;
          case obs::StatKind::Gauge:
            out[e.name] = e.gaugeValue;
            break;
          case obs::StatKind::Histogram:
            out[e.name + "::count"] = double(e.histogram.count);
            out[e.name + "::mean"] = e.histogram.mean();
            break;
        }
    }
    return out;
}

/** `name value ...` lines of a STATS frame, by name. */
std::map<std::string, double>
parseStatsText(const std::string &text)
{
    std::map<std::string, double> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string name, value;
        if (!(ls >> name >> value) || name.find('.') == std::string::npos)
            continue;
        char *end = nullptr;
        const double v = std::strtod(value.c_str(), &end);
        if (*end == '\0')
            out[name] = v;
    }
    return out;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** @p name's value in @p values, 0 when absent. */
double
valueOf(const std::map<std::string, double> &values, const std::string &name)
{
    auto it = values.find(name);
    return it == values.end() ? 0.0 : it->second;
}

/** One complete event of a Chrome trace-event document. */
struct SpanEvent
{
    std::string name;
    double durUs = 0.0;
};

/** The "ph": "X" events of a document written by obs (one per line). */
std::vector<SpanEvent>
parseSpans(const std::string &json)
{
    std::vector<SpanEvent> spans;
    std::istringstream is(json);
    std::string line;
    while (std::getline(is, line)) {
        if (line.find("\"ph\": \"X\"") == std::string::npos)
            continue;
        const std::string key = "{\"name\": \"";
        const size_t at = line.find(key);
        if (at == std::string::npos)
            continue;
        const size_t end = line.find('"', at + key.size());
        const size_t dur = line.find("\"dur\": ");
        if (end == std::string::npos || dur == std::string::npos)
            continue;
        spans.push_back({line.substr(at + key.size(), end - at - key.size()),
                         std::strtod(line.c_str() + dur + 7, nullptr)});
    }
    return spans;
}

/**
 * A strided slice of the world grid ordered by latitude: every
 * (size / count)-th site from a seed-chosen offset, so each seed draws
 * the same spread of climates and the work per round hardly depends on
 * the seed.
 */
std::vector<env::Location>
worldSlice(uint64_t seed, const char *stream, size_t count)
{
    static const std::vector<env::Location> grid = [] {
        std::vector<env::Location> g = env::worldGrid();
        std::stable_sort(g.begin(), g.end(), [](const auto &a, const auto &b) {
            return a.latitude < b.latitude;
        });
        return g;
    }();
    const size_t stride = std::max<size_t>(1, grid.size() / count);
    coolair::util::Rng rng(seed, stream);
    size_t at = size_t(rng.uniformInt(0, int64_t(stride) - 1));
    std::vector<env::Location> sites;
    for (; sites.size() < count && at < grid.size(); at += stride)
        sites.push_back(grid[at]);
    return sites;
}

std::vector<sim::ExperimentSpec>
parseAll(const std::vector<std::string> &texts)
{
    std::vector<sim::ExperimentSpec> specs;
    specs.reserve(texts.size());
    for (const std::string &t : texts)
        specs.push_back(sim::parseSpec(serve::specTextFromArg(t)));
    return specs;
}

double
prewarm(const std::vector<sim::ExperimentSpec> &specs)
{
    const auto t0 = Clock::now();
    sim::prewarmSharedState(specs);
    return secondsSince(t0);
}

/**
 * Per-call cost of the spec_io and result-cache identity layers over
 * a workload's own specs and results, timed from outside [us].
 */
void
identityProbes(const std::vector<sim::ExperimentSpec> &specs,
               const std::vector<std::string> &payloads, LayerMetrics &out)
{
    auto perCallUs = [](size_t n, auto &&fn) {
        size_t calls = 0;
        const auto t0 = Clock::now();
        do {
            for (size_t i = 0; i < n; ++i)
                fn(i);
            calls += n;
        } while (secondsSince(t0) < 0.02);
        return secondsSince(t0) * 1e6 / double(calls);
    };
    std::vector<std::string> results;
    for (const std::string &p : payloads)
        if (!p.empty())
            results.push_back(p);
    out["sim.result_cache_id_us"] = perCallUs(
        specs.size(), [&](size_t i) { (void)sim::resultCacheId(specs[i]); });
    if (!results.empty())
        out["sim.parse_result_us"] = perCallUs(results.size(), [&](size_t i) {
            (void)sim::parseResult(results[i]);
        });
}

/** Mean ResultStore::lookup cost over @p specs against @p dir [us]. */
double
storeLookupUs(const std::string &dir,
              const std::vector<sim::ExperimentSpec> &specs)
{
    coolair::store::ResultStore st = sim::openResultStore(dir);
    std::vector<std::string> ids;
    for (const auto &s : specs)
        ids.push_back(sim::resultCacheId(s));
    std::string payload;
    size_t calls = 0;
    const auto t0 = Clock::now();
    do {
        for (const std::string &id : ids)
            st.lookup(id, payload);
        calls += ids.size();
    } while (secondsSince(t0) < 0.02);
    return secondsSince(t0) * 1e6 / double(calls);
}

/** One chunk through BatchedEngine, constructor and run() timed. */
struct ChunkProbe
{
    double ctorMs = 0.0;
    double runMs = 0.0;
    std::vector<std::string> payloads;  ///< "" for a failed lane

    ChunkProbe() = default;
    ChunkProbe(const std::vector<sim::ExperimentSpec> &specs, int width)
    {
        const auto t0 = Clock::now();
        sim::BatchedEngine engine(specs, width);
        ctorMs = msSince(t0);
        const auto t1 = Clock::now();
        std::vector<sim::LaneResult> lanes = engine.run();
        runMs = msSince(t1);
        for (const auto &lane : lanes)
            payloads.push_back(lane.ok ? sim::formatResult(lane.result)
                                       : std::string());
    }
};

/** core.* and environment cache ratios from harvested obs counters. */
void
fillCoreMetrics(const std::map<std::string, double> &v, double rounds,
                LayerMetrics &out)
{
    auto get = [&v](const std::string &name) { return valueOf(v, name); };
    const double rollouts = get("predictor.rollouts");
    out["core.rollouts"] = rollouts / rounds;
    out["core.rollout_abandon_ratio"] =
        ratio(get("predictor.rollouts_abandoned"), rollouts);
    out["core.candidates_per_epoch"] =
        ratio(get("optimizer.candidates"), get("optimizer.epochs"));
    const double resolveHits = get("predictor.resolve_hits");
    out["core.resolve_hit_ratio"] =
        ratio(resolveHits, resolveHits + get("predictor.resolve_misses"));
    const double hits = get("weather.cache.hits");
    out["environment.weather_cache_hit_ratio"] =
        ratio(hits, hits + get("weather.cache.misses") +
                        get("weather.cache.passthrough"));
}

/** Global obs counters and runner job spans over the traced rounds. */
class SweepTrace
{
  public:
    void begin()
    {
        obs::setEnabled(true);
        obs::Tracer::instance().clear();
        obs::Tracer::instance().setEnabled(true);
    }

    /** Collect this round's runner job spans and reset the tracer. */
    void end(double wall_s, int workers)
    {
        obs::Tracer &tracer = obs::Tracer::instance();
        tracer.setEnabled(false);
        std::ostringstream os;
        tracer.writeJson(os);
        tracer.clear();
        double busyMs = 0.0;
        for (const SpanEvent &e : parseSpans(os.str())) {
            if (e.name.rfind("experiments #", 0) != 0)
                continue;
            jobMs.push_back(e.durUs / 1e3);
            busyMs += e.durUs / 1e3;
        }
        idle.push_back(1.0 - busyMs / (wall_s * 1e3 * workers));
        wallMs.push_back(wall_s * 1e3);
        obs::setEnabled(false);
        ++rounds;
    }

    /** Layer metrics common to both runner workloads. */
    void fill(LayerMetrics &out) const
    {
        if (rounds == 0)
            return;
        const auto v = statValues(obs::registry());
        auto get = [&v](const std::string &name) { return valueOf(v, name); };
        const double n = double(rounds);
        out["sim.runner_jobs"] = double(jobMs.size()) / n;
        out["sim.runner_job_ms_p50"] = quantile(jobMs, 0.50);
        out["sim.runner_job_ms_p95"] = quantile(jobMs, 0.95);
        out["sim.runner_idle_frac"] = median(idle);

        const double lookups = get("store.lookups");
        out["store.lookups"] = lookups / n;
        out["store.hit_ratio"] = ratio(get("store.hits"), lookups);
        out["store.bytes_read"] = get("store.bytes_read") / n;
        out["store.stores"] = get("store.stores") / n;
        out["store.bytes_written"] = get("store.bytes_written") / n;

        out["sim.batch_lanes_stepped"] = get("batch.lanes_stepped") / n;
        out["sim.batch_ragged_tail_lanes"] =
            get("batch.ragged_tail_lanes") / n;
        out["sim.engine_steps"] = get("engine.steps") / n;
        out["sim.controller_epochs"] = get("engine.control_epochs") / n;
        fillCoreMetrics(v, n, out);

        // Pool jobs cover the runner's parallel phases; the rest of the
        // round is its serial bookkeeping plus idle workers.
        double jobSum = 0.0, wallSum = 0.0;
        for (double ms : jobMs)
            jobSum += ms;
        for (double ms : wallMs)
            wallSum += ms;
        const double wall = wallSum / n;
        const double explained = jobSum / n / double(workers);
        out["ledger.remainder_ms"] = wall - explained;
        out["ledger.remainder_pct"] = 100.0 * (wall - explained) / wall;
    }

    int workers = 1;
    int rounds = 0;
    std::vector<double> jobMs, idle, wallMs;
};

// ---------------------------------------------------------------------------
// year-scalar
// ---------------------------------------------------------------------------

class YearScalar : public Workload
{
  public:
    /**
     * Every fourth week of the §5.1 protocol, so every season.  The full
     * 52 weeks make 3.3 s rounds, only six a run, each longer than the
     * host's slow phases; 13 weeks make rounds short enough that the
     * fastest one misses them.
     */
    static constexpr int kWeeks = 13;

    explicit YearScalar(uint64_t seed)
    {
        size_t i = 0;
        for (env::NamedSite site : env::allNamedSites()) {
            sim::ExperimentSpec spec;
            spec.location = env::namedLocation(site);
            spec.system = sim::SystemId::AllNd;
            spec.workload = sim::WorkloadKind::Facebook;
            spec.runKind = sim::RunKind::YearWeekly;
            spec.weeks = kWeeks;
            spec.seed = sim::ExperimentRunner::deriveSeed(
                seed, i++, env::siteName(site));
            _texts.push_back(specLine(sim::formatSpec(spec)));
        }
    }

    void setup() override
    {
        _specs = parseAll(_texts);
        learnSeconds = prewarm(_specs);
    }

    Round round() override
    {
        Round r;
        const auto t0 = Clock::now();
        for (const auto &spec : _specs) {
            const auto s0 = Clock::now();
            r.payloads.push_back(sim::formatResult(sim::runExperiment(spec)));
            r.latencyMs.push_back(msSince(s0));
        }
        r.wallS = secondsSince(t0);
        return r;
    }

    Round tracedRound() override
    {
        Round r;
        const auto t0 = Clock::now();
        for (const auto &spec : _specs) {
            const auto s0 = Clock::now();
            r.payloads.push_back(sim::formatResult(runTraced(spec)));
            r.latencyMs.push_back(msSince(s0));
        }
        r.wallS = secondsSince(t0);
        _wallMs.push_back(r.wallS * 1e3);
        _lastPayloads = r.payloads;
        return r;
    }

    void layerMetrics(LayerMetrics &out) override
    {
        if (_wallMs.empty())
            return;
        const TimerCost cost = measureTimerCost();
        const double n = double(_wallMs.size());
        const double weather = _weather.trueMs(cost);
        const double workload = _workload.trueMs(cost);
        const double controller = _controller.trueMs(cost);
        const double calls =
            double(_weather.calls + _workload.calls + _controller.calls);
        const double timerMs = calls * cost.pairNs / 1e6;
        const double engineSelf =
            _engineMs - weather - workload - controller - timerMs;

        out["environment.weather_calls"] = double(_weather.calls) / n;
        out["environment.weather_ms"] = weather / n;
        out["workload.step_calls"] = double(_stepCalls) / n;
        out["workload.ms"] = workload / n;
        out["sim.controller_ms"] = controller / n;
        out["sim.engine_steps"] = double(_engineSteps) / n;
        out["sim.controller_epochs"] = double(_engineEpochs) / n;
        out["sim.engine_self_ms"] = engineSelf / n;
        out["sim.scenario_build_ms"] = _buildMs / n;
        fillCoreMetrics(statValues(_stats), n, out);

        double wall = 0.0;
        for (double ms : _wallMs)
            wall += ms;
        // Everything timed: build + engine (its layers, its own loop,
        // and the clock reads).  The remainder is the per-spec glue.
        const double remainder = (wall - _buildMs - _engineMs) / n;
        out["ledger.remainder_ms"] = remainder;
        out["ledger.remainder_pct"] = 100.0 * remainder * n / wall;
        std::fprintf(stderr,
                     "ledger per round [ms]: build %.1f weather %.1f "
                     "workload %.1f controller %.1f engine-self %.1f "
                     "timer %.1f remainder %.1f of %.1f\n",
                     _buildMs / n, weather / n, workload / n,
                     controller / n, engineSelf / n, timerMs / n,
                     remainder, wall / n);
        identityProbes(_specs, _lastPayloads, out);
    }

    void verify(const std::vector<std::string> &, Tally &) override {}

    const std::vector<std::string> &specTexts() const override
    {
        return _texts;
    }
    RefCompare refCompare() const override { return RefCompare::Exact; }
    int workers() const override { return 1; }

  private:
    /** The scenario's stack, driven by an engine over timed decorators
        (the same assembly ScenarioBuilder wires). */
    sim::ExperimentResult runTraced(const sim::ExperimentSpec &spec)
    {
        const auto b0 = Clock::now();
        std::unique_ptr<sim::Scenario> sc = sim::ScenarioBuilder(spec).build();
        _buildMs += msSince(b0);

        TimedWeather weather(sc->weather(), _weather);
        TimedWorkload workload(sc->workload(), _workload, _stepCalls);
        TimedController controller(sc->controller(), _controller);
        sim::EngineConfig ec;
        ec.physicsStepS = spec.physicsStepS;
        ec.sampleIntervalS =
            std::max<int64_t>(60, int64_t(spec.physicsStepS));
        sim::Engine engine(sc->plant(), workload, controller, weather, ec);
        engine.setMetrics(&sc->metrics());

        const auto e0 = Clock::now();
        switch (spec.runKind) {
          case sim::RunKind::YearWeekly:
            engine.runYearWeekly(spec.weeks);
            break;
          case sim::RunKind::SingleDay:
            engine.runDay(spec.day);
            break;
          case sim::RunKind::DayRange:
            engine.runDayRange(spec.startDay, spec.endDay);
            break;
        }
        _engineMs += msSince(e0);

        sim::ExperimentResult result;
        result.system = sc->metrics().summary();
        result.outside = sc->metrics().outsideSummary();
        const sim::Engine::EngineStats es = engine.stats();
        _engineSteps += es.steps;
        _engineEpochs += es.controlEpochs;
        sc->collectStats(_stats);
        return result;
    }

    std::vector<std::string> _texts;
    std::vector<sim::ExperimentSpec> _specs;
    std::vector<std::string> _lastPayloads;

    LayerClock _weather, _workload, _controller;
    int64_t _stepCalls = 0, _engineSteps = 0, _engineEpochs = 0;
    double _buildMs = 0.0, _engineMs = 0.0;
    std::vector<double> _wallMs;
    obs::StatsRegistry _stats;
};

// ---------------------------------------------------------------------------
// sweep-batched
// ---------------------------------------------------------------------------

class SweepBatched : public Workload
{
  public:
    static constexpr size_t kSites = 32;
    static constexpr int kBatch = 8;
    static constexpr int kWorkers = kSweepWorkers;

    explicit SweepBatched(uint64_t seed)
    {
        const auto sites = worldSlice(seed, "sweep-batched", kSites);
        for (size_t i = 0; i < sites.size(); ++i) {
            sim::ExperimentSpec spec;
            spec.location = sites[i];
            spec.workload = sim::WorkloadKind::FacebookProfile;
            spec.weeks = 26;
            spec.physicsStepS = 120.0;
            spec.batch = kBatch;
            spec.seed =
                sim::ExperimentRunner::deriveSeed(seed, i, sites[i].name);
            for (sim::SystemId system :
                 {sim::SystemId::Baseline, sim::SystemId::AllNd}) {
                spec.system = system;
                _texts.push_back(specLine(sim::formatSpec(spec)));
            }
        }
    }

    ~SweepBatched() override
    {
        std::error_code ec;
        fs::remove_all(_dir, ec);
    }

    void setup() override
    {
        _specs = parseAll(_texts);
        learnSeconds = prewarm(_specs);
        _trace.workers = workers();
    }

    Round round() override { return run(false); }
    Round tracedRound() override { return run(true); }

    void layerMetrics(LayerMetrics &out) override
    {
        _trace.fill(out);
        const auto v = statValues(obs::registry());
        auto get = [&v](const std::string &name) { return valueOf(v, name); };
        out["sim.batch_lane_fill"] = ratio(
            double(_specs.size()) * double(_trace.rounds),
            get("batch.batches_executed") * kBatch);
        out["sim.batch_ctor_ms"] = _probe.ctorMs;
        out["sim.batch_run_ms"] = _probe.runMs;
        out["store.lookup_us"] = storeLookupUs(_dir, _specs);
        identityProbes(_specs, _lastPayloads, out);
    }

    void verify(const std::vector<std::string> &payloads,
                Tally &tally) override
    {
        // The runner chunks each shape group in spec order, so the
        // first All-ND chunk (odd indices) is one lane set; the same
        // set through BatchedEngine from outside must match bit for bit.
        std::vector<sim::ExperimentSpec> chunk;
        std::vector<size_t> index;
        for (size_t i = 1; i < _specs.size() && chunk.size() < kBatch;
             i += 2) {
            chunk.push_back(_specs[i]);
            index.push_back(i);
        }
        _probe = ChunkProbe(chunk, kBatch);
        tally.attempted += chunk.size();
        for (size_t l = 0; l < chunk.size(); ++l)
            if (_probe.payloads[l] != payloads[index[l]])
                tally.fail("spec " + std::to_string(index[l]) +
                           ": BatchedEngine chunk differs from the sweep");
    }

    const std::vector<std::string> &specTexts() const override
    {
        return _texts;
    }
    RefCompare refCompare() const override { return RefCompare::Tolerance; }
    int workers() const override { return benchWorkers(kWorkers); }

  private:
    Round run(bool traced)
    {
        // A fresh store each round: the last round's is removed first,
        // outside the timed region.
        std::error_code ec;
        fs::remove_all(_dir, ec);
        _dir = "sweep-store-" + std::to_string(_round++);
        for (auto &spec : _specs)
            spec.cacheDirPath = _dir;

        sim::RunnerConfig rc;
        rc.threads = workers();
        const sim::ExperimentRunner runner(rc);
        if (traced)
            _trace.begin();
        Round r;
        const auto t0 = Clock::now();
        const sim::SweepOutcome outcome = runner.run(_specs);
        r.wallS = secondsSince(t0);
        r.latencyMs.push_back(r.wallS * 1e3);
        if (traced)
            _trace.end(r.wallS, workers());
        for (size_t i = 0; i < _specs.size(); ++i) {
            if (outcome.ok(i)) {
                r.payloads.push_back(sim::formatResult(outcome.results[i]));
            } else {
                r.payloads.emplace_back();
                ++r.errors;
            }
        }
        _lastPayloads = r.payloads;
        return r;
    }

    std::vector<std::string> _texts;
    std::vector<sim::ExperimentSpec> _specs;
    std::vector<std::string> _lastPayloads;
    std::string _dir;
    int _round = 0;
    SweepTrace _trace;
    ChunkProbe _probe;
};

// ---------------------------------------------------------------------------
// serve-coalesce
// ---------------------------------------------------------------------------

class ServeCoalesce : public Workload
{
  public:
    static constexpr size_t kRequests = 64;     ///< per round
    static constexpr size_t kConnections = 2;
    static constexpr size_t kOutstanding = 8;   ///< per connection
    static constexpr int kLanes = 16;
    static constexpr int kWorkers = 4;
    /**
     * Collection window, not the daemon's 5 ms default.  A closed-loop
     * wave of 16 took up to 8-23 ms to fill (the first request's
     * serve.park span), so at 5 ms some dispatches go out partial, and
     * a partial lane set whose size is not a multiple of 4 changes
     * result bytes in the last digits — which fails the round-to-round
     * identity check.  At 200 ms every dispatch is full.
     */
    static constexpr double kWaitMs = 200.0;

    explicit ServeCoalesce(uint64_t seed)
    {
        const auto sites = worldSlice(seed, "serve-coalesce", kRequests);
        const int start = 182;
        for (size_t i = 0; i < sites.size(); ++i) {
            sim::ExperimentSpec spec;
            spec.location = sites[i];
            spec.system = sim::SystemId::AllNd;
            spec.workload = sim::WorkloadKind::FacebookProfile;
            spec.runKind = sim::RunKind::DayRange;
            spec.startDay = start;
            spec.endDay = start + 7;
            spec.physicsStepS = 120.0;
            spec.batch = kLanes;
            spec.seed =
                sim::ExperimentRunner::deriveSeed(seed, i, sites[i].name);
            _texts.push_back(specLine(sim::formatSpec(spec)));
        }
    }

    ~ServeCoalesce() override
    {
        for (Stack *s : {&_plain, &_traced})
            s->stop();
        std::error_code ec;
        fs::remove_all("serve-store", ec);
        fs::remove_all("serve-store-traced", ec);
    }

    void setup() override
    {
        // The program sees only the spec lines; parsing here serves the
        // store bookkeeping between rounds and the prewarm.
        _specs = parseAll(_texts);
        for (const auto &s : _specs)
            _ids.push_back(sim::resultCacheId(s));
        learnSeconds = prewarm(_specs);
        _plain.start("serve-store", "serve.sock", 0);
    }

    Round round() override { return run(_plain, false); }

    Round tracedRound() override
    {
        if (!_traced.service) {
            _traced.start("serve-store-traced", "serve-traced.sock",
                          int(kRequests));
            obs::registry().clear();
        }
        obs::setEnabled(true);
        Round r = run(_traced, true);
        obs::setEnabled(false);
        return r;
    }

    void layerMetrics(LayerMetrics &out) override
    {
        if (_tracedRounds == 0)
            return;
        const double n = double(_tracedRounds);
        const auto stats = parseStatsText(
            _traced.clients[0].request("STATS").payload);
        auto get = [&stats](const std::string &name) {
            return valueOf(stats, name);
        };
        const auto health = _traced.clients[0].request("HEALTH").payload;
        double workers = double(this->workers());
        const size_t at = health.find("workers: ");
        if (at != std::string::npos)
            workers = std::strtod(health.c_str() + at + 9, nullptr);

        out["serve.runs"] = get("serve.runs") / n;
        out["serve.full_dispatches"] =
            get("serve.coalesce_full_dispatches") / n;
        out["serve.partial_dispatches"] =
            get("serve.coalesce_partial_dispatches") / n;
        out["serve.lane_fill_mean"] = get("serve.lane_fill::mean");
        const double serverMs = get("serve.latency_seconds::mean") * 1e3;
        out["serve.server_latency_ms"] = serverMs;
        double clientMs = 0.0;
        for (double ms : _tracedLatencyMs)
            clientMs += ms;
        clientMs /= double(std::max<size_t>(1, _tracedLatencyMs.size()));
        out["serve.wire_ms"] = clientMs - serverMs;

        double park = 0, dispatch = 0, lane = 0, batchRun = 0;
        size_t requests = 0, batches = 0;
        for (const std::string &doc : _traceDocs) {
            ++requests;
            for (const SpanEvent &e : parseSpans(doc)) {
                if (e.name == "serve.park")
                    park += e.durUs / 1e3;
                else if (e.name == "serve.batch_dispatch")
                    dispatch += e.durUs / 1e3;
                else if (e.name == "serve.lane")
                    lane += e.durUs / 1e3;
                else if (e.name == "serve.batch_run") {
                    batchRun += e.durUs / 1e3;
                    ++batches;
                }
            }
        }
        const double perReq = double(std::max<size_t>(1, requests));
        out["serve.park_ms"] = park / perReq;
        out["serve.batch_run_ms"] =
            batchRun / double(std::max<size_t>(1, batches));
        double wall = 0.0;
        for (double w : _tracedWallMs)
            wall += w;
        out["serve.worker_busy_frac"] = batchRun / (wall * workers);
        // Server latency = park + wait for a worker + the lane's run +
        // completion; what the spans do not cover is the remainder.
        const double covered = (park + dispatch + lane) / perReq;
        out["ledger.remainder_ms"] = serverMs - covered;
        out["ledger.remainder_pct"] = 100.0 * (serverMs - covered) / clientMs;
        std::fprintf(stderr,
                     "ledger per request [ms]: park %.2f dispatch-wait %.2f "
                     "lane %.2f rest %.2f wire %.2f of %.2f\n",
                     park / perReq, dispatch / perReq, lane / perReq,
                     serverMs - covered, clientMs - serverMs, clientMs);

        const auto v = statValues(obs::registry());
        auto reg = [&v](const std::string &name) { return valueOf(v, name); };
        out["sim.batch_lanes_stepped"] = reg("batch.lanes_stepped") / n;
        out["sim.batch_ragged_tail_lanes"] = reg("batch.ragged_tail_lanes") / n;
        out["sim.batch_lane_fill"] = ratio(
            double(kRequests) * n, reg("batch.batches_executed") * kLanes);
        out["sim.engine_steps"] = reg("engine.steps") / n;
        out["sim.controller_epochs"] = reg("engine.control_epochs") / n;
        fillCoreMetrics(v, n, out);
        out["sim.batch_ctor_ms"] = _probe.ctorMs;
        out["sim.batch_run_ms"] = _probe.runMs;

        const double lookups = get("store.lookups");
        out["store.lookups"] = lookups / n;
        out["store.hit_ratio"] = ratio(get("store.hits"), lookups);
        out["store.bytes_read"] = get("store.bytes_read") / n;
        out["store.stores"] = get("store.stores") / n;
        out["store.bytes_written"] = get("store.bytes_written") / n;
        out["store.lookup_us"] = storeLookupUs("serve-store-traced", _specs);
        identityProbes(_specs, _lastPayloads, out);
    }

    void verify(const std::vector<std::string> &payloads,
                Tally &tally) override
    {
        // The same specs in process, one BatchedEngine per wave of 16.
        // Lane results do not depend on the lane set (DESIGN.md §12), so
        // served payloads must match byte for byte.
        for (size_t at = 0; at < _specs.size(); at += kLanes) {
            std::vector<sim::ExperimentSpec> chunk(
                _specs.begin() + at,
                _specs.begin() + std::min(at + kLanes, _specs.size()));
            ChunkProbe probe(chunk, kLanes);
            if (at == 0)
                _probe = probe;
            tally.attempted += chunk.size();
            for (size_t l = 0; l < chunk.size(); ++l)
                if (probe.payloads[l] != payloads[at + l])
                    tally.fail("spec " + std::to_string(at + l) +
                               ": served result differs from the "
                               "in-process run");
        }
    }

    const std::vector<std::string> &specTexts() const override
    {
        return _texts;
    }
    RefCompare refCompare() const override { return RefCompare::Tolerance; }
    int workers() const override { return benchWorkers(kWorkers); }

  private:
    /** A service, its socket server, and the client connections. */
    struct Stack
    {
        std::unique_ptr<serve::ExperimentService> service;
        std::unique_ptr<serve::LineServer> server;
        std::vector<serve::Client> clients;

        void start(const std::string &dir, const std::string &sock,
                   int trace_depth)
        {
            serve::ServiceConfig cfg;
            cfg.cacheDir = dir;
            cfg.threads = benchWorkers(kWorkers);
            cfg.coalesceLanes = kLanes;
            cfg.coalesceWaitMs = kWaitMs;
            cfg.traceDepth = trace_depth;
            service = std::make_unique<serve::ExperimentService>(cfg);
            serve::ServerConfig sc;
            sc.unixPath = sock;
            server = std::make_unique<serve::LineServer>(*service, sc);
            server->start();
            for (size_t c = 0; c < kConnections; ++c)
                clients.push_back(serve::Client::connectUnix(sock));
        }

        void stop()
        {
            clients.clear();
            if (server)
                server->stop();
            server.reset();
            service.reset();
        }
    };

    Round run(Stack &stack, bool traced)
    {
        // Every round re-submits the same specs cold: their store
        // entries are dropped first, outside the timed region.
        for (const std::string &id : _ids)
            stack.service->store()->discard(id);

        Round r;
        r.payloads.assign(_texts.size(), std::string());
        std::vector<double> latency(_texts.size(), 0.0);
        std::vector<uint64_t> tickets(_texts.size(), 0);

        auto connection = [&](size_t c) {
            serve::Client &client = stack.clients[c];
            std::vector<size_t> mine;
            for (size_t i = c; i < _texts.size(); i += kConnections)
                mine.push_back(i);
            std::vector<Clock::time_point> sent(_texts.size());
            size_t next = 0, done = 0;
            auto submit = [&] {
                const size_t i = mine[next++];
                sent[i] = Clock::now();
                if (!client.submit(_texts[i], tickets[i]).ok)
                    tickets[i] = 0;
            };
            while (next < mine.size() && next < kOutstanding)
                submit();
            while (done < mine.size()) {
                const size_t i = mine[done++];
                if (tickets[i] != 0) {
                    serve::Client::Response resp =
                        client.request("WAIT " + std::to_string(tickets[i]));
                    latency[i] = msSince(sent[i]);
                    if (resp.ok)
                        r.payloads[i] = std::move(resp.payload);
                }
                if (next < mine.size())
                    submit();
            }
        };

        const auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (size_t c = 0; c < kConnections; ++c)
            threads.emplace_back(connection, c);
        for (auto &t : threads)
            t.join();
        r.wallS = secondsSince(t0);

        for (size_t i = 0; i < _texts.size(); ++i) {
            if (r.payloads[i].empty())
                ++r.errors;
            else
                r.latencyMs.push_back(latency[i]);
        }
        if (traced) {
            ++_tracedRounds;
            _tracedWallMs.push_back(r.wallS * 1e3);
            _tracedLatencyMs.insert(_tracedLatencyMs.end(),
                                    r.latencyMs.begin(), r.latencyMs.end());
            for (uint64_t t : tickets)
                if (t != 0)
                    _traceDocs.push_back(
                        stack.clients[0]
                            .request("TRACE " + std::to_string(t))
                            .payload);
        }
        _lastPayloads = r.payloads;
        return r;
    }

    std::vector<std::string> _texts;
    std::vector<sim::ExperimentSpec> _specs;
    std::vector<std::string> _ids;
    std::vector<std::string> _lastPayloads;
    Stack _plain, _traced;
    int _tracedRounds = 0;
    std::vector<double> _tracedWallMs, _tracedLatencyMs;
    std::vector<std::string> _traceDocs;
    ChunkProbe _probe;
};

// ---------------------------------------------------------------------------
// sweep-warm
// ---------------------------------------------------------------------------

class SweepWarm : public Workload
{
  public:
    static constexpr const char *kDir = "warm-store";
    static constexpr int kWorkers = kSweepWorkers;

    static constexpr size_t kSites = 760;
    static constexpr int kBatch = 8;

    explicit SweepWarm(uint64_t seed)
    {
        const auto sites = worldSlice(seed, "sweep-warm", kSites);
        for (size_t i = 0; i < sites.size(); ++i) {
            sim::ExperimentSpec spec;
            spec.location = sites[i];
            spec.workload = sim::WorkloadKind::FacebookProfile;
            spec.runKind = sim::RunKind::SingleDay;
            spec.physicsStepS = 120.0;
            spec.batch = kBatch;
            spec.cacheDirPath = kDir;
            spec.seed =
                sim::ExperimentRunner::deriveSeed(seed, i, sites[i].name);
            for (sim::SystemId system :
                 {sim::SystemId::Baseline, sim::SystemId::AllNd}) {
                spec.system = system;
                _texts.push_back(specLine(sim::formatSpec(spec)));
            }
        }
    }

    ~SweepWarm() override
    {
        std::error_code ec;
        fs::remove_all(kDir, ec);
    }

    void setup() override
    {
        std::error_code ec;
        fs::remove_all(kDir, ec);
        _specs = parseAll(_texts);
        learnSeconds = prewarm(_specs);
        // Populate the store with the cold results.
        sim::RunnerConfig rc;
        rc.threads = workers();
        const sim::SweepOutcome cold = sim::ExperimentRunner(rc).run(_specs);
        if (!cold.allOk() || cold.cacheHits() != 0)
            throw std::runtime_error("sweep-warm: cold population failed");
        for (const auto &result : cold.results)
            _cold.push_back(sim::formatResult(result));
        _trace.workers = workers();
    }

    Round round() override { return run(false); }
    Round tracedRound() override { return run(true); }

    void layerMetrics(LayerMetrics &out) override
    {
        _trace.fill(out);
        out["store.lookup_us"] = storeLookupUs(kDir, _specs);
        identityProbes(_specs, _cold, out);
    }

    void verify(const std::vector<std::string> &payloads,
                Tally &tally) override
    {
        for (size_t i = 0; i < payloads.size(); ++i)
            if (!payloads[i].empty() && payloads[i] != _cold[i])
                tally.fail("spec " + std::to_string(i) +
                           ": warm result differs from the cold run");
    }

    const std::vector<std::string> &specTexts() const override
    {
        return _texts;
    }
    RefCompare refCompare() const override { return RefCompare::None; }
    int workers() const override { return benchWorkers(kWorkers); }

  private:
    Round run(bool traced)
    {
        sim::RunnerConfig rc;
        rc.threads = workers();
        const sim::ExperimentRunner runner(rc);
        if (traced)
            _trace.begin();
        Round r;
        const auto t0 = Clock::now();
        const sim::SweepOutcome outcome = runner.run(_specs);
        r.wallS = secondsSince(t0);
        r.latencyMs.push_back(r.wallS * 1e3);
        if (traced)
            _trace.end(r.wallS, workers());
        for (size_t i = 0; i < _specs.size(); ++i) {
            // Every lookup must hit: a re-simulated spec is a failure.
            if (outcome.ok(i) && outcome.fromCache[i]) {
                r.payloads.push_back(sim::formatResult(outcome.results[i]));
            } else {
                r.payloads.emplace_back();
                ++r.errors;
            }
        }
        return r;
    }

    std::vector<std::string> _texts;
    std::vector<sim::ExperimentSpec> _specs;
    std::vector<std::string> _cold;
    SweepTrace _trace;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "year-scalar")
        return std::make_unique<YearScalar>(seed);
    if (name == "sweep-batched")
        return std::make_unique<SweepBatched>(seed);
    if (name == "serve-coalesce")
        return std::make_unique<ServeCoalesce>(seed);
    if (name == "sweep-warm")
        return std::make_unique<SweepWarm>(seed);
    return nullptr;
}

} // namespace perfbench
