/**
 * @file
 * Microbenchmarks (google-benchmark) for the performance-critical
 * building blocks: plant physics stepping, model prediction rollout,
 * regression fitting, the cluster simulator, and the result store's
 * warm read path (cache identity, entry lookup, result text).
 */

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "core/optimizer.hpp"
#include "core/predictor.hpp"
#include "environment/world_grid.hpp"
#include "model/learner.hpp"
#include "model/linreg.hpp"
#include "plant/parasol.hpp"
#include "plant/parasol_batch.hpp"
#include "sim/batch_engine.hpp"
#include "sim/result_cache.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "sim/spec_io.hpp"
#include "store/result_store.hpp"
#include "util/rng.hpp"
#include "workload/cluster.hpp"

using namespace coolair;

namespace {

environment::WeatherSample
mildWeather()
{
    environment::WeatherSample w;
    w.tempC = 15.0;
    w.rhPercent = 50.0;
    w.absHumidity = physics::absoluteHumidity(15.0, 50.0);
    return w;
}

/** The abrupt-Parasol spec the plant-level benches step. */
sim::ExperimentSpec
abruptSpec()
{
    sim::ExperimentSpec spec;
    spec.style = cooling::ActuatorStyle::Abrupt;
    spec.seed = 1;
    return spec;
}

void
BM_PlantStep(benchmark::State &state)
{
    std::unique_ptr<plant::Plant> plant = sim::makePlant(abruptSpec());
    plant->initializeSteadyState(mildWeather(), 6.0);
    plant::PodLoad load = plant::PodLoad::uniform(8, 8, 0.5);
    cooling::Regime fc = cooling::Regime::freeCooling(0.5);
    auto w = mildWeather();
    for (auto _ : state) {
        plant->step(30.0, w, load, fc);
        benchmark::DoNotOptimize(plant->truePodInletC(0));
    }
}
BENCHMARK(BM_PlantStep);

/** BM_PlantStep's workload on a lane-batched plant of range(0) lanes.
    lane_step, the time per lane per step (printed with an SI prefix:
    124n is 124 ns), is the figure to set against BM_PlantStep. */
void
BM_BatchedPlantStep(benchmark::State &state)
{
    const int lanes = int(state.range(0));
    std::vector<uint64_t> seeds;
    for (int l = 0; l < lanes; ++l)
        seeds.push_back(uint64_t(l + 1));
    plant::BatchedPlant plant(sim::plantConfigFor(abruptSpec()), seeds);
    const environment::WeatherSample w = mildWeather();
    for (int l = 0; l < lanes; ++l)
        plant.initializeSteadyState(l, w, 6.0);
    const std::vector<environment::WeatherSample> outside(size_t(lanes), w);
    const std::vector<plant::PodLoad> loads(
        size_t(lanes), plant::PodLoad::uniform(8, 8, 0.5));
    const std::vector<cooling::Regime> commands(
        size_t(lanes), cooling::Regime::freeCooling(0.5));
    for (auto _ : state) {
        plant.step(30.0, outside.data(), loads.data(), commands.data());
        benchmark::DoNotOptimize(plant.truePodInletC(0, 0));
    }
    state.counters["lane_step"] = benchmark::Counter(
        double(state.iterations()) * lanes,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_BatchedPlantStep)->Arg(1)->Arg(8)->Arg(16);

void
BM_SensorRead(benchmark::State &state)
{
    std::unique_ptr<plant::Plant> plant = sim::makePlant(abruptSpec());
    plant->initializeSteadyState(mildWeather(), 6.0);
    for (auto _ : state) {
        auto sensors = plant->readSensors();
        benchmark::DoNotOptimize(sensors.podInletC[0]);
    }
}
BENCHMARK(BM_SensorRead);

void
BM_PredictorRollout(benchmark::State &state)
{
    const model::LearnedBundle &bundle = sim::sharedBundle();
    core::CoolingPredictor predictor(&bundle.model,
                                     int(state.range(0)));
    core::PredictorState st;
    st.podTempC.assign(8, 27.0);
    st.podTempPrevC.assign(8, 27.0);
    st.podPowerFraction.assign(8, 0.6);
    cooling::Regime fc = cooling::Regime::freeCooling(0.4);
    for (auto _ : state) {
        core::Trajectory traj = predictor.predict(st, fc);
        benchmark::DoNotOptimize(traj.steps.back().podTempC[0]);
    }
}
BENCHMARK(BM_PredictorRollout)->Arg(5)->Arg(8);

/** The epoch state both optimizer benches decide from. */
core::PredictorState
optimizerBenchState()
{
    core::PredictorState st;
    st.podTempC.assign(8, 29.0);
    st.podTempPrevC.assign(8, 28.8);
    st.podPowerFraction.assign(8, 0.6);
    return st;
}

void
BM_OptimizerChoose(benchmark::State &state)
{
    const model::LearnedBundle &bundle = sim::sharedBundle();
    core::CoolingPredictor predictor(&bundle.model, 8);
    core::UtilityConfig ucfg;
    core::CoolingOptimizer opt(cooling::RegimeMenu::smooth(), ucfg);
    core::TemperatureBand band = core::TemperatureBand::fixed(25.0, 30.0);

    const core::PredictorState st = optimizerBenchState();
    std::vector<int> pods{0, 1, 2, 3, 4, 5, 6, 7};
    for (auto _ : state) {
        auto d = opt.choose(predictor, st, pods, band);
        benchmark::DoNotOptimize(d.score);
    }
}
BENCHMARK(BM_OptimizerChoose);

/** The same decision through the batched candidate scorer, outlook
    included (the lane-batched engine materializes one per epoch). */
void
BM_OptimizerChooseBatched(benchmark::State &state)
{
    const model::LearnedBundle &bundle = sim::sharedBundle();
    core::CoolingPredictor predictor(&bundle.model, 8);
    core::UtilityConfig ucfg;
    core::CoolingOptimizer opt(cooling::RegimeMenu::smooth(), ucfg);
    core::TemperatureBand band = core::TemperatureBand::fixed(25.0, 30.0);

    const core::PredictorState st = optimizerBenchState();
    std::vector<int> pods{0, 1, 2, 3, 4, 5, 6, 7};
    core::EpochOutlook outlook;
    for (auto _ : state) {
        outlook.materialize(st, predictor.horizonSteps(),
                            bundle.model.config().evapEffectiveness);
        auto d = opt.chooseBatched(predictor, st, outlook, pods, band);
        benchmark::DoNotOptimize(d.score);
    }
}
BENCHMARK(BM_OptimizerChooseBatched);

void
BM_RidgeFit(benchmark::State &state)
{
    util::Rng rng(1);
    model::Dataset data;
    std::array<double, model::TempFeatures::kCount> row;
    for (int i = 0; i < int(state.range(0)); ++i) {
        for (auto &v : row)
            v = rng.uniform(-1.0, 1.0);
        row[0] = 1.0;
        data.addRow(row, rng.uniform(15.0, 35.0));
    }
    for (auto _ : state) {
        model::LinearModel m = model::fitRidge(data, 1e-4);
        benchmark::DoNotOptimize(m.weights()[0]);
    }
}
BENCHMARK(BM_RidgeFit)->Arg(256)->Arg(4096);

void
BM_ClusterDayStep(benchmark::State &state)
{
    sim::ExperimentSpec spec;
    spec.seed = 2013;
    workload::ClusterSim cluster({}, sim::traceForSpec(spec));
    cluster.applyPlan(workload::ComputePlan::passthrough());
    int64_t t = 0;
    for (auto _ : state) {
        cluster.step(util::SimTime(t), 30.0);
        t += 30;
        benchmark::DoNotOptimize(cluster.busySlots());
    }
}
BENCHMARK(BM_ClusterDayStep);

void
BM_ScenarioBuild(benchmark::State &state)
{
    // Baseline assembly: plant + climate + workload + controller +
    // engine, without the (memoized) learning campaign.
    sim::ExperimentSpec spec;
    spec.location =
        environment::namedLocation(environment::NamedSite::Newark);
    for (auto _ : state) {
        auto scenario = sim::ScenarioBuilder(spec).build();
        benchmark::DoNotOptimize(scenario->engine());
    }
}
BENCHMARK(BM_ScenarioBuild);

void
BM_SpecRoundTrip(benchmark::State &state)
{
    sim::ExperimentSpec spec;
    spec.location =
        environment::namedLocation(environment::NamedSite::Santiago);
    spec.system = sim::SystemId::AllNd;
    spec.bandWidthC = 4.0;
    for (auto _ : state) {
        sim::ExperimentSpec parsed = sim::parseSpec(sim::formatSpec(spec));
        benchmark::DoNotOptimize(parsed.seed);
    }
}
BENCHMARK(BM_SpecRoundTrip);

/**
 * End-to-end year-run throughput (the repo's headline perf number):
 * a 52-week YearWeekly run — one sampled day plus a 2 h warm-up per
 * week, 81,120 simulated minutes — through the scenario layer exactly
 * as `runExperiment` executes it.  Args: {system, workload} with
 * system 0 = Baseline / 1 = AllNd and workload 0 = task-level
 * FacebookCluster / 1 = FacebookProfile.  The learning campaign is
 * prewarmed outside the timed region (it is shared, memoized state).
 * The `sim_minutes_per_s` counter is the figure recorded in
 * BENCH_micro.json and compared by bench/compare_bench.py.
 */
void
BM_YearRun(benchmark::State &state)
{
    sim::ExperimentSpec spec;
    spec.location =
        environment::namedLocation(environment::NamedSite::Newark);
    spec.weeks = 52;
    if (state.range(0) != 0)
        spec.system = sim::SystemId::AllNd;
    if (state.range(1) != 0)
        spec.workload = sim::WorkloadKind::FacebookProfile;
    sim::prewarmSharedState({spec});

    for (auto _ : state) {
        sim::ExperimentResult r = sim::runExperiment(spec);
        benchmark::DoNotOptimize(r.system.pue);
    }

    // 52 sampled days (24 h) plus 52 warm-up tails (2 h), in minutes.
    const double sim_minutes = 52.0 * (24.0 + 2.0) * 60.0;
    state.counters["sim_minutes_per_s"] = benchmark::Counter(
        sim_minutes * double(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_YearRun)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

/**
 * The world-sweep shape the lane-batched engine targets: 8 worldGrid
 * sites, FacebookProfile workload, 26 strided weeks at a 120 s physics
 * step (bench_world_sweep's per-site spec).  Seeds match the sweep's
 * derivation so the work is byte-for-byte the sweep's.  Arg: system
 * (0 = Baseline, 1 = AllNd).
 */
std::vector<sim::ExperimentSpec>
worldShapeSpecs(int system, int batch)
{
    auto sites = environment::worldGrid(8);
    std::vector<sim::ExperimentSpec> specs;
    specs.reserve(sites.size());
    for (size_t i = 0; i < sites.size(); ++i) {
        sim::ExperimentSpec spec;
        spec.location = sites[i];
        spec.workload = sim::WorkloadKind::FacebookProfile;
        spec.weeks = 26;
        spec.physicsStepS = 120.0;
        spec.seed = sim::ExperimentRunner::deriveSeed(7, i, sites[i].name);
        spec.batch = batch;
        if (system != 0)
            spec.system = sim::SystemId::AllNd;
        specs.push_back(spec);
    }
    return specs;
}

/** Simulated minutes covered by one pass over @p specs. */
double
worldShapeSimMinutes(const std::vector<sim::ExperimentSpec> &specs)
{
    // Per spec: 26 sampled days of 24 h plus a 2 h warm-up each.
    return double(specs.size()) * 26.0 * (24.0 + 2.0) * 60.0;
}

/** Scalar oracle on the world-sweep shape (the 4x gate's numerator is
    BM_YearRunBatched; this records the honest same-shape scalar). */
void
BM_YearRunWorld(benchmark::State &state)
{
    const auto specs = worldShapeSpecs(int(state.range(0)), 0);
    sim::prewarmSharedState(specs);

    for (auto _ : state) {
        for (const auto &spec : specs) {
            sim::ExperimentResult r = sim::runExperiment(spec);
            benchmark::DoNotOptimize(r.system.pue);
        }
    }

    state.counters["sim_minutes_per_s"] = benchmark::Counter(
        worldShapeSimMinutes(specs) * double(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_YearRunWorld)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * The tentpole gate: the same 8-site world-sweep shape through the
 * lane-batched engine, all 8 lanes per instruction stream.  The
 * sim_minutes_per_s counter must be >= 4x the scalar BM_YearRun
 * FacebookProfile baseline recorded in BENCH_micro.json
 * (compare_bench.py asserts the ratio).
 */
void
BM_YearRunBatched(benchmark::State &state)
{
    const auto specs = worldShapeSpecs(int(state.range(0)), 8);
    sim::prewarmSharedState(specs);

    for (auto _ : state) {
        auto lanes = sim::runBatchedGroup(specs, 8);
        for (const auto &lane : lanes) {
            if (!lane.ok)
                state.SkipWithError(lane.error.c_str());
            benchmark::DoNotOptimize(lane.result.system.pue);
        }
    }

    state.counters["sim_minutes_per_s"] = benchmark::Counter(
        worldShapeSimMinutes(specs) * double(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_YearRunBatched)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void
BM_ClimateSample(benchmark::State &state)
{
    environment::Location loc =
        environment::namedLocation(environment::NamedSite::Newark);
    environment::Climate climate = loc.makeClimate(7);
    int64_t t = 0;
    for (auto _ : state) {
        auto w = climate.sample(util::SimTime(t));
        t += 30;
        benchmark::DoNotOptimize(w.tempC);
    }
}
BENCHMARK(BM_ClimateSample);

// ---------------------------------------------------------------------------
// The warm read path: what a sweep or SUBMIT answered from the result
// store costs per spec, layer by layer.
// ---------------------------------------------------------------------------

/** A world-grid sweep spec, as the warm sweeps key their entries. */
sim::ExperimentSpec
worldSweepSpec()
{
    sim::ExperimentSpec spec;
    spec.location = environment::worldGrid()[737];
    spec.system = sim::SystemId::AllNd;
    spec.workload = sim::WorkloadKind::FacebookProfile;
    spec.runKind = sim::RunKind::SingleDay;
    spec.physicsStepS = 120.0;
    spec.batch = 8;
    spec.cacheDirPath = "results";
    return spec;
}

/** A real one-day result at that site (Baseline, scalar, untimed). */
const sim::ExperimentResult &
sweepResult()
{
    static const sim::ExperimentResult result = [] {
        sim::ExperimentSpec spec = worldSweepSpec();
        spec.system = sim::SystemId::Baseline;
        spec.batch = 0;
        spec.cacheDirPath.clear();
        return sim::runExperiment(spec);
    }();
    return result;
}

void
BM_ResultCacheId(benchmark::State &state)
{
    const sim::ExperimentSpec spec = worldSweepSpec();
    for (auto _ : state) {
        std::string id = sim::resultCacheId(spec);
        benchmark::DoNotOptimize(id.data());
    }
}
BENCHMARK(BM_ResultCacheId);

/** One stored entry (~1.6 kB: a world-grid id and its payload), read
    back with the page cache warm. */
void
BM_StoreLookupHit(benchmark::State &state)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("coolair-bench-store-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    {
        store::ResultStore st = sim::openResultStore(dir.string());
        const std::string id = sim::resultCacheId(worldSweepSpec());
        if (!st.store(id, sim::formatResult(sweepResult())))
            state.SkipWithError("cannot write the store entry");
        std::string payload;
        for (auto _ : state) {
            bool hit = st.lookup(id, payload);
            benchmark::DoNotOptimize(hit);
            benchmark::DoNotOptimize(payload.data());
        }
        state.counters["entry_bytes"] =
            double(std::filesystem::file_size(st.entryPath(id)));
    }
    std::filesystem::remove_all(dir);
}
BENCHMARK(BM_StoreLookupHit);

void
BM_FormatResult(benchmark::State &state)
{
    const sim::ExperimentResult result = sweepResult();
    for (auto _ : state) {
        std::string text = sim::formatResult(result);
        benchmark::DoNotOptimize(text.data());
    }
}
BENCHMARK(BM_FormatResult);

void
BM_ParseResult(benchmark::State &state)
{
    const std::string text = sim::formatResult(sweepResult());
    for (auto _ : state) {
        sim::ExperimentResult result = sim::parseResult(text);
        benchmark::DoNotOptimize(result.system.pue);
    }
}
BENCHMARK(BM_ParseResult);

} // anonymous namespace

BENCHMARK_MAIN();
