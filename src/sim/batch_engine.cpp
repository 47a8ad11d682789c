#include "sim/batch_engine.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "obs/report.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"
#include "sim/scenario.hpp"
#include "sim/spec_io.hpp"
#include "util/logging.hpp"

namespace coolair {
namespace sim {

namespace {

/** Weather-grid chunk cap: bounds lane grid memory on long day ranges
    (a full day at the finest 30 s step is 2880 points). */
constexpr int kMaxGridChunk = 4096;

/** The shared engine configuration of a batch, after the checks every
    BatchedEngine makes before building anything. */
EngineConfig
batchConfig(const std::vector<ExperimentSpec> &specs)
{
    if (specs.empty())
        throw std::invalid_argument(
            "BatchedEngine: batch must contain at least one spec");
    const std::string shape = batchShapeKey(specs.front());
    for (const ExperimentSpec &spec : specs) {
        if (spec.batch <= 0)
            throw std::invalid_argument(
                "BatchedEngine: every lane spec must have batch > 0");
        if (batchShapeKey(spec) != shape)
            throw std::invalid_argument(
                "BatchedEngine: lane specs differ in shape (only "
                "location, seed and output paths may vary in a batch)");
    }
    checkRunnable(specs.front());
    return engineConfigFor(specs.front());
}

} // namespace

std::string
batchShapeKey(const ExperimentSpec &spec)
{
    ExperimentSpec shape = spec;
    shape.location = environment::Location{};
    shape.seed = 0;
    shape.cacheDirPath.clear();
    shape.traceCsvPath.clear();
    shape.reportJsonPath.clear();
    shape.traceJsonPath.clear();
    return formatSpec(shape);
}

BatchedEngine::BatchedEngine(std::vector<ExperimentSpec> specs,
                             int requested_width)
    : Timeline(batchConfig(specs), int(specs.size()),
               /*isolate_lane_errors=*/true)
{
    const plant::PlantConfig pc = plantConfigFor(specs.front());
    std::vector<uint64_t> seeds;
    seeds.reserve(specs.size());
    for (const ExperimentSpec &spec : specs)
        seeds.push_back(spec.seed);
    _plant = std::make_unique<plant::BatchedPlant>(pc, seeds);

    _parts.resize(specs.size());
    for (size_t l = 0; l < specs.size(); ++l) {
        LaneParts &parts = _parts[l];
        Lane &lane = _lanes[l];
        parts.spec = std::move(specs[l]);
        const ExperimentSpec &ls = parts.spec;
        try {
            // Trace output needs the scalar engine's per-step sink; its
            // absence here is the documented fault-injection lever.
            if (!ls.traceCsvPath.empty() || !ls.traceJsonPath.empty())
                throw std::invalid_argument(
                    "BatchedEngine: trace output is not supported on the "
                    "batched path (run with batch = 0)");
            parts.climate = std::make_unique<environment::Climate>(
                ls.location.makeClimate(ls.seed));
            // The forecaster reads this climate directly, as the scalar
            // scenario's forecaster reads its own.
            parts.forecaster = std::make_unique<environment::Forecaster>(
                *parts.climate, ls.forecastError, ls.seed);
            parts.workload = makeWorkload(ls);
            parts.controller = makeController(ls, parts.forecaster.get());
            // CoolAir lanes score each epoch's candidate menu in one
            // batched pass (ulp-level score drift only; DESIGN.md §10).
            if (auto *ca =
                    dynamic_cast<CoolAirController *>(parts.controller.get()))
                ca->setBatchedCandidates(true);
            MetricsConfig mc;
            mc.maxTempC = ls.maxTempC;
            parts.metrics =
                std::make_unique<MetricsCollector>(mc, pc.numPods);
            lane.workload = parts.workload.get();
            lane.controller = parts.controller.get();
            lane.metrics = parts.metrics.get();
        } catch (const std::exception &e) {
            lane.dead = true;
            lane.error = e.what();
        }
    }

    // Dead lanes never refresh their load; seed every slot with a valid
    // arity so the plant's lockstep step always sees numPods pods.
    _loads.assign(_parts.size(),
                  plant::PodLoad::uniform(pc.numPods, pc.serversPerPod, 0.5));

    if (requested_width > 0 && lanes() < requested_width)
        _stats.raggedTailLanes = int64_t(lanes());
}

void
BatchedEngine::refreshGrids(int64_t from_s, int64_t end_s)
{
    const int64_t step = int64_t(_config.physicsStepS);
    const int64_t remaining = (end_s - from_s + step - 1) / step;
    const int n = int(std::min<int64_t>(remaining, kMaxGridChunk));
    _gridStartS = from_s;
    _gridPoints = n;
    _gridIndex = 0;
    for (LaneParts &parts : _parts) {
        if (parts.climate) {
            parts.climate->sampleGridInto(util::SimTime(from_s), step, n,
                                          parts.grid);
        } else {
            // Construction-dead lane: any finite weather keeps its plant
            // lane stepping harmlessly alongside the batch.
            const size_t nz = size_t(n);
            parts.grid.startTime = util::SimTime(from_s);
            parts.grid.stepS = step;
            parts.grid.tempC.assign(nz, 20.0);
            parts.grid.rhPercent.assign(nz, 50.0);
            parts.grid.absHumidity.assign(nz, 8.0);
        }
    }
}

void
BatchedEngine::beginRange(int64_t start_s, int64_t end_s)
{
    _rangeEndS = end_s;
    refreshGrids(start_s, end_s);
}

void
BatchedEngine::beginStep(int64_t t_s)
{
    if (_gridIndex == _gridPoints)
        refreshGrids(t_s, _rangeEndS);
    for (size_t l = 0; l < _parts.size(); ++l)
        _outside[l] = _parts[l].grid.at(size_t(_gridIndex));
    ++_gridIndex;
}

void
BatchedEngine::startPlants(int64_t warm_start_s)
{
    const util::SimTime warm(warm_start_s);
    for (size_t l = 0; l < _parts.size(); ++l) {
        // Strict scalar sample here, so the start state is bit-identical
        // to the scalar engine's.
        if (_parts[l].climate)
            _plant->initializeSteadyState(int(l),
                                          _parts[l].climate->sample(warm));
    }
}

void
BatchedEngine::readSensors()
{
    _plant->readSensors(_sensors.data());
}

void
BatchedEngine::stepPlants(double dt_s)
{
    _plant->step(dt_s, _outside.data(), _loads.data(), _commands.data(),
                 _loadsDirty.data(), _cmdsDirty.data());
    _stats.lanesStepped += lanes();
}

void
BatchedEngine::addBatchStats(obs::StatsRegistry &reg) const
{
    reg.counter("batch.batches_executed", "batched engine runs completed")
        .add(_stats.batchesExecuted);
    reg.counter("batch.lanes_stepped",
                "lane-steps executed by the batched engine")
        .add(_stats.lanesStepped);
    reg.counter("batch.ragged_tail_lanes",
                "lanes run in under-width tail batches")
        .add(_stats.raggedTailLanes);
    reg.counter("batch.sim_minutes",
                "simulated minutes produced by the batched engine")
        .add(_stats.simMinutes);
}

std::vector<LaneResult>
BatchedEngine::run()
{
    if (_ran)
        util::panic("BatchedEngine::run: may be called only once");
    _ran = true;

    const std::chrono::steady_clock::time_point t0 =
        std::chrono::steady_clock::now();
    {
        obs::Span span("batch_engine.run");
        runSpan(_parts.front().spec);
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    _stats.batchesExecuted = 1;
    const int64_t step = int64_t(_config.physicsStepS);
    for (const Lane &lane : _lanes)
        _stats.simMinutes += lane.steps * step / 60;

    std::vector<LaneResult> out(_parts.size());
    for (size_t l = 0; l < _parts.size(); ++l) {
        const Lane &lane = _lanes[l];
        const LaneParts &parts = _parts[l];
        LaneResult &res = out[l];
        if (lane.dead) {
            res.error = lane.error;
            continue;
        }
        res.ok = true;
        res.result.system = parts.metrics->summary();
        res.result.outside = parts.metrics->outsideSummary();

        if (obs::enabled() || !parts.spec.reportJsonPath.empty()) {
            obs::StatsRegistry local;
            addLaneStats(int(l), local);
            if (obs::enabled())
                obs::registry().merge(local);
            if (!parts.spec.reportJsonPath.empty()) {
                // Batch-wide counters fold into the report only (their
                // owner publishes them globally exactly once below).
                addBatchStats(local);
                obs::RunReport report = makeRunReport(
                    parts.spec, res.result, wall,
                    double(lane.steps) * _config.physicsStepS);
                std::ofstream os(parts.spec.reportJsonPath);
                if (!os) {
                    res.ok = false;
                    res.error =
                        "BatchedEngine: cannot open report JSON path: " +
                        parts.spec.reportJsonPath;
                    continue;
                }
                obs::writeRunReport(os, report, local);
            }
        }
    }

    if (obs::enabled()) {
        obs::StatsRegistry batch;
        addBatchStats(batch);
        obs::registry().merge(batch);
    }
    return out;
}

ExperimentResult
runBatchedExperiment(const ExperimentSpec &spec)
{
    if (spec.batch <= 0)
        throw std::invalid_argument(
            "runBatchedExperiment: spec.batch must be positive");
    BatchedEngine engine({spec}, /*requested_width=*/1);
    std::vector<LaneResult> out = engine.run();
    if (!out.front().ok)
        throw std::runtime_error(out.front().error);
    return out.front().result;
}

std::vector<LaneResult>
runBatchedGroup(const std::vector<ExperimentSpec> &specs,
                int requested_width)
{
    BatchedEngine engine(specs, requested_width);
    return engine.run();
}

} // namespace sim
} // namespace coolair
