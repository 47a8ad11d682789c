#include "sim/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"
#include "sim/batch_engine.hpp"
#include "sim/result_cache.hpp"
#include "sim/spec_io.hpp"
#include "sim/trace_csv.hpp"
#include "util/logging.hpp"
#include "workload/cluster.hpp"
#include "workload/profile.hpp"
#include "workload/trace_gen.hpp"

namespace coolair {
namespace sim {

// ---------------------------------------------------------------------------
// Component factories.
// ---------------------------------------------------------------------------

plant::PlantConfig
plantConfigFor(const ExperimentSpec &spec)
{
    switch (spec.variant) {
      case PlantVariant::Standard:
        return spec.style == cooling::ActuatorStyle::Abrupt
                   ? plant::PlantConfig::parasol()
                   : plant::PlantConfig::smoothParasol();
      case PlantVariant::Evaporative:
        return plant::PlantConfig::smoothParasolEvaporative();
      case PlantVariant::Chiller:
        return plant::PlantConfig::smoothParasolChiller();
    }
    util::panic("plantConfigFor: unknown plant variant");
}

std::unique_ptr<plant::Plant>
makePlant(const ExperimentSpec &spec)
{
    return std::make_unique<plant::Plant>(plantConfigFor(spec), spec.seed);
}

cooling::RegimeMenu
regimeMenuFor(const ExperimentSpec &spec)
{
    if (spec.variant == PlantVariant::Evaporative)
        return cooling::RegimeMenu::smoothWithEvaporative();
    return spec.style == cooling::ActuatorStyle::Abrupt
               ? cooling::RegimeMenu::parasol()
               : cooling::RegimeMenu::smooth();
}

const model::LearnedBundle &
bundleFor(const ExperimentSpec &spec)
{
    return spec.variant == PlantVariant::Evaporative
               ? sharedEvaporativeBundle()
               : sharedBundle();
}

core::Version
systemVersion(SystemId id)
{
    switch (id) {
      case SystemId::Temperature:   return core::Version::Temperature;
      case SystemId::Variation:    return core::Version::Variation;
      case SystemId::Energy:       return core::Version::Energy;
      case SystemId::AllNd:        return core::Version::AllNd;
      case SystemId::AllDef:       return core::Version::AllDef;
      case SystemId::VarLowRecirc: return core::Version::VarLowRecirc;
      case SystemId::VarHighRecirc: return core::Version::VarHighRecirc;
      case SystemId::EnergyDef:    return core::Version::EnergyDef;
      case SystemId::Baseline:
        break;
    }
    util::panic("systemVersion: baseline has no CoolAir version");
}

core::CoolAirConfig
coolairConfigFor(const ExperimentSpec &spec)
{
    core::CoolAirConfig config = core::CoolAirConfig::forVersion(
        systemVersion(spec.system), regimeMenuFor(spec), spec.maxTempC);
    if (spec.bandWidthC)
        config.band.widthC = *spec.bandWidthC;
    if (spec.bandOffsetC)
        config.band.offsetC = *spec.bandOffsetC;
    if (spec.switchPenalty)
        config.utility.switchPenalty = *spec.switchPenalty;
    if (spec.sleepDecayPerEpoch)
        config.compute.sleepDecayPerEpoch = *spec.sleepDecayPerEpoch;
    if (spec.horizonSteps)
        config.horizonSteps = *spec.horizonSteps;
    return config;
}

workload::Trace
traceForSpec(const ExperimentSpec &spec)
{
    workload::TraceGenConfig tg;
    tg.seed = spec.seed;
    workload::Trace trace;
    switch (spec.workload) {
      case WorkloadKind::Facebook:
      case WorkloadKind::FacebookProfile:
        trace = workload::facebookTrace(tg);
        break;
      case WorkloadKind::Nutch:
        trace = workload::nutchTrace(tg);
        break;
      case WorkloadKind::SteadyHalf:
        trace = workload::steadyTrace(0.5, tg);
        break;
    }
    if (systemIsDeferrable(spec.system))
        trace.makeDeferrable(6.0);  // §5.1: 6-hour start deadlines
    return trace;
}

std::unique_ptr<workload::WorkloadModel>
makeWorkload(const ExperimentSpec &spec)
{
    workload::ClusterConfig cc;
    if (spec.workload == WorkloadKind::FacebookProfile)
        return std::make_unique<workload::ProfileWorkload>(
            cc, sharedFacebookProfile());
    return std::make_unique<workload::ClusterSim>(cc, traceForSpec(spec));
}

std::unique_ptr<Controller>
makeController(const ExperimentSpec &spec,
               environment::Forecaster *forecaster)
{
    if (spec.system == SystemId::Baseline) {
        cooling::TksConfig tks = cooling::TksConfig::extendedBaseline();
        tks.setpointC = spec.maxTempC;
        return std::make_unique<BaselineController>(tks);
    }
    return std::make_unique<CoolAirController>(
        coolairConfigFor(spec), bundleFor(spec), forecaster,
        systemName(spec.system));
}

// ---------------------------------------------------------------------------
// Scenario.
// ---------------------------------------------------------------------------

ExperimentResult
Scenario::run()
{
    const bool want_report = !_spec.reportJsonPath.empty();
    std::chrono::steady_clock::time_point t0;
    if (want_report)
        t0 = std::chrono::steady_clock::now();

    {
        obs::Span span("scenario.run");
        _engine->runSpan(_spec);
    }

    ExperimentResult result;
    result.system = _metrics->summary();
    result.outside = _metrics->outsideSummary();

    // Everything below runs after the simulation finished, so it can't
    // perturb sim results; with obs off and no report requested it is
    // skipped entirely.
    if (obs::enabled() || want_report) {
        obs::StatsRegistry local;
        collectStats(local);
        if (obs::enabled())
            obs::registry().merge(local);
        if (want_report) {
            // Report-only extras (the result store's counters) fold in
            // after the global merge, so their owner can publish them
            // to obs::registry() itself without double counting.
            for (const auto &source : _reportStatsSources)
                source(local);
            double wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
            writeReport(result, local, wall);
        }
    }

    if (!_spec.traceJsonPath.empty()) {
        std::ofstream os(_spec.traceJsonPath);
        if (!os)
            throw std::runtime_error(
                "Scenario: cannot open trace JSON path: " +
                _spec.traceJsonPath);
        obs::Tracer::instance().writeJson(os);
    }
    return result;
}

void
Scenario::collectStats(obs::StatsRegistry &reg) const
{
    _engine->addStats(reg);
}

obs::RunReport
makeRunReport(const ExperimentSpec &spec, const ExperimentResult &result,
              double wall_seconds, double sim_seconds)
{
    obs::RunReport report;
    report.specText = formatSpec(spec);
    report.seed = spec.seed;
    report.wallSeconds = wall_seconds;
    report.simSeconds = sim_seconds;

    const Summary &s = result.system;
    report.metrics = {
        {"avg_violation_c", s.avgViolationC},
        {"avg_worst_daily_range_c", s.avgWorstDailyRangeC},
        {"min_worst_daily_range_c", s.minWorstDailyRangeC},
        {"max_worst_daily_range_c", s.maxWorstDailyRangeC},
        {"pue", s.pue},
        {"it_kwh", s.itKwh},
        {"cooling_kwh", s.coolingKwh},
        {"humidity_violation_frac", s.humidityViolationFrac},
        {"rate_violation_frac", s.rateViolationFrac},
        {"avg_max_inlet_c", s.avgMaxInletC},
        {"days", double(s.days)},
    };
    return report;
}

void
Scenario::writeReport(const ExperimentResult &result,
                      const obs::StatsRegistry &stats,
                      double wall_seconds) const
{
    // Exact simulated span, warm-ups included: every physics step
    // advances the clock by one step.
    obs::RunReport report = makeRunReport(
        _spec, result, wall_seconds,
        double(_engine->stats().steps) * _spec.physicsStepS);

    std::ofstream os(_spec.reportJsonPath);
    if (!os)
        throw std::runtime_error("Scenario: cannot open report JSON path: " +
                                 _spec.reportJsonPath);
    obs::writeRunReport(os, report, stats);
}

void
Scenario::installFanout()
{
    if (_sinks.empty())
        return;
    if (_sinks.size() == 1) {
        _engine->setTraceSink(_sinks.front());
        return;
    }
    // The engine takes one sink; fan out to all registered ones.  The
    // lambda captures `this`, which is stable: scenarios live on the
    // heap behind unique_ptr.
    _engine->setTraceSink([this](const TraceRow &row) {
        for (const TraceSink &sink : _sinks)
            sink(row);
    });
}

// ---------------------------------------------------------------------------
// ScenarioBuilder.
// ---------------------------------------------------------------------------

ScenarioBuilder::ScenarioBuilder(ExperimentSpec spec)
    : _spec(std::move(spec))
{
}

ScenarioBuilder &
ScenarioBuilder::withController(std::unique_ptr<Controller> controller)
{
    _controller = std::move(controller);
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::withMetricsConfig(const MetricsConfig &config)
{
    _hasMetricsConfig = true;
    _metricsConfig = config;
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::withTraceSink(TraceSink sink)
{
    _sinks.push_back(std::move(sink));
    return *this;
}

ScenarioBuilder &
ScenarioBuilder::withReportStatsSource(
    std::function<void(obs::StatsRegistry &)> source)
{
    _reportStatsSources.push_back(std::move(source));
    return *this;
}

void
checkRunnable(const ExperimentSpec &spec)
{
    const double step = spec.physicsStepS;
    if (step <= 0.0)
        throw std::invalid_argument(
            "ExperimentSpec: physics step must be positive");
    // The engine needs whole steps per sample (engineConfigFor).
    if (!(step >= 1.0 && step <= 86400.0) ||
        engineConfigFor(spec).sampleIntervalS % int64_t(step) != 0)
        throw std::invalid_argument(
            "ExperimentSpec: physics step must be 1 to 86400 s and divide "
            "the sample interval, the larger of 60 s and the step");
    if (spec.runKind == RunKind::YearWeekly && spec.weeks <= 0)
        throw std::invalid_argument("ExperimentSpec: weeks must be positive");
    if (spec.runKind == RunKind::DayRange && spec.endDay <= spec.startDay)
        throw std::invalid_argument(
            "ExperimentSpec: day range must be non-empty");
}

std::unique_ptr<Scenario>
ScenarioBuilder::build()
{
    checkRunnable(_spec);

    auto scenario = std::unique_ptr<Scenario>(new Scenario());
    scenario->_spec = _spec;
    scenario->_reportStatsSources = std::move(_reportStatsSources);

    // A trace export request turns the process-wide tracer on for the
    // whole run (spans recorded by any component from here on).
    if (!_spec.traceJsonPath.empty())
        obs::Tracer::instance().setEnabled(true);

    // Assembly order mirrors the original runYearExperiment exactly.
    plant::PlantConfig pc = plantConfigFor(_spec);
    scenario->_plant = std::make_unique<plant::Plant>(pc, _spec.seed);

    scenario->_climate = std::make_unique<environment::Climate>(
        _spec.location.makeClimate(_spec.seed));

    scenario->_forecaster = std::make_unique<environment::Forecaster>(
        *scenario->_climate, _spec.forecastError, _spec.seed);

    scenario->_workload = makeWorkload(_spec);

    scenario->_controller =
        _controller ? std::move(_controller)
                    : makeController(_spec, scenario->_forecaster.get());

    MetricsConfig mc;
    if (_hasMetricsConfig)
        mc = _metricsConfig;
    else
        mc.maxTempC = _spec.maxTempC;
    scenario->_metrics = std::make_unique<MetricsCollector>(mc, pc.numPods);

    scenario->_engine = std::make_unique<Engine>(
        *scenario->_plant, *scenario->_workload, *scenario->_controller,
        *scenario->_climate, engineConfigFor(_spec));
    scenario->_engine->setMetrics(scenario->_metrics.get());

    scenario->_sinks = std::move(_sinks);
    if (!_spec.traceCsvPath.empty()) {
        scenario->_csv =
            std::make_unique<std::ofstream>(_spec.traceCsvPath);
        if (!*scenario->_csv)
            throw std::runtime_error("Scenario: cannot open trace CSV path: " +
                                     _spec.traceCsvPath);
        writeTraceCsvHeader(*scenario->_csv);
        std::ofstream *csv = scenario->_csv.get();
        scenario->_sinks.push_back(
            [csv](const TraceRow &row) { writeTraceCsvRow(*csv, row); });
    }
    scenario->installFanout();

    return scenario;
}

// ---------------------------------------------------------------------------
// Experiment entry points.
// ---------------------------------------------------------------------------

ExperimentResult
runExperiment(const ExperimentSpec &spec)
{
    // A cache-enabled spec consults the persistent result store first.
    // This standalone path owns its store for the call, so it publishes
    // the store's counters globally itself; sweeps go through
    // ExperimentRunner, which shares stores across jobs and publishes
    // once at the end.
    if (resultCacheUsable(spec)) {
        store::ResultStore st = openResultStore(spec.cacheDirPath);
        ExperimentResult result = runExperimentCached(spec, st);
        if (obs::enabled())
            st.addStats(obs::registry());
        return result;
    }
    // batch= routes through the lane-batched engine (a one-lane batch
    // here; sweeps group lanes in ExperimentRunner).  Opt-in only: the
    // batched path carries a tolerance contract, not bit-identity.
    if (spec.batch > 0)
        return runBatchedExperiment(spec);
    return ScenarioBuilder(spec).build()->run();
}

ExperimentResult
runYearExperiment(const ExperimentSpec &spec)
{
    ExperimentSpec year = spec;
    year.runKind = RunKind::YearWeekly;
    return runExperiment(year);
}

// ---------------------------------------------------------------------------
// Real-Sim / Smooth-Sim.
// ---------------------------------------------------------------------------

ModelSimScenario
buildModelSimScenario(const ExperimentSpec &spec)
{
    ModelSimScenario ms;
    ms.spec = spec;

    ms.climate = std::make_unique<environment::Climate>(
        spec.location.makeClimate(spec.seed));
    ms.forecaster = std::make_unique<environment::Forecaster>(
        *ms.climate, spec.forecastError, spec.seed);

    ms.plant = std::make_unique<ModelPlant>(&bundleFor(spec).model,
                                            plantConfigFor(spec));
    ms.workload = makeWorkload(spec);
    ms.controller = makeController(spec, ms.forecaster.get());

    MetricsConfig mc;
    mc.maxTempC = spec.maxTempC;
    ms.metrics = std::make_unique<MetricsCollector>(
        mc, plantConfigFor(spec).numPods);

    ms.runner = std::make_unique<ModelSimRunner>(*ms.plant, *ms.workload,
                                                 *ms.controller, *ms.climate);
    ms.runner->setMetrics(ms.metrics.get());
    return ms;
}

} // namespace sim
} // namespace coolair
