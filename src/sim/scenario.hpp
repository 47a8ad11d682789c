#ifndef COOLAIR_SIM_SCENARIO_HPP
#define COOLAIR_SIM_SCENARIO_HPP

/**
 * @file
 * The scenario layer: one assembly path from a declarative
 * ExperimentSpec to a fully wired (climate, plant, workload,
 * controller, metrics, engine) stack.
 *
 * Every harness — the year experiments, the figure benches, the
 * examples, the multizone driver — goes through the factories or the
 * ScenarioBuilder here, so an experiment is described by *data* (a
 * spec, serializable via sim/spec_io.hpp) rather than by bespoke
 * construction code.  Harnesses that need a nonstandard piece (a fixed
 * regime, an extra trace sink, custom metrics) override just that piece
 * on the builder and inherit everything else.
 */

#include <fstream>
#include <functional>
#include <memory>
#include <vector>

#include "obs/report.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/model_plant.hpp"
#include "workload/job.hpp"

namespace coolair {
namespace sim {

// ---------------------------------------------------------------------------
// Component factories: each builds one piece of the stack from a spec.
// ---------------------------------------------------------------------------

/** Plant hardware constants for the spec's style and variant. */
plant::PlantConfig plantConfigFor(const ExperimentSpec &spec);

/** A physics plant seeded per the spec. */
std::unique_ptr<plant::Plant> makePlant(const ExperimentSpec &spec);

/** The regime menu of the spec's installed cooling units. */
cooling::RegimeMenu regimeMenuFor(const ExperimentSpec &spec);

/**
 * The learned bundle a CoolAir controller would use for this spec
 * (the memoized evaporative bundle for that variant, the shared abrupt
 * Parasol bundle otherwise; see sharedBundle()).
 */
const model::LearnedBundle &bundleFor(const ExperimentSpec &spec);

/**
 * The CoolAir version behind a system id.
 * Panics for SystemId::Baseline, which has no CoolAir version.
 */
core::Version systemVersion(SystemId id);

/**
 * The CoolAir configuration for a (non-baseline) spec: the Table 1
 * version preset, with any of the spec's tuning overrides (band width,
 * band offset, switch penalty, sleep decay, horizon) applied on top.
 */
core::CoolAirConfig coolairConfigFor(const ExperimentSpec &spec);

/**
 * The day-long task trace for the spec's workload kind, seeded per the
 * spec and made deferrable when the system defers jobs (§5.1: 6-hour
 * start deadlines).
 */
workload::Trace traceForSpec(const ExperimentSpec &spec);

/** The workload model (task-level cluster sim or utilization profile). */
std::unique_ptr<workload::WorkloadModel>
makeWorkload(const ExperimentSpec &spec);

/**
 * The controller for the spec's system: the extended-TKS baseline, or
 * CoolAir configured by coolairConfigFor() on bundleFor()'s bundle.
 * @p forecaster may be null only for the baseline.
 */
std::unique_ptr<Controller>
makeController(const ExperimentSpec &spec,
               environment::Forecaster *forecaster);

// ---------------------------------------------------------------------------
// Scenario: an assembled, runnable experiment.
// ---------------------------------------------------------------------------

/**
 * A fully assembled experiment stack.  Owns every component, so the
 * engine's references stay valid for the scenario's lifetime.  Build
 * one with ScenarioBuilder; run it with run() (which honors
 * spec().runKind), or drive engine() by hand for custom protocols.
 */
class Scenario
{
  public:
    /**
     * Run per spec().runKind and return the summary metrics.
     *
     * Observability hooks fire after the simulation finishes, so they
     * cannot perturb it: component counters are harvested into a local
     * registry (merged into obs::registry() when obs::enabled()), a
     * RunReport is written when spec().reportJsonPath is set, and the
     * buffered trace is exported when spec().traceJsonPath is set.
     */
    ExperimentResult run();

    /**
     * Harvest every component counter (controller, engine, metrics)
     * into @p reg.  All values are simulation-deterministic; call at
     * most once per run (counters are lifetime totals, re-harvesting
     * double-counts on merge).
     */
    void collectStats(obs::StatsRegistry &reg) const;

    const ExperimentSpec &spec() const { return _spec; }

    /** The weather the engine and forecaster consume: the climate. */
    const environment::WeatherProvider &weather() const { return *_climate; }

    environment::Forecaster &forecaster() { return *_forecaster; }
    plant::Plant &plant() { return *_plant; }
    workload::WorkloadModel &workload() { return *_workload; }
    Controller &controller() { return *_controller; }
    MetricsCollector &metrics() { return *_metrics; }
    Engine &engine() { return *_engine; }

  private:
    friend class ScenarioBuilder;
    Scenario() = default;

    void installFanout();
    void writeReport(const ExperimentResult &result,
                     const obs::StatsRegistry &stats,
                     double wall_seconds) const;

    ExperimentSpec _spec;
    std::vector<std::function<void(obs::StatsRegistry &)>>
        _reportStatsSources;
    std::unique_ptr<environment::Climate> _climate;
    std::unique_ptr<environment::Forecaster> _forecaster;
    std::unique_ptr<plant::Plant> _plant;
    std::unique_ptr<workload::WorkloadModel> _workload;
    std::unique_ptr<Controller> _controller;
    std::unique_ptr<MetricsCollector> _metrics;
    std::unique_ptr<Engine> _engine;
    std::unique_ptr<std::ofstream> _csv;
    std::vector<TraceSink> _sinks;
};

/**
 * Throw std::invalid_argument if @p spec cannot run: a nonpositive
 * physics step, nonpositive weeks on a year run, or an empty day range.
 * Both engines check their specs with it.
 */
void checkRunnable(const ExperimentSpec &spec);

/**
 * Assembles a Scenario from a spec, with optional component overrides.
 *
 * ScenarioBuilder(spec).build() reproduces the §5.1 stack exactly;
 * overrides swap one piece while the rest still comes from the spec:
 *
 *     auto scenario = ScenarioBuilder(spec)
 *                         .withController(std::make_unique<
 *                             FixedRegimeController>(regime))
 *                         .build();
 */
class ScenarioBuilder
{
  public:
    explicit ScenarioBuilder(ExperimentSpec spec);

    /** Replace the spec-derived controller. */
    ScenarioBuilder &withController(std::unique_ptr<Controller> controller);

    /** Replace the default metrics configuration. */
    ScenarioBuilder &withMetricsConfig(const MetricsConfig &config);

    /** Add a trace sink to the assembled scenario. */
    ScenarioBuilder &withTraceSink(TraceSink sink);

    /**
     * Add a stats source consulted only when the run writes a RunReport
     * (spec.reportJsonPath): @p source folds extra stats — e.g. the
     * result store's counters — into the report's registry.  Sources do
     * NOT feed obs::registry(); whoever owns the underlying counters
     * publishes them globally exactly once (the runner after a sweep,
     * runExperiment after a standalone run).
     */
    ScenarioBuilder &
    withReportStatsSource(std::function<void(obs::StatsRegistry &)> source);

    /**
     * Assemble the stack.
     * @throws std::invalid_argument for an unrunnable spec
     *         (checkRunnable()).
     * @throws std::runtime_error if spec.traceCsvPath cannot be opened.
     */
    std::unique_ptr<Scenario> build();

  private:
    ExperimentSpec _spec;
    std::unique_ptr<Controller> _controller;
    bool _hasMetricsConfig = false;
    MetricsConfig _metricsConfig;
    std::vector<TraceSink> _sinks;
    std::vector<std::function<void(obs::StatsRegistry &)>>
        _reportStatsSources;
};

/**
 * The RunReport skeleton every report writer shares: canonical spec
 * text, seed, timings, and the headline metric block in its canonical
 * order.  The scenario layer uses it for end-of-run reports; the result
 * cache uses it for cache-hit reports.
 */
obs::RunReport makeRunReport(const ExperimentSpec &spec,
                             const ExperimentResult &result,
                             double wall_seconds, double sim_seconds);

// ---------------------------------------------------------------------------
// Real-Sim / Smooth-Sim assembly (the Figure 6/7 validation stack).
// ---------------------------------------------------------------------------

/**
 * A learned-model simulation stack (ModelPlant + ModelSimRunner) built
 * from the same spec as the physics Scenario, for the paper's
 * real-vs-simulation validation.  Members are exposed directly: these
 * studies drive the runner by hand (custom start states, trace sinks).
 */
struct ModelSimScenario
{
    ExperimentSpec spec;
    std::unique_ptr<environment::Climate> climate;
    std::unique_ptr<environment::Forecaster> forecaster;
    std::unique_ptr<ModelPlant> plant;
    std::unique_ptr<workload::WorkloadModel> workload;
    std::unique_ptr<Controller> controller;
    std::unique_ptr<MetricsCollector> metrics;
    std::unique_ptr<ModelSimRunner> runner;
};

/** Build the Real-Sim/Smooth-Sim counterpart of a spec's scenario. */
ModelSimScenario buildModelSimScenario(const ExperimentSpec &spec);

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_SCENARIO_HPP
