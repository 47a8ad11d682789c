#ifndef COOLAIR_SIM_ENGINE_HPP
#define COOLAIR_SIM_ENGINE_HPP

/**
 * @file
 * The co-simulation engine: steps climate -> workload -> plant, invokes
 * the controller on its epoch, and feeds the metrics collector and an
 * optional trace sink.  Year-long studies follow §5.1: simulate the
 * first day of each week, repeating the day-long workload.  The loop is
 * the Timeline, shared with the lane-batched engine
 * (sim/batch_engine.hpp).
 */

#include <functional>
#include <string>
#include <vector>

#include "environment/climate.hpp"
#include "obs/stats.hpp"
#include "plant/parasol.hpp"
#include "sim/controller.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "workload/model.hpp"

namespace coolair {
namespace sim {

/** Engine stepping configuration. */
struct EngineConfig
{
    /** Physics step [s]. */
    double physicsStepS = 30.0;

    /** Sensor sampling / metrics interval [s]. */
    int64_t sampleIntervalS = 60;

    /** Warm-up run before each measured day [s] (no metrics). */
    int64_t warmupS = 2 * util::kSecondsPerHour;
};

/** One row of a run trace, for CSV dumps and figures. */
struct TraceRow
{
    util::SimTime time;
    double outsideC = 0.0;
    double outsideRhPercent = 0.0;
    double inletMinC = 0.0;
    double inletMaxC = 0.0;
    double hotAisleC = 0.0;
    double coldAisleRhPercent = 0.0;
    cooling::Mode mode = cooling::Mode::Closed;
    double fcFanSpeed = 0.0;
    double compressorSpeed = 0.0;
    double itPowerW = 0.0;
    double coolingPowerW = 0.0;
    double diskMinC = 0.0;
    double diskMaxC = 0.0;
    double dcUtilization = 0.0;
};

/** Callback invoked once per sample interval. */
using TraceSink = std::function<void(const TraceRow &)>;

/**
 * The days of the year sampled by Engine::runYearWeekly(): @p weeks
 * days spread uniformly across the whole year.  For 52 weeks this is
 * exactly the §5.1 first-day-of-each-week protocol; for shorter runs
 * the stride grows so the sample still spans all seasons.
 */
std::vector<int> yearSampleDays(int weeks);

/**
 * The engine configuration a physics step of @p physics_step_s runs
 * under: sensors sampled every max(60 s, step), 2 h of warm-up.
 */
EngineConfig engineConfigFor(double physics_step_s);

/** The engine configuration a spec runs under: its physics step's. */
EngineConfig engineConfigFor(const ExperimentSpec &spec);

/**
 * The closed-loop timeline both engines run, written once: physics
 * steps, sensor samples every sampleIntervalS, controller epochs, the
 * warm-up before each measured span, and the day, day-range and year
 * protocols.  It steps L lanes in lockstep; a lane is one experiment's
 * workload, controller and metrics, with its slot in the flat per-lane
 * arrays below.  Subclasses supply the plant and the weather: Engine
 * runs one lane over components the caller owns, BatchedEngine N lanes
 * it owns, multizone::MultiZoneEngine one lane per cooling zone, and
 * ModelSimRunner one lane over the learned-model plant.
 */
class Timeline
{
  public:
    /** Lifetime stepping counters of one lane. */
    struct EngineStats
    {
        int64_t steps = 0;              ///< physics steps taken
        int64_t samples = 0;            ///< collected metric samples
        int64_t controlEpochs = 0;      ///< controller invocations
        int64_t regimeTransitions = 0;  ///< commanded regime changes
        int64_t acMinutes = 0;          ///< collected minutes in AC mode
    };

    Timeline(const Timeline &) = delete;
    Timeline &operator=(const Timeline &) = delete;
    virtual ~Timeline() = default;

    /**
     * Run the closed loop over [start, end).  @p collect enables
     * metrics/trace output (disabled during warm-up).
     */
    void runRange(util::SimTime start, util::SimTime end, bool collect);

    /**
     * Measure one calendar day (with warm-up): initialize the plant near
     * steady state, run the warm-up window, then the measured day.
     */
    void runDay(int day_of_year);

    /**
     * Measure the continuous day span [@p start_day, @p end_day) as one
     * run: initialize near steady state, warm up before the first day,
     * then collect across the whole range (multi-day studies like
     * Figure 1's two-day trace).
     */
    void runDayRange(int start_day, int end_day);

    /**
     * §5.1 year protocol: measure @p weeks days spread uniformly across
     * the year (the first day of each week at 52; see yearSampleDays()).
     */
    void runYearWeekly(int weeks = 52);

    /** Run the span @p spec's runKind selects (year, day or day range). */
    void runSpan(const ExperimentSpec &spec);

  protected:
    /** One lane: the components it drives and its counters. */
    struct Lane
    {
        workload::WorkloadModel *workload = nullptr;
        Controller *controller = nullptr;
        MetricsCollector *metrics = nullptr;

        /** Next control-epoch boundary [s]. */
        int64_t nextControlS = 0;

        /** workload->loadVersion() at the last copy into the lane's
            load slot; the copy is skipped while it is unchanged (0 = no
            tracking: always copy).  ~0 forces the first copy. */
        uint64_t loadVersion = ~uint64_t(0);

        /** A dead lane failed and is skipped; its plant lane keeps
            stepping harmlessly so the others stay in lockstep. */
        bool dead = false;
        std::string error;

        int64_t steps = 0;
        int64_t samples = 0;
        int64_t controlEpochs = 0;
        int64_t regimeTransitions = 0;
        int64_t acSamples = 0;
    };

    /**
     * @p lanes lanes stepped per @p config.  With @p isolate_lane_errors
     * an exception from a lane's workload or controller kills only that
     * lane (Lane::dead, Lane::error); without it, it propagates.
     */
    Timeline(const EngineConfig &config, int lanes, bool isolate_lane_errors);

    EngineStats laneStats(int lane) const;

    /** Harvest a lane's controller, engine and metrics counters. */
    void addLaneStats(int lane, obs::StatsRegistry &reg) const;

    // --- What a subclass supplies -------------------------------------

    /** A range [start, end) is about to run. */
    virtual void beginRange(int64_t start_s, int64_t end_s);

    /** Step @p t_s starts: fill _outside with every lane's weather at
        @p t_s.  Runs before any lane samples or steps at @p t_s. */
    virtual void beginStep(int64_t t_s) = 0;

    /** Start every lane's plant near steady state at @p warm_start_s. */
    virtual void startPlants(int64_t warm_start_s) = 0;

    /** Fill _sensors with every lane's readings. */
    virtual void readSensors() = 0;

    /** Step every lane's plant under _outside, _loads and _commands;
        the dirty masks flag the lanes whose load or command changed. */
    virtual void stepPlants(double dt_s) = 0;

    EngineConfig _config;
    std::vector<Lane> _lanes;

    // Flat per-lane spans the plant consumes; reused every step, so
    // steady-state stepping allocates nothing.
    std::vector<environment::WeatherSample> _outside;
    std::vector<plant::PodLoad> _loads;
    std::vector<cooling::Regime> _commands;
    std::vector<plant::SensorReadings> _sensors;
    std::vector<unsigned char> _loadsDirty;
    std::vector<unsigned char> _cmdsDirty;

    TraceSink _sink;

  private:
    void sample(util::SimTime now, bool collect);
    void refreshLoad(size_t lane);

    /** Warm up before day @p start_day, then measure to @p end_day. */
    void runDays(int start_day, int end_day);

    /** f(l, lane) for every live lane, under the lane error policy. */
    template <class F>
    void forEachLiveLane(F &&f);

    bool _isolateLaneErrors;
};

/** Drives one (plant, workload, controller) assembly: the timeline at
    one lane, over components the caller owns. */
class Engine : public Timeline
{
  public:
    Engine(plant::Plant &plant, workload::WorkloadModel &workload,
           Controller &controller, const environment::WeatherProvider &climate,
           const EngineConfig &config = {});

    /** Attach a metrics collector (not owned). */
    void setMetrics(MetricsCollector *metrics)
    {
        _lanes.front().metrics = metrics;
    }

    /** Attach a trace sink. */
    void setTraceSink(TraceSink sink) { _sink = std::move(sink); }

    /** Lifetime stepping counters (plain increments; harvested once per
        run by the scenario). */
    EngineStats stats() const { return laneStats(0); }

    /** Harvest the controller's and the run's engine and metrics
        counters into @p reg. */
    void addStats(obs::StatsRegistry &reg) const { addLaneStats(0, reg); }

  private:
    void beginStep(int64_t t_s) override;
    void startPlants(int64_t warm_start_s) override;
    void readSensors() override;
    void stepPlants(double dt_s) override;

    plant::Plant &_plant;
    const environment::WeatherProvider &_climate;
};

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_ENGINE_HPP
