#include "sim/engine.hpp"

#include <algorithm>
#include <exception>

#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace coolair {
namespace sim {

EngineConfig
engineConfigFor(double physics_step_s)
{
    EngineConfig ec;
    ec.physicsStepS = physics_step_s;
    ec.sampleIntervalS = std::max<int64_t>(60, int64_t(physics_step_s));
    return ec;
}

EngineConfig
engineConfigFor(const ExperimentSpec &spec)
{
    return engineConfigFor(spec.physicsStepS);
}

// ---------------------------------------------------------------------------
// Timeline.
// ---------------------------------------------------------------------------

Timeline::Timeline(const EngineConfig &config, int lanes,
                   bool isolate_lane_errors)
    : _config(config),
      _lanes(size_t(lanes)),
      _outside(size_t(lanes)),
      _loads(size_t(lanes)),
      _commands(size_t(lanes), cooling::Regime::closed()),
      _sensors(size_t(lanes)),
      // The first plant step must consume every lane's load and command.
      _loadsDirty(size_t(lanes), 1),
      _cmdsDirty(size_t(lanes), 1),
      _isolateLaneErrors(isolate_lane_errors)
{
}

void
Timeline::beginRange(int64_t, int64_t)
{
}

void
Timeline::refreshLoad(size_t l)
{
    Lane &lane = _lanes[l];
    const uint64_t v = lane.workload->loadVersion();
    if (v == 0 || v != lane.loadVersion) {
        lane.workload->podLoadInto(_loads[l]);
        lane.loadVersion = v;
        _loadsDirty[l] = 1;
    }
}

template <class F>
void
Timeline::forEachLiveLane(F &&f)
{
    for (size_t l = 0; l < _lanes.size(); ++l) {
        Lane &lane = _lanes[l];
        if (lane.dead)
            continue;
        try {
            f(l, lane);
        } catch (const std::exception &e) {
            if (!_isolateLaneErrors)
                throw;
            lane.dead = true;
            lane.error = e.what();
        }
    }
}

void
Timeline::sample(util::SimTime now, bool collect)
{
    readSensors();
    forEachLiveLane([&](size_t l, Lane &lane) {
        plant::SensorReadings &sensors = _sensors[l];
        sensors.time = now;

        if (now.seconds() >= lane.nextControlS) {
            workload::WorkloadStatus status = lane.workload->status();
            refreshLoad(l);
            ControlDecision decision = lane.controller->control(
                sensors, status, _loads[l], now);
            ++lane.controlEpochs;
            // A lane is re-commanded when the decision differs (Regime's
            // == tolerates float noise); the batched plant leaves clean
            // lanes' actuators as they are.
            if (!(decision.regime == _commands[l])) {
                ++lane.regimeTransitions;
                _cmdsDirty[l] = 1;
            }
            _commands[l] = decision.regime;
            if (decision.hasPlan)
                lane.workload->applyPlan(decision.plan);
            lane.nextControlS = now.seconds() + lane.controller->epochS();
        }

        if (!collect)
            return;

        ++lane.samples;
        if (sensors.cooling.mode == cooling::Mode::AirConditioning)
            ++lane.acSamples;

        const environment::WeatherSample &outside = _outside[l];
        if (lane.metrics) {
            lane.metrics->record(now, sensors,
                                 double(_config.sampleIntervalS),
                                 outside.tempC);
        }

        if (_sink) {
            TraceRow row;
            row.time = now;
            row.outsideC = outside.tempC;
            row.outsideRhPercent = outside.rhPercent;
            double lo = 1e9, hi = -1e9;
            for (double t : sensors.podInletC) {
                lo = std::min(lo, t);
                hi = std::max(hi, t);
            }
            row.inletMinC = lo;
            row.inletMaxC = hi;
            row.hotAisleC = sensors.hotAisleC;
            row.coldAisleRhPercent = sensors.coldAisleRhPercent;
            row.mode = sensors.cooling.mode;
            row.fcFanSpeed = sensors.cooling.fcFanSpeed;
            row.compressorSpeed = sensors.cooling.compressorSpeed;
            row.itPowerW = sensors.itPowerW;
            row.coolingPowerW = sensors.coolingPowerW;
            double dlo = 1e9, dhi = -1e9;
            for (double d : sensors.podDiskC) {
                dlo = std::min(dlo, d);
                dhi = std::max(dhi, d);
            }
            row.diskMinC = dlo;
            row.diskMaxC = dhi;
            row.dcUtilization = sensors.dcUtilization;
            _sink(row);
        }
    });
}

void
Timeline::runRange(util::SimTime start, util::SimTime end, bool collect)
{
    if (end <= start)
        return;

    const int64_t step = int64_t(_config.physicsStepS);
    const int64_t interval = _config.sampleIntervalS;
    if (step <= 0 || interval <= 0 || interval % step != 0)
        util::fatal("Engine: sample interval must be a multiple of the "
                    "physics step");

    beginRange(start.seconds(), end.seconds());
    for (int64_t t = start.seconds(); t < end.seconds(); t += step) {
        for (Lane &lane : _lanes)
            if (!lane.dead)
                ++lane.steps;
        util::SimTime now(t);
        // One weather evaluation per lane serves the sample and the
        // physics step at this instant.
        beginStep(t);
        if ((t - start.seconds()) % interval == 0)
            sample(now, collect);

        forEachLiveLane([&](size_t l, Lane &lane) {
            lane.workload->step(now, double(step));
            refreshLoad(l);
        });
        stepPlants(double(step));
        std::fill(_loadsDirty.begin(), _loadsDirty.end(),
                  static_cast<unsigned char>(0));
        std::fill(_cmdsDirty.begin(), _cmdsDirty.end(),
                  static_cast<unsigned char>(0));
    }
}

void
Timeline::runDays(int start_day, int end_day)
{
    const util::SimTime start(int64_t(start_day) * util::kSecondsPerDay);
    const util::SimTime end(int64_t(end_day) * util::kSecondsPerDay);
    const util::SimTime warm_start = start - _config.warmupS;

    startPlants(warm_start.seconds());
    for (Lane &lane : _lanes)
        lane.nextControlS = warm_start.seconds();
    runRange(warm_start, start, /*collect=*/false);
    runRange(start, end, /*collect=*/true);
}

void
Timeline::runDay(int day_of_year)
{
    obs::Span span("engine.runDay");
    runDays(day_of_year, day_of_year + 1);
}

void
Timeline::runDayRange(int start_day, int end_day)
{
    if (end_day <= start_day)
        return;
    obs::Span span("engine.runDayRange");
    runDays(start_day, end_day);
}

std::vector<int>
yearSampleDays(int weeks)
{
    std::vector<int> days;
    if (weeks <= 0)
        return days;
    days.reserve(size_t(weeks));
    // Uniform stride across the whole year: for 52 weeks this is exactly
    // the §5.1 first-day-of-each-week protocol (w * 365 / 52 == 7 * w for
    // w < 52); for shorter runs the stride grows so the sample still
    // covers every season instead of just January onward.
    for (int w = 0; w < weeks; ++w)
        days.push_back(int(int64_t(w) * util::kDaysPerYear / weeks) %
                       util::kDaysPerYear);
    return days;
}

void
Timeline::runYearWeekly(int weeks)
{
    for (int day : yearSampleDays(weeks))
        runDay(day);
}

void
Timeline::runSpan(const ExperimentSpec &spec)
{
    switch (spec.runKind) {
      case RunKind::YearWeekly:
        runYearWeekly(spec.weeks);
        return;
      case RunKind::SingleDay:
        runDay(spec.day);
        return;
      case RunKind::DayRange:
        runDayRange(spec.startDay, spec.endDay);
        return;
    }
    util::panic("Timeline::runSpan: unknown run kind");
}

Timeline::EngineStats
Timeline::laneStats(int l) const
{
    const Lane &lane = _lanes[size_t(l)];
    EngineStats s;
    s.steps = lane.steps;
    s.samples = lane.samples;
    s.controlEpochs = lane.controlEpochs;
    s.regimeTransitions = lane.regimeTransitions;
    // Lanes tally AC *samples*; scale by the sample interval so the
    // harvested figure is simulated minutes.
    s.acMinutes = lane.acSamples * _config.sampleIntervalS / 60;
    return s;
}

void
Timeline::addLaneStats(int l, obs::StatsRegistry &reg) const
{
    const Lane &lane = _lanes[size_t(l)];
    lane.controller->addStats(reg);

    const EngineStats es = laneStats(l);
    reg.counter("engine.steps", "physics steps taken").add(es.steps);
    reg.counter("engine.samples", "collected metric samples")
        .add(es.samples);
    reg.counter("engine.control_epochs", "controller invocations")
        .add(es.controlEpochs);
    reg.counter("engine.regime_transitions", "commanded regime changes")
        .add(es.regimeTransitions);
    reg.counter("engine.ac_minutes",
                "collected simulated minutes in AC mode")
        .add(es.acMinutes);

    if (lane.metrics) {
        reg.counter("metrics.violation_minutes",
                    "simulated minutes with max inlet above the desired max")
            .add(lane.metrics->violationSamples() * _config.sampleIntervalS /
                 60);
    }
}

// ---------------------------------------------------------------------------
// Engine: one lane over caller-owned components.
// ---------------------------------------------------------------------------

Engine::Engine(plant::Plant &plant, workload::WorkloadModel &workload,
               Controller &controller, const environment::WeatherProvider &climate,
               const EngineConfig &config)
    : Timeline(config, /*lanes=*/1, /*isolate_lane_errors=*/false),
      _plant(plant),
      _climate(climate)
{
    Lane &lane = _lanes.front();
    lane.workload = &workload;
    lane.controller = &controller;
}

void
Engine::beginStep(int64_t t_s)
{
    _outside.front() = _climate.sample(util::SimTime(t_s));
}

void
Engine::startPlants(int64_t warm_start_s)
{
    _plant.initializeSteadyState(_climate.sample(util::SimTime(warm_start_s)));
}

void
Engine::readSensors()
{
    _plant.readSensors(_sensors.front());
}

void
Engine::stepPlants(double dt_s)
{
    _plant.step(dt_s, _outside.front(), _loads.front(), _commands.front());
}

} // namespace sim
} // namespace coolair
