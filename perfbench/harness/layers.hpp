#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

/**
 * @file
 * Timing decorators for the traced scalar run.  Each wraps one of the
 * engine's virtual collaborators (weather provider, workload model,
 * controller), forwards every call unchanged, and adds the call's
 * steady_clock interval to a LayerClock — so the simulation computes
 * exactly what it computes undecorated (the traced run asserts it).
 */

#include "bench.hpp"
#include "environment/weather.hpp"
#include "sim/controller.hpp"
#include "workload/model.hpp"

namespace perfbench {

/** Calls into one layer and their summed wall time. */
struct LayerClock
{
    int64_t calls = 0;
    int64_t ns = 0;

    void add(Clock::time_point t0)
    {
        ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - t0)
                  .count();
        ++calls;
    }

    /** Summed time less the clock reads the intervals themselves hold. */
    double trueMs(const TimerCost &cost) const
    {
        return (double(ns) - double(calls) * cost.floorNs) / 1e6;
    }
};

class TimedWeather : public coolair::environment::WeatherProvider
{
  public:
    TimedWeather(const WeatherProvider &inner, LayerClock &clock)
        : _inner(inner), _clock(clock)
    {
    }

    coolair::environment::WeatherSample
    sample(coolair::util::SimTime t) const override
    {
        const auto t0 = Clock::now();
        const auto s = _inner.sample(t);
        _clock.add(t0);
        return s;
    }

    double temperature(coolair::util::SimTime t) const override
    {
        const auto t0 = Clock::now();
        const double v = _inner.temperature(t);
        _clock.add(t0);
        return v;
    }

  private:
    const WeatherProvider &_inner;
    LayerClock &_clock;
};

class TimedWorkload : public coolair::workload::WorkloadModel
{
  public:
    TimedWorkload(WorkloadModel &inner, LayerClock &clock,
                  int64_t &step_calls)
        : _inner(inner), _clock(clock), _stepCalls(step_calls)
    {
    }

    void applyPlan(const coolair::workload::ComputePlan &plan) override
    {
        const auto t0 = Clock::now();
        _inner.applyPlan(plan);
        _clock.add(t0);
    }

    void step(coolair::util::SimTime now, double dt_s) override
    {
        const auto t0 = Clock::now();
        _inner.step(now, dt_s);
        _clock.add(t0);
        ++_stepCalls;
    }

    coolair::plant::PodLoad podLoad() const override
    {
        const auto t0 = Clock::now();
        coolair::plant::PodLoad load = _inner.podLoad();
        _clock.add(t0);
        return load;
    }

    void podLoadInto(coolair::plant::PodLoad &out) const override
    {
        const auto t0 = Clock::now();
        _inner.podLoadInto(out);
        _clock.add(t0);
    }

    // A plain getter read every step: timing it would cost ~40x the
    // call, so it stays in the engine's self time.
    uint64_t loadVersion() const override { return _inner.loadVersion(); }

    coolair::workload::WorkloadStatus status() const override
    {
        const auto t0 = Clock::now();
        const auto s = _inner.status();
        _clock.add(t0);
        return s;
    }

  private:
    WorkloadModel &_inner;
    LayerClock &_clock;
    int64_t &_stepCalls;
};

class TimedController : public coolair::sim::Controller
{
  public:
    TimedController(Controller &inner, LayerClock &clock)
        : _inner(inner), _clock(clock)
    {
    }

    coolair::sim::ControlDecision
    control(const coolair::plant::SensorReadings &sensors,
            const coolair::workload::WorkloadStatus &status,
            const coolair::plant::PodLoad &load,
            coolair::util::SimTime now) override
    {
        const auto t0 = Clock::now();
        auto decision = _inner.control(sensors, status, load, now);
        _clock.add(t0);
        return decision;
    }

    int64_t epochS() const override { return _inner.epochS(); }
    const char *name() const override { return _inner.name(); }
    void addStats(coolair::obs::StatsRegistry &reg) const override
    {
        _inner.addStats(reg);
    }

  private:
    Controller &_inner;
    LayerClock &_clock;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
