#include "cooling/actuators.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"
#include "util/stats.hpp"

namespace coolair {
namespace cooling {

double
PowerModel::freeCoolingPower(double speed) const
{
    speed = util::clamp(speed, 0.0, 1.0);
    if (speed <= 0.0)
        return 0.0;
    return fcBaseW + fcSpanW * speed * speed * speed;
}

double
PowerModel::acPower(double fan, double compressor) const
{
    fan = util::clamp(fan, 0.0, 1.0);
    compressor = util::clamp(compressor, 0.0, 1.0);
    if (fan <= 0.0 && compressor <= 0.0)
        return 0.0;
    double fan_full = acFanFraction * acFullW;
    double comp_full = acFullW - fan_full;
    double fan_w = fan_full * fan * fan * fan;
    // The fixed-speed unit draws 135 W fan-only; honor that floor so the
    // abrupt model reproduces Parasol's published numbers.
    fan_w = std::max(fan_w, fan > 0.0 ? acFanOnlyW : 0.0);
    return fan_w + comp_full * compressor;
}

double
UnitState::coolingPowerW(const PowerModel &pm) const
{
    double total = 0.0;
    if (fcFanSpeed > 0.0)
        total += pm.freeCoolingPower(fcFanSpeed);
    if (evapOn)
        total += pm.evapPumpW;
    total += pm.acPower(acFanSpeed, compressorSpeed);
    return total;
}

Regime
UnitState::regime() const
{
    switch (mode) {
      case Mode::Closed:
        return Regime::closed();
      case Mode::FreeCooling: {
        Regime r = Regime::freeCooling(fcFanSpeed);
        r.evaporative = evapOn;
        return r;
      }
      case Mode::AirConditioning:
        return compressorSpeed > 0.0 ? Regime::acCompressor(compressorSpeed)
                                     : Regime::acFanOnly();
    }
    util::panic("UnitState::regime: unknown mode");
}

Actuators::Actuators(const ActuatorConfig &config) : _config(config)
{
    _command = Regime::closed();
}

void
Actuators::setCommand(const Regime &regime)
{
    _command = regime.normalized();
}

void
Actuators::step(double dt_s)
{
    if (_config.style == ActuatorStyle::Abrupt)
        stepAbrupt();
    else
        stepSmooth(dt_s);
}

void
Actuators::stepAbrupt()
{
    // The abrupt units simply snap to the command, with the FC fan
    // clipped to its physical minimum and the compressor fixed-speed.
    _state.mode = _command.mode;
    switch (_command.mode) {
      case Mode::Closed:
        _state.fcFanSpeed = 0.0;
        _state.acFanSpeed = 0.0;
        _state.compressorSpeed = 0.0;
        _state.damperOpen = false;
        _state.evapOn = false;
        break;
      case Mode::FreeCooling:
        _state.fcFanSpeed =
            std::max(_command.fanSpeed, _config.abruptMinFanSpeed);
        _state.acFanSpeed = 0.0;
        _state.compressorSpeed = 0.0;
        _state.damperOpen = true;
        _state.evapOn = _command.evaporative;
        break;
      case Mode::AirConditioning:
        _state.fcFanSpeed = 0.0;
        _state.acFanSpeed = 1.0;
        _state.compressorSpeed = _command.compressorOn ? 1.0 : 0.0;
        _state.damperOpen = false;
        _state.evapOn = false;
        break;
    }
}

namespace {

/**
 * Ramp @p current toward @p target at up to @p rate per second, with the
 * smooth units' asymmetric shutdown: anything at or below 0.15 heading to
 * zero drops straight to zero.
 */
double
rampToward(double current, double target, double rate, double dt_s,
           double min_running)
{
    if (target <= 0.0) {
        if (current <= 0.15 + 1e-12)
            return 0.0;
        // Ramp down toward 0.15, then snap off on a later step.
        double next = current - rate * dt_s;
        return std::max(next, 0.15);
    }
    target = std::max(target, min_running);
    if (current <= 0.0) {
        // Starting from off: begin at the minimum runnable speed.
        current = min_running;
    }
    double delta = target - current;
    double max_step = rate * dt_s;
    if (std::fabs(delta) <= max_step)
        return target;
    return current + (delta > 0.0 ? max_step : -max_step);
}

} // anonymous namespace

void
Actuators::stepSmooth(double dt_s)
{
    double rate = _config.smoothRampPerSecond;
    double min_fan = _config.smoothMinFanSpeed;

    double fc_target =
        _command.mode == Mode::FreeCooling ? _command.fanSpeed : 0.0;
    double ac_fan_target =
        _command.mode == Mode::AirConditioning ? 1.0 : 0.0;
    double comp_target =
        (_command.mode == Mode::AirConditioning && _command.compressorOn)
            ? std::max(_command.compressorSpeed, min_fan)
            : 0.0;

    _state.fcFanSpeed =
        rampToward(_state.fcFanSpeed, fc_target, rate, dt_s, min_fan);
    _state.acFanSpeed =
        rampToward(_state.acFanSpeed, ac_fan_target, rate, dt_s, min_fan);
    _state.compressorSpeed =
        rampToward(_state.compressorSpeed, comp_target, rate, dt_s, min_fan);

    // Mode and damper reflect what is physically happening: the damper
    // only opens for free cooling and closes as soon as the FC fan stops.
    if (_state.fcFanSpeed > 0.0) {
        _state.mode = Mode::FreeCooling;
        _state.damperOpen = true;
        _state.evapOn = _command.mode == Mode::FreeCooling &&
                        _command.evaporative;
    } else if (_state.acFanSpeed > 0.0 || _state.compressorSpeed > 0.0) {
        _state.mode = Mode::AirConditioning;
        _state.damperOpen = false;
        _state.evapOn = false;
    } else {
        _state.mode = Mode::Closed;
        _state.damperOpen = false;
        _state.evapOn = false;
    }
}

} // namespace cooling
} // namespace coolair
