#ifndef COOLAIR_COOLING_ACTUATORS_HPP
#define COOLAIR_COOLING_ACTUATORS_HPP

/**
 * @file
 * Cooling-unit actuator dynamics and power models.
 *
 * Two actuator personalities reproduce the paper's two testbeds:
 *
 *  - Abrupt (Parasol): the Dantherm free-cooling unit cannot run below
 *    15 % fan speed, so opening the container jumps straight to 15 %; the
 *    DX AC compressor is fixed-speed and runs full-blast when on.  These
 *    discontinuities are why the paper found it "impossible to control
 *    temperature variation with Parasol's cooling infrastructure".
 *
 *  - Smooth (§5.1 Smooth-Sim): the FC fan ramps finely from 1 %, the AC
 *    fan ramps from 1 % settling at 100 %, and the compressor speed is
 *    variable.  Ramp *down* still goes from 15 % straight to off.
 *
 * Power models follow the paper: FC draws 8–425 W cubic in fan speed
 * (§6, "power as a cubic function of fan speed, as in [27]"); the AC
 * draws 135 W fan-only or 2.2 kW with the compressor on; for the smooth
 * AC, the fan accounts for 1/4 of unit power and the compressor scales
 * linearly with speed (§5.1, based on [26]).
 */

#include "cooling/regime.hpp"

namespace coolair {
namespace cooling {

/** Which actuator personality the plant has installed. */
enum class ActuatorStyle
{
    Abrupt,  ///< Parasol's units: discontinuous regime changes.
    Smooth   ///< Fine-grained ramps and variable compressor speed.
};

/** Number of ActuatorStyle enumerators (keep in sync with the enum). */
inline constexpr int kActuatorStyleCount = 2;

/** Power-model constants for Parasol's units. */
struct PowerModel
{
    /** FC power at zero speed (controller electronics) [W]. */
    double fcBaseW = 8.0;

    /** FC power increment at full fan speed [W] (total 425 W). */
    double fcSpanW = 417.0;

    /** AC power with fan only [W]. */
    double acFanOnlyW = 135.0;

    /** AC power with compressor full-blast [W]. */
    double acFullW = 2200.0;

    /** Fraction of full AC power attributed to the fan (smooth AC). */
    double acFanFraction = 0.25;

    /** Evaporative pre-cooler pump/media power when engaged [W]. */
    double evapPumpW = 60.0;

    /** FC power at fan fraction @p speed [W] (cubic law). */
    double freeCoolingPower(double speed) const;

    /**
     * AC power [W] at fan fraction @p fan and compressor fraction
     * @p compressor (0 = off).
     */
    double acPower(double fan, double compressor) const;
};

/**
 * Instantaneous physical state of the cooling units: where the fans and
 * compressor actually are, as opposed to where the controller asked them
 * to be.
 */
struct UnitState
{
    Mode mode = Mode::Closed;
    double fcFanSpeed = 0.0;       ///< Actual FC fan fraction [0..1].
    double acFanSpeed = 0.0;       ///< Actual AC fan fraction [0..1].
    double compressorSpeed = 0.0;  ///< Actual compressor fraction [0..1].
    bool damperOpen = false;       ///< Outside-air path open.
    bool evapOn = false;           ///< Evaporative pre-cooler engaged.

    /** Total cooling power draw [W] under @p pm. */
    double coolingPowerW(const PowerModel &pm) const;

    /** The regime the units are physically running: free cooling at
        the fan's speed (evaporative when the pre-cooler is on), AC with
        the compressor at its speed, or fan-only when it is at 0. */
    Regime regime() const;
};

/** Configuration of the actuator model. */
struct ActuatorConfig
{
    ActuatorStyle style = ActuatorStyle::Abrupt;

    /** Minimum runnable FC fan speed for the abrupt unit. */
    double abruptMinFanSpeed = 0.15;

    /** Minimum runnable FC fan speed for the smooth unit. */
    double smoothMinFanSpeed = 0.01;

    /**
     * Smooth ramp rate: maximum change in fan/compressor fraction per
     * second.  0.002/s crosses the full range in ~8.3 minutes, matching
     * commercial variable-speed drives.
     */
    double smoothRampPerSecond = 0.002;

    PowerModel power;
};

/**
 * Tracks actual unit state and advances it toward a commanded regime.
 */
class Actuators
{
  public:
    explicit Actuators(const ActuatorConfig &config = {});

    /** Current physical state. */
    const UnitState &state() const { return _state; }

    /** The most recent commanded regime. */
    const Regime &command() const { return _command; }

    /** Issue a new target regime. */
    void setCommand(const Regime &regime);

    /** Advance the physical state by @p dt_s seconds. */
    void step(double dt_s);

    /** Cooling power draw [W] right now. */
    double coolingPowerW() const { return _state.coolingPowerW(_config.power); }

    /** The configuration in effect. */
    const ActuatorConfig &config() const { return _config; }

  private:
    void stepAbrupt();
    void stepSmooth(double dt_s);

    ActuatorConfig _config;
    Regime _command;
    UnitState _state;
};

} // namespace cooling
} // namespace coolair

#endif // COOLAIR_COOLING_ACTUATORS_HPP
