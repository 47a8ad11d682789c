#ifndef COOLAIR_PLANT_PARASOL_HPP
#define COOLAIR_PLANT_PARASOL_HPP

/**
 * @file
 * Ground-truth physical model of the Parasol free-cooled container.
 *
 * The paper evaluates CoolAir on a real prototype: a 7'x12' container
 * with 64 half-U Atom servers in two racks, a Dantherm Flexibox 450
 * free-cooling unit, a Dantherm iA/C 19000 DX air conditioner, a sealed
 * cold aisle, and an exhaust damper (§4.1, Figure 4).  We cannot ship the
 * hardware, so this module provides a lumped-parameter thermal/humidity
 * model of the container with the same *observable* dynamics:
 *
 *  - pod inlet temperatures responding to free-cooling airflow, AC
 *    supply, hot-aisle recirculation, envelope conduction, and the
 *    thermal inertia of racks/servers;
 *  - per-pod recirculation exposure (some pods recirculate more — the
 *    lever behind CoolAir's spatial placement);
 *  - cold-aisle absolute humidity driven by outside air exchange and AC
 *    dehumidification, reported as relative humidity;
 *  - disk temperatures tracking inlet temperature plus a utilization-
 *    dependent offset with a slow first-order lag (Figure 1);
 *  - sensor noise matching Parasol's ±0.5 °C sensor accuracy.
 *
 * Integration uses per-node exponential relaxation toward a conductance-
 * weighted target, which is exact for the frozen-coefficient linear
 * system and unconditionally stable at any step size.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cooling/actuators.hpp"
#include "cooling/regime.hpp"
#include "environment/climate.hpp"
#include "physics/psychrometrics.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace coolair {
namespace plant {

/** Per-pod offered load, as the cluster simulator reports it. */
struct PodLoad
{
    /** Number of servers in each pod that are awake (active or idle). */
    std::vector<int> activeServers;

    /** Mean busy fraction of the awake servers in each pod [0..1]. */
    std::vector<double> utilization;

    /** Servers per pod (capacity behind activeServers). */
    int serversPerPod = 8;

    /** Uniform load across @p pods pods: all servers awake at @p util. */
    static PodLoad uniform(int pods, int servers_per_pod, double util);

    /**
     * This pod's power draw as a fraction of its maximum [0..1], using
     * the Parasol server power model (22 W idle + 8 W busy span, 2 W
     * sleeping, 30 W peak).
     */
    double podPowerFraction(int pod) const;
};

/** Everything CoolAir (or the TKS) can observe at one instant. */
struct SensorReadings
{
    util::SimTime time;

    /** Inlet air temperature per pod [°C] (one sensor per pod, §4.2). */
    std::vector<double> podInletC;

    /**
     * Disk temperature per pod [°C].  Noise-free (disk SMART readings
     * are digital), so including them here consumes no sensor-noise
     * draws and lets the trace path batch-read all pods at once.
     */
    std::vector<double> podDiskC;

    /** Cold-aisle relative humidity [%]. */
    double coldAisleRhPercent = 50.0;

    /** Cold-aisle absolute humidity [g/m^3] (derived). */
    double coldAisleAbsHumidity = 8.0;

    /** Hot-aisle temperature [°C]. */
    double hotAisleC = 30.0;

    /** Outside dry-bulb temperature [°C]. */
    double outsideC = 20.0;

    /** Outside relative humidity [%]. */
    double outsideRhPercent = 50.0;

    /** Outside absolute humidity [g/m^3]. */
    double outsideAbsHumidity = 8.0;

    /** Physical snapshot of the cooling units, as sensors report it. */
    cooling::UnitState cooling;

    /** Cooling power draw [W]. */
    double coolingPowerW = 0.0;

    /** IT power draw [W]. */
    double itPowerW = 0.0;

    /** Fraction of all servers awake [0..1]. */
    double dcUtilization = 1.0;

    /** Warmest pod inlet reading.  Inline: the controller and the
        metrics collector each call this every sample. */
    double maxPodInletC() const
    {
        double hi = -1e9;
        for (double t : podInletC)
            hi = std::max(hi, t);
        return hi;
    }

    /** Mean pod inlet reading. */
    double avgPodInletC() const
    {
        if (podInletC.empty())
            return 0.0;
        double sum = 0.0;
        for (double t : podInletC)
            sum += t;
        return sum / double(podInletC.size());
    }
};

/** Static description of the container and its units. */
struct PlantConfig
{
    int numPods = 8;
    int serversPerPod = 8;

    /**
     * Relative recirculation exposure per pod, 0..1.  Higher values mean
     * more hot-aisle air reaches that pod's inlet.  The parasol()
     * defaults grade from 0.15 at the pod nearest the FC unit to 1.0 at
     * the pod behind the AC duct (Figure 4's layout).
     */
    std::vector<double> podRecirc;

    /** Index of the TKS control sensor's pod (a typically warm spot). */
    int controlPod = 7;

    /** Free-cooling airflow at full fan speed [m^3/s]. */
    double maxFcAirflow = 0.30;

    /** AC circulation airflow at full AC fan speed [m^3/s]. */
    double acAirflow = 0.30;

    /** AC thermal capacity at full compressor speed [W]. */
    double acCapacityW = 3300.0;

    /** Lowest achievable AC supply temperature [°C]. */
    double acSupplyFloorC = 8.0;

    /** AC coil dew temperature for dehumidification [°C]. */
    double acCoilC = 8.0;

    /**
     * Effective thermal volume of each pod inlet node [m^3 of air
     * equivalent], including nearby solid mass.  Sets the fast time
     * constant: ~13 min at Parasol's 15 % minimum fan speed.
     */
    double podEffectiveVolume = 5.5;

    /** Effective thermal volume of the hot-aisle node [m^3 equiv]. */
    double hotAisleEffectiveVolume = 12.0;

    /** Air volume used for humidity balance [m^3]. */
    double humidityVolume = 19.0;

    /** Heat capacity of the slow structural mass [J/K]. */
    double structuralMassJPerK = 6.0e5;

    /** Air <-> structural mass coupling [W/K]. */
    double massCouplingWPerK = 180.0;

    /** Envelope (walls/door) conduction to outside [W/K]. */
    double wallUaWPerK = 25.0;

    /** Envelope air leakage for humidity exchange [m^3/s]. */
    double leakageFlow = 0.004;

    /** Max hot->cold recirculation flow when sealed [m^3/s]. */
    double recircFlowClosed = 0.08;

    /** Residual recirculation flow under full FC wind-tunnel [m^3/s]. */
    double recircFlowOpen = 0.006;

    /**
     * Fraction of a pod's own server exhaust that leaks back over the
     * rack top into its own inlet (scaled by the pod's recirculation
     * exposure).  This is the *local* heat-recirculation path that makes
     * spatial placement matter: a loaded high-recirculation pod stays
     * consistently warm from its own exhaust and is proportionally less
     * exposed to cooling-infrastructure swings.
     */
    double localRecircFraction = 0.12;

    /** Residual fraction of local recirculation under forced airflow. */
    double localRecircFloor = 0.50;

    /** Whether the adiabatic (evaporative) pre-cooler is installed. */
    bool hasEvaporativeCooler = false;

    /**
     * Evaporative effectiveness: fraction of the dry-bulb-to-wet-bulb
     * gap the pre-cooler closes (typical media: 0.6-0.85).
     */
    double evapEffectiveness = 0.75;

    /** Per awake, idle server power [W]. */
    double serverIdleW = 22.0;

    /** Additional per-server power at 100 % busy [W]. */
    double serverBusySpanW = 8.0;

    /** Per sleeping (ACPI S3) server power [W]. */
    double serverSleepW = 2.0;

    /** Airflow through servers per awake server [m^3/s]. */
    double serverAirflow = 0.008;

    /** Disk temperature offset above inlet at idle [°C]. */
    double diskOffsetIdleC = 5.0;

    /** Additional disk offset at 100 % disk utilization [°C]. */
    double diskOffsetBusySpanC = 12.0;

    /** Disk thermal time constant [s]. */
    double diskTauS = 900.0;

    /** Std-dev of temperature sensor noise [°C] (±0.5 °C accuracy). */
    double sensorNoiseC = 0.2;

    /** Std-dev of humidity sensor noise [% RH]. */
    double humiditySensorNoisePercent = 1.0;

    /** Actuator personality and power model. */
    cooling::ActuatorConfig actuators;

    /** Parasol as built: abrupt actuators, default geometry. */
    static PlantConfig parasol();

    /** Parasol with the smooth cooling units of §5.1. */
    static PlantConfig smoothParasol();

    /** Smooth Parasol with the adiabatic pre-cooler installed. */
    static PlantConfig smoothParasolEvaporative();

    /**
     * Smooth Parasol with a chilled-water backup loop instead of the DX
     * AC (§6: strike the proper power ratio per [23]): higher thermal
     * capacity, much better COP, and an air-handler fan in place of the
     * DX unit's fan.
     */
    static PlantConfig smoothParasolChiller();

    /** Total number of servers. */
    int totalServers() const { return numPods * serversPerPod; }
};

/**
 * One-entry exp() memo.  A thermal node's decay exponent is piecewise-
 * constant in time (it moves only when dt, fan speeds or awake-server
 * counts change), so remembering the last argument skips the libm call
 * on almost every steady-state step.  Starts as the exact pair
 * (0, exp(0)), so it never holds a value exp() would not return.
 */
struct ExpMemo
{
    double arg = 0.0;
    double val = 1.0;
};

/**
 * The state of L Parasol plants ("lanes") sharing one PlantConfig, in
 * structure-of-arrays layout: per-pod arrays are pod-major, lane-minor
 * ([pod * lanes + lane]), per-lane arrays are [lane].  Plant holds one
 * lane, BatchedPlant many; the equations that step it are written once
 * in plant/parasol_equations.hpp.  Data only, plus scratch for the
 * passes of a step.
 */
struct PlantLanes
{
    /**
     * One lane per seed; util::fatal on an invalid config or no seeds.
     * Pass scratch is sized for transcendental passes that run over
     * whole multiples of @p pass_width doubles.
     */
    PlantLanes(const PlantConfig &config, const std::vector<uint64_t> &seeds,
               int pass_width);

    PlantConfig config;
    int lanes;
    int pods;

    // Per-lane components.
    std::vector<cooling::Actuators> act;
    std::vector<util::Rng> rng;

    // Box-Muller spare: lanes draw in lockstep, so whether a spare
    // exists is shared; its value is per lane.
    bool haveSpare = false;
    std::vector<double> spare, newSpare;

    util::SimTime now;

    // [pod * lanes + lane]
    std::vector<double> podTempC, podTempScratchC, podPowerW, podUtil;
    std::vector<int> podAwake;
    std::vector<double> diskTempC;

    // [lane]
    std::vector<double> hotAisleC, massTempC, coldAbsHumidity;
    std::vector<double> itPowerW, dcUtilization;
    std::vector<environment::WeatherSample> lastOutside;

    // Constant per config.
    double acCoilAbsHumidity;  ///< absoluteHumidity(acCoilC, 100 %)
    double recircWeightSum;    ///< sum of podRecirc

    // Decay-factor memos: mass and disk (constant per dt), and one per
    // exp call site of the relaxation passes, used by the strict
    // instance (see parasol_equations.hpp).
    ExpMemo massExp, diskExp;
    std::vector<ExpMemo> passExp;

    // Actuator prologue, [lane].
    std::vector<double> uComp, qFc, qAc, intakeC, intakeAbs;
    std::vector<unsigned char> evapOn;
    std::vector<int> awakeCount;
    std::vector<double> outTempC, outAbsHumidity;

    // Pass scratch.  Transcendental passes may run over whole vectors
    // past the lanes; that padding starts and stays finite.
    std::vector<double> expArg, expVal, target, conductance, suppress;
    std::vector<double> recircTotal, localSup, acSupply, qFcPod, qAcPod;
    std::vector<double> hotTarget, humTarget, podTempSum, coldAvg, awakeSum;
    std::vector<double> u1, u2, zCos, zSin, draws, svpCold, svpOut;
};

/**
 * The ground-truth plant.  Deterministic given its seed; step() advances
 * physics, readSensors() samples noisy observations.  The one-lane,
 * strict-IEEE instance of the Parasol equations: the bit-exact oracle
 * the batched plant is measured against.
 */
class Plant
{
  public:
    Plant(const PlantConfig &config, uint64_t seed = 1);

    /** The configuration in effect. */
    const PlantConfig &config() const { return _lanes.config; }

    /**
     * Advance physics by @p dt_s seconds under the given outside weather
     * and IT load, with the cooling units commanded to @p command.
     */
    void step(double dt_s, const environment::WeatherSample &outside,
              const PodLoad &load, const cooling::Regime &command);

    /** Noisy sensor observations of the current state. */
    SensorReadings readSensors();

    /**
     * Read sensors into a caller-owned buffer (the engine reuses one
     * across the whole run, so steady-state sampling allocates nothing).
     * Identical observations and noise-stream consumption to
     * readSensors().
     */
    void readSensors(SensorReadings &out);

    /** Noise-free pod inlet temperature (for validation metrics). */
    double truePodInletC(int pod) const;

    /** Noise-free cold-aisle relative humidity. */
    double trueColdAisleRh() const;

    /** Noise-free disk temperature for a pod. */
    double diskTempC(int pod) const;

    /**
     * Fault injection: freeze pod @p pod's temperature sensor at
     * @p value_c (it keeps reporting that reading until cleared).
     * Models the stuck-sensor failure mode management must survive.
     */
    void injectStuckSensor(int pod, double value_c);

    /** Clear all injected sensor faults. */
    void clearSensorFaults();

    /** Hot-aisle temperature. */
    double hotAisleC() const { return _lanes.hotAisleC[0]; }

    /** Structural mass temperature. */
    double massTempC() const { return _lanes.massTempC[0]; }

    /** Current IT power [W]. */
    double itPowerW() const { return _lanes.itPowerW[0]; }

    /** Current cooling power [W]. */
    double coolingPowerW() const { return _lanes.act[0].coolingPowerW(); }

    /** The actuator model (for inspecting actual fan speeds). */
    const cooling::Actuators &actuators() const { return _lanes.act[0]; }

    /**
     * Jump the air/mass state to equilibrium-ish values for @p outside
     * conditions.  Used to start runs without a long warm-up transient.
     */
    void initializeSteadyState(const environment::WeatherSample &outside,
                               double inside_offset_c = 6.0);

  private:
    PlantLanes _lanes;

    int _stuckSensorPod = -1;
    double _stuckSensorValueC = 0.0;
};

} // namespace plant
} // namespace coolair

#endif // COOLAIR_PLANT_PARASOL_HPP
