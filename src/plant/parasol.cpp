/**
 * @file
 * The Parasol configurations and plant::Plant: the Parasol equations
 * (parasol_equations.hpp) built with the project's strict IEEE flags at
 * one lane.  This is the bit-exact scalar oracle; its results are
 * pinned by tests/test_scalar_golden.cpp.
 */

#include "plant/parasol.hpp"

#include <numeric>

#include "plant/parasol_equations.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace coolair {
namespace plant {

namespace {

/** The strict instance: passes run over exactly the lanes, and every
    exp call site keeps its own memo (so one lane calls libm exp only
    when a node's decay exponent moves). */
struct StrictMode
{
    static constexpr bool kSplitSinCos = false;

    static constexpr int lanes(int) { return 1; }

    static int padded(int n) { return n; }

    static void exp(const double *x, double *out, int n, ExpMemo *memo)
    {
        for (int i = 0; i < n; ++i)
            out[i] = memoExp(memo[i], x[i]);
    }
};

} // anonymous namespace

PodLoad
PodLoad::uniform(int pods, int servers_per_pod, double util)
{
    PodLoad load;
    load.serversPerPod = servers_per_pod;
    load.activeServers.assign(pods, servers_per_pod);
    load.utilization.assign(pods, util::clamp(util, 0.0, 1.0));
    return load;
}

double
PodLoad::podPowerFraction(int pod) const
{
    if (pod < 0 || pod >= int(activeServers.size()))
        util::panic("PodLoad::podPowerFraction: pod out of range");
    int act = std::clamp(activeServers[size_t(pod)], 0, serversPerPod);
    double u = util::clamp(utilization[size_t(pod)], 0.0, 1.0);
    double watts = double(act) * (22.0 + 8.0 * u) +
                   double(serversPerPod - act) * 2.0;
    return watts / (double(serversPerPod) * 30.0);
}

PlantConfig
PlantConfig::parasol()
{
    PlantConfig c;
    // Recirculation exposure grades across the container: pods near the
    // free-cooling unit see the least recirculation; pods at the far end
    // near the AC duct and partition gaps see the most (Figure 4).
    c.podRecirc = {0.15, 0.24, 0.36, 0.50, 0.60, 0.74, 0.88, 1.00};
    c.controlPod = 7;
    c.actuators.style = cooling::ActuatorStyle::Abrupt;
    return c;
}

PlantConfig
PlantConfig::smoothParasol()
{
    PlantConfig c = parasol();
    c.actuators.style = cooling::ActuatorStyle::Smooth;
    return c;
}

PlantConfig
PlantConfig::smoothParasolEvaporative()
{
    PlantConfig c = smoothParasol();
    c.hasEvaporativeCooler = true;
    return c;
}

PlantConfig
PlantConfig::smoothParasolChiller()
{
    PlantConfig c = smoothParasol();
    // Chilled-water loop: more capacity at a far better COP than the DX
    // unit (COP ~3.5 vs ~1.5), with an air handler instead of the DX fan.
    c.acCapacityW = 5000.0;
    c.actuators.power.acFullW = 1400.0;
    c.actuators.power.acFanOnlyW = 200.0;
    return c;
}

PlantLanes::PlantLanes(const PlantConfig &cfg,
                       const std::vector<uint64_t> &seeds, int pass_width)
    : config(cfg),
      lanes(int(seeds.size())),
      pods(cfg.numPods),
      acCoilAbsHumidity(physics::absoluteHumidity(cfg.acCoilC, 100.0)),
      recircWeightSum(std::accumulate(cfg.podRecirc.begin(),
                                      cfg.podRecirc.end(), 0.0))
{
    if (cfg.numPods <= 0 || cfg.serversPerPod <= 0)
        util::fatal("PlantConfig: pods and servers must be positive");
    if (int(cfg.podRecirc.size()) != cfg.numPods)
        util::fatal("PlantConfig: podRecirc must have one entry per pod");
    if (cfg.controlPod < 0 || cfg.controlPod >= cfg.numPods)
        util::fatal("PlantConfig: controlPod out of range");
    if (lanes <= 0)
        util::fatal("BatchedPlant: need at least one lane");

    const size_t L = size_t(lanes);
    const size_t PL = size_t(pods) * L;
    const size_t w = size_t(pass_width);
    auto padded = [w](size_t n) { return (n + w - 1) / w * w; };
    const size_t LP = padded(L);

    act.assign(L, cooling::Actuators(cfg.actuators));
    rng.reserve(L);
    for (uint64_t seed : seeds)
        rng.emplace_back(seed, "plant.sensors");
    spare.assign(L, 0.0);
    newSpare.assign(L, 0.0);

    podTempC.assign(PL, 22.0);
    podTempScratchC.assign(PL, 0.0);
    podPowerW.assign(PL, 0.0);
    podUtil.assign(PL, 0.0);
    podAwake.assign(PL, 0);
    diskTempC.assign(PL, 30.0);
    hotAisleC.assign(L, 30.0);
    massTempC.assign(L, 23.0);
    coldAbsHumidity.assign(L, 8.0);
    itPowerW.assign(L, 0.0);
    dcUtilization.assign(L, 1.0);
    lastOutside.assign(L, environment::WeatherSample{});

    passExp.assign(L + PL + 2 * L, ExpMemo{});

    uComp.assign(L, 0.0);
    qFc.assign(L, 0.0);
    qAc.assign(L, 0.0);
    intakeC.assign(L, 0.0);
    intakeAbs.assign(L, 0.0);
    evapOn.assign(L, 0);
    awakeCount.assign(L, 0);
    outTempC.assign(LP, 0.0);
    outAbsHumidity.assign(L, 0.0);

    expArg.assign(padded(PL + 2 * L), 0.0);
    expVal.assign(expArg.size(), 0.0);
    target.assign(PL, 0.0);
    conductance.assign(PL, 0.0);
    suppress.assign(LP, 0.0);
    recircTotal.assign(L, 0.0);
    localSup.assign(L, 0.0);
    acSupply.assign(L, 0.0);
    qFcPod.assign(L, 0.0);
    qAcPod.assign(L, 0.0);
    hotTarget.assign(L, 0.0);
    humTarget.assign(L, 0.0);
    podTempSum.assign(L, 0.0);
    coldAvg.assign(LP, 0.0);
    awakeSum.assign(L, 0.0);
    svpCold.assign(LP, 0.0);
    svpOut.assign(LP, 0.0);
}

Plant::Plant(const PlantConfig &config, uint64_t seed)
    : _lanes(config, {seed}, /*pass_width=*/1)
{
}

void
Plant::initializeSteadyState(const environment::WeatherSample &outside,
                             double inside_offset_c)
{
    initializeSteadyStateLane(_lanes, 0, outside, inside_offset_c);
}

void
Plant::step(double dt_s, const environment::WeatherSample &outside,
            const PodLoad &load, const cooling::Regime &command)
{
    if (dt_s <= 0.0)
        util::panic("Plant::step: dt must be positive");
    stepLanes<StrictMode>(_lanes, dt_s, &outside, &load, &command, nullptr,
                          nullptr);
}

SensorReadings
Plant::readSensors()
{
    SensorReadings out;
    readSensors(out);
    return out;
}

void
Plant::readSensors(SensorReadings &out)
{
    readSensorsLanes<StrictMode>(_lanes, &out);
    if (_stuckSensorPod >= 0 && _stuckSensorPod < _lanes.pods)
        out.podInletC[size_t(_stuckSensorPod)] = _stuckSensorValueC;
}

double
Plant::truePodInletC(int pod) const
{
    if (pod < 0 || pod >= _lanes.pods)
        util::panic("Plant::truePodInletC: pod out of range");
    return _lanes.podTempC[size_t(pod)];
}

double
Plant::trueColdAisleRh() const
{
    double cold_avg = 0.0;
    for (double t : _lanes.podTempC)
        cold_avg += t;
    cold_avg /= double(_lanes.pods);
    return physics::relativeHumidity(cold_avg, _lanes.coldAbsHumidity[0]);
}

double
Plant::diskTempC(int pod) const
{
    if (pod < 0 || pod >= _lanes.pods)
        util::panic("Plant::diskTempC: pod out of range");
    return _lanes.diskTempC[size_t(pod)];
}

void
Plant::injectStuckSensor(int pod, double value_c)
{
    if (pod < 0 || pod >= _lanes.pods)
        util::panic("Plant::injectStuckSensor: pod out of range");
    _stuckSensorPod = pod;
    _stuckSensorValueC = value_c;
}

void
Plant::clearSensorFaults()
{
    _stuckSensorPod = -1;
}

} // namespace plant
} // namespace coolair
