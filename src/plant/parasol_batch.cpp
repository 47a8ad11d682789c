/**
 * @file
 * Strict-IEEE TU of the batched plant: construction, per-lane prologue
 * (actuators, IT power, evaporative intake), and batched sensor reads.
 *
 * Anything touching util::Rng, cooling::Actuators or the scalar
 * psychrometric functions lives here, compiled with the project's
 * default flags; only the flat-array loops in parasol_kernels.cpp get
 * fast-math.
 */

#include "plant/parasol_batch.hpp"

#include <algorithm>
#include <cmath>

#include "physics/psychrometrics.hpp"
#include "plant/parasol_kernels.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace coolair {
namespace plant {

BatchedPlant::BatchedPlant(const PlantConfig &config,
                           const std::vector<uint64_t> &seeds)
    : _config(config),
      _lanes(int(seeds.size())),
      _pods(config.numPods),
      _acCoilAbsHumidity(physics::absoluteHumidity(config.acCoilC, 100.0))
{
    if (config.numPods <= 0 || config.serversPerPod <= 0)
        util::fatal("PlantConfig: pods and servers must be positive");
    if (int(config.podRecirc.size()) != config.numPods)
        util::fatal("PlantConfig: podRecirc must have one entry per pod");
    if (config.controlPod < 0 || config.controlPod >= config.numPods)
        util::fatal("PlantConfig: controlPod out of range");
    if (_lanes <= 0)
        util::fatal("BatchedPlant: need at least one lane");

    const size_t L = size_t(_lanes);
    const size_t PL = size_t(_pods) * L;

    _act.reserve(L);
    _rng.reserve(L);
    for (uint64_t seed : seeds) {
        _act.emplace_back(config.actuators);
        _rng.emplace_back(seed, "plant.sensors");
    }
    _spare.assign(L, 0.0);
    _newSpare.assign(L, 0.0);

    // Same initial state as the scalar Plant constructor.
    _podTempC.assign(PL, 22.0);
    _podTempScratchC.assign(PL, 0.0);
    _podPowerW.assign(PL, 0.0);
    _podAwake.assign(PL, 0);
    _podUtil.assign(PL, 0.0);
    _diskTempC.assign(PL, 30.0);
    _hotAisleC.assign(L, 30.0);
    _massTempC.assign(L, 23.0);
    _coldAbsHumidity.assign(L, 8.0);
    _itPowerW.assign(L, 0.0);
    _dcUtilization.assign(L, 1.0);
    _lastOutside.assign(L, environment::WeatherSample{});

    _uFcFan.assign(L, 0.0);
    _uAcFan.assign(L, 0.0);
    _uComp.assign(L, 0.0);
    _uDamper.assign(L, 0.0);
    _evapOn.assign(L, 0);
    _qFc.assign(L, 0.0);
    _qAc.assign(L, 0.0);
    _intakeC.assign(L, 0.0);
    _intakeAbs.assign(L, 0.0);

    // Scratch of the transcendental passes is padded to whole vectors
    // (kernels::paddedLength); the padding starts and stays finite.
    const size_t LP = size_t(kernels::paddedLength(_lanes));
    _expArg.assign(size_t(kernels::paddedLength(int(PL + 2 * L))), 0.0);
    _expVal.assign(_expArg.size(), 0.0);
    _target.assign(PL, 0.0);
    _suppress.assign(LP, 0.0);
    _recircTotal.assign(L, 0.0);
    _localSup.assign(L, 0.0);
    _acSupply.assign(L, 0.0);
    _hotTarget.assign(L, 0.0);
    _humTarget.assign(L, 0.0);
    _podTempSum.assign(L, 0.0);
    _coldAvg.assign(LP, 0.0);
    _awakeSum.assign(L, 0.0);
    _outTempC.assign(L, 0.0);
    _outAbsHumidity.assign(L, 0.0);
    _svpA.assign(LP, 0.0);
    _svpB.assign(LP, 0.0);
    _tmpA.assign(LP, 0.0);
}

void
BatchedPlant::initializeSteadyState(
    int lane, const environment::WeatherSample &outside,
    double inside_offset_c)
{
    const size_t L = size_t(_lanes);
    const size_t l = size_t(lane);
    for (int i = 0; i < _pods; ++i) {
        double grade = _config.podRecirc[size_t(i)] * 2.0;
        _podTempC[size_t(i) * L + l] =
            outside.tempC + inside_offset_c + grade;
    }
    _hotAisleC[l] = outside.tempC + inside_offset_c + 9.0;
    _massTempC[l] = outside.tempC + inside_offset_c + 2.0;
    _coldAbsHumidity[l] = outside.absHumidity;
    for (int i = 0; i < _pods; ++i)
        _diskTempC[size_t(i) * L + l] =
            _podTempC[size_t(i) * L + l] + _config.diskOffsetIdleC + 5.0;
    _lastOutside[l] = outside;
}

void
BatchedPlant::updateItPower(const PodLoad *loads,
                            const unsigned char *loads_dirty)
{
    const size_t L = size_t(_lanes);
    for (int l = 0; l < _lanes; ++l) {
        if (loads_dirty && !loads_dirty[l])
            continue;  // Unchanged load: cached power state still holds.
        const PodLoad &load = loads[l];
        if (int(load.activeServers.size()) != _pods ||
            int(load.utilization.size()) != _pods) {
            util::panic("BatchedPlant::step: PodLoad arity != numPods");
        }
        double power = 0.0;
        int awake = 0;
        for (int i = 0; i < _pods; ++i) {
            int act = std::clamp(load.activeServers[size_t(i)], 0,
                                 _config.serversPerPod);
            double util_i =
                util::clamp(load.utilization[size_t(i)], 0.0, 1.0);
            double pod_power =
                double(act) * (_config.serverIdleW +
                               _config.serverBusySpanW * util_i) +
                double(_config.serversPerPod - act) * _config.serverSleepW;
            const size_t idx = size_t(i) * L + size_t(l);
            _podPowerW[idx] = pod_power;
            _podAwake[idx] = act;
            _podUtil[idx] = util_i;
            power += pod_power;
            awake += act;
        }
        _itPowerW[size_t(l)] = power;
        _dcUtilization[size_t(l)] =
            double(awake) / double(_config.totalServers());
    }
}

void
BatchedPlant::step(double dt_s, const environment::WeatherSample *outside,
                   const PodLoad *loads, const cooling::Regime *commands,
                   const unsigned char *loads_dirty,
                   const unsigned char *commands_dirty)
{
    if (dt_s <= 0.0)
        util::panic("BatchedPlant::step: dt must be positive");

    // dt-constant decay factors, strict exp (scalar ExpMemo twins).
    if (dt_s != _cachedDtS) {
        _cachedDtS = dt_s;
        _diskAlpha = std::exp(-dt_s / _config.diskTauS);
        _massAlpha = std::exp(-_config.massCouplingWPerK * dt_s /
                              _config.structuralMassJPerK);
    }

    // Abrupt actuators snap to the command and then hold: with a clean
    // command mask the gathered state (fans, damper, flows) is exactly
    // last step's, so the whole gather is skipped.  Smooth actuators
    // ramp every step and always re-gather.
    const bool settles =
        _config.actuators.style == cooling::ActuatorStyle::Abrupt;
    for (int l = 0; l < _lanes; ++l) {
        const bool cmd_dirty = !commands_dirty || commands_dirty[l];
        if (cmd_dirty)
            _act[size_t(l)].setCommand(commands[l]);
        if (cmd_dirty || !settles) {
            _act[size_t(l)].step(dt_s);
            const auto &unit = _act[size_t(l)].state();
            _uFcFan[size_t(l)] = unit.fcFanSpeed;
            _uAcFan[size_t(l)] = unit.acFanSpeed;
            _uComp[size_t(l)] = unit.compressorSpeed;
            _uDamper[size_t(l)] = unit.damperOpen ? 1.0 : 0.0;
            _evapOn[size_t(l)] = unit.evapOn ? 1 : 0;

            double q_fc = unit.damperOpen
                              ? unit.fcFanSpeed * _config.maxFcAirflow
                              : 0.0;
            _qFc[size_t(l)] = q_fc;
            _qAc[size_t(l)] = unit.acFanSpeed * _config.acAirflow;
        }

        // Intake conditions, incl. the adiabatic pre-cooler; the wetBulb
        // transcendental stays on the strict scalar implementation
        // (evaporative lanes only — off the common path).
        const double q_fc = _qFc[size_t(l)];
        double intake_c = outside[l].tempC;
        double intake_abs = outside[l].absHumidity;
        if (_config.hasEvaporativeCooler && _evapOn[size_t(l)] != 0 &&
            q_fc > 0.0) {
            double wb =
                physics::wetBulb(outside[l].tempC, outside[l].rhPercent);
            intake_c = outside[l].tempC -
                       _config.evapEffectiveness * (outside[l].tempC - wb);
            double sat_at_wb = physics::absoluteHumidity(wb, 100.0);
            intake_abs = outside[l].absHumidity +
                         _config.evapEffectiveness *
                             (sat_at_wb - outside[l].absHumidity);
            intake_abs = std::min(
                intake_abs, physics::absoluteHumidity(intake_c, 100.0));
        }
        _intakeC[size_t(l)] = intake_c;
        _intakeAbs[size_t(l)] = intake_abs;
    }

    updateItPower(loads, loads_dirty);
    stepPhysics(dt_s, outside, loads);

    for (int l = 0; l < _lanes; ++l)
        _lastOutside[size_t(l)] = outside[l];
    _now += int64_t(dt_s);
}

void
BatchedPlant::readSensors(SensorReadings *out)
{
    const int L = _lanes;
    const int pods = _pods;
    const int n_draws = pods + 4;

    // Gather uniforms for the fresh Box-Muller pairs each lane needs,
    // in exactly util::Rng::normal's draw order (rejection loop on u1).
    const int have = _haveSpare ? 1 : 0;
    const int fresh = n_draws - have;
    const int npairs = (fresh + 1) / 2;
    const bool carry = (fresh % 2) == 1;

    const size_t n_pairs = size_t(npairs) * size_t(L);
    const int n_box = kernels::paddedLength(int(n_pairs));
    _u1.resize(size_t(n_box));
    _u2.resize(size_t(n_box));
    _zCos.resize(size_t(n_box));
    _zSin.resize(size_t(n_box));
    _draws.resize(size_t(n_draws) * size_t(L));

    for (int l = 0; l < L; ++l) {
        util::Rng &rng = _rng[size_t(l)];
        for (int p = 0; p < npairs; ++p) {
            double u1;
            do {
                u1 = rng.uniform();
            } while (u1 <= 0.0);
            const size_t k = size_t(l) * size_t(npairs) + size_t(p);
            _u1[k] = u1;
            _u2[k] = rng.uniform();
        }
    }
    // Whole-vector padding (kernels::paddedLength): u1 = 0.5 keeps the
    // log finite.  Refilled every call, since the kernel clobbers u1/u2.
    std::fill(_u1.begin() + ptrdiff_t(n_pairs), _u1.end(), 0.5);
    std::fill(_u2.begin() + ptrdiff_t(n_pairs), _u2.end(), 0.0);
    kernels::boxMullerN(_u1.data(), _u2.data(), _zCos.data(),
                        _zSin.data(), n_box);

    // Distribute: optional spare first, then cos/sin per pair; an odd
    // fresh count leaves the final sin as the next call's spare.
    for (int l = 0; l < L; ++l) {
        double *dr = _draws.data() + size_t(l) * size_t(n_draws);
        int idx = 0;
        if (_haveSpare)
            dr[idx++] = _spare[size_t(l)];
        const double *zc = _zCos.data() + size_t(l) * size_t(npairs);
        const double *zs = _zSin.data() + size_t(l) * size_t(npairs);
        for (int p = 0; p < npairs; ++p) {
            dr[idx++] = zc[p];
            if (idx < n_draws)
                dr[idx++] = zs[p];
            else
                _newSpare[size_t(l)] = zs[p];
        }
    }
    if (carry)
        std::swap(_spare, _newSpare);
    _haveSpare = carry;

    // Phase 1: everything except the psychrometric conversions.
    const double t_sd = _config.sensorNoiseC;
    const double h_sd = _config.humiditySensorNoisePercent;
    for (int l = 0; l < L; ++l) {
        const double *dr = _draws.data() + size_t(l) * size_t(n_draws);
        SensorReadings &o = out[l];
        o.time = _now;
        o.podInletC.resize(size_t(pods));
        double cold_sum = 0.0;
        for (int i = 0; i < pods; ++i) {
            const size_t idx = size_t(i) * size_t(L) + size_t(l);
            o.podInletC[size_t(i)] = _podTempC[idx] + t_sd * dr[i];
            cold_sum += _podTempC[idx];
        }
        _coldAvg[size_t(l)] = cold_sum / double(pods);

        o.hotAisleC = _hotAisleC[size_t(l)] + t_sd * dr[pods + 1];
        o.outsideC = _lastOutside[size_t(l)].tempC + t_sd * dr[pods + 2];
        o.outsideRhPercent = util::clamp(
            _lastOutside[size_t(l)].rhPercent + h_sd * dr[pods + 3], 0.0,
            100.0);
        _tmpA[size_t(l)] = o.outsideC;

        const auto &unit = _act[size_t(l)].state();
        o.cooling.mode = unit.mode;
        o.cooling.fcFanSpeed = unit.fcFanSpeed;
        o.cooling.acFanSpeed = unit.acFanSpeed;
        o.cooling.compressorSpeed = unit.compressorSpeed;
        o.cooling.damperOpen = unit.damperOpen;
        o.cooling.evapOn = unit.evapOn;

        o.coolingPowerW = _act[size_t(l)].coolingPowerW();
        o.itPowerW = _itPowerW[size_t(l)];
        o.dcUtilization = _dcUtilization[size_t(l)];

        o.podDiskC.resize(size_t(pods));
        for (int i = 0; i < pods; ++i)
            o.podDiskC[size_t(i)] =
                _diskTempC[size_t(i) * size_t(L) + size_t(l)];
    }

    // Phase 2: humidity conversions with batched saturation pressures,
    // over whole vectors (the padding of both inputs stays 0).
    const int n_svp = kernels::paddedLength(L);
    physics::saturationVaporPressureN(_coldAvg.data(), _svpA.data(), n_svp);
    physics::saturationVaporPressureN(_tmpA.data(), _svpB.data(), n_svp);
    for (int l = 0; l < L; ++l) {
        const double *dr = _draws.data() + size_t(l) * size_t(n_draws);
        SensorReadings &o = out[l];
        double cold_avg = _coldAvg[size_t(l)];
        double kelvin = cold_avg + 273.15;
        double rh = 100.0 *
                    (_coldAbsHumidity[size_t(l)] / 1000.0 *
                     physics::kVaporGasConstant * kelvin) /
                    _svpA[size_t(l)];
        rh = util::clamp(rh + h_sd * dr[pods], 0.0, 100.0);
        o.coldAisleRhPercent = rh;
        o.coldAisleAbsHumidity = 1000.0 * (_svpA[size_t(l)] * rh / 100.0) /
                                 (physics::kVaporGasConstant * kelvin);
        double out_kelvin = o.outsideC + 273.15;
        o.outsideAbsHumidity =
            1000.0 * (_svpB[size_t(l)] * o.outsideRhPercent / 100.0) /
            (physics::kVaporGasConstant * out_kelvin);
    }
}

} // namespace plant
} // namespace coolair
