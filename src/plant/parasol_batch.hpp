#ifndef COOLAIR_PLANT_PARASOL_BATCH_HPP
#define COOLAIR_PLANT_PARASOL_BATCH_HPP

/**
 * @file
 * Lane-batched (structure-of-arrays) variant of the Parasol plant model.
 *
 * A BatchedPlant steps L independent plant instances — "lanes", one per
 * experiment — in lockstep through one instruction stream.  All lanes
 * share one PlantConfig (same shape); per-lane state lives in flat
 * arrays indexed pod-major, lane-minor (`[pod * lanes + lane]`) so the
 * hot pods x lanes loops are contiguous over lanes and vectorize.
 *
 * The physics transliterates plant/parasol.cpp equation-for-equation,
 * with two structural differences that the batched path's tolerance
 * contract (DESIGN.md §10) covers:
 *
 *  - the per-node ExpMemo of the scalar plant is replaced by gathered
 *    exp() passes over whole argument arrays (plant/parasol_kernels.cpp,
 *    built with fast-math), so decay factors can differ from std::exp
 *    in the last ulps;
 *  - sensor-noise transcendentals (Box-Muller) are likewise evaluated
 *    by a batched kernel, with the *draw order per lane* identical to
 *    util::Rng::normal so every lane consumes the same uniforms as its
 *    scalar twin.
 *
 * Every transcendental pass runs over a whole number of vectors
 * (kernels::paddedLength), so each element goes through the same
 * libmvec code at any lane count: a lane's results are byte-identical
 * whichever lanes share its plant.
 *
 * Branches on actuator/evaporative state are confined to the O(lanes)
 * per-lane prologue; the O(pods x lanes) loops are branch-free.
 */

#include <cstdint>
#include <vector>

#include "cooling/actuators.hpp"
#include "cooling/regime.hpp"
#include "environment/weather.hpp"
#include "plant/parasol.hpp"
#include "util/rng.hpp"
#include "util/sim_time.hpp"

namespace coolair {
namespace plant {

/** L Parasol plants stepped in lockstep (see file comment). */
class BatchedPlant
{
  public:
    /**
     * One lane per entry of @p seeds, all sharing @p config.  Same
     * validation (util::fatal) as the scalar Plant.
     */
    BatchedPlant(const PlantConfig &config,
                 const std::vector<uint64_t> &seeds);

    int lanes() const { return _lanes; }
    const PlantConfig &config() const { return _config; }

    /** Scalar Plant::initializeSteadyState for one lane. */
    void initializeSteadyState(int lane,
                               const environment::WeatherSample &outside,
                               double inside_offset_c = 6.0);

    /**
     * Advance every lane by @p dt_s.  @p outside, @p loads and
     * @p commands are per-lane arrays of length lanes().
     *
     * @p loads_dirty and @p commands_dirty are optional per-lane masks
     * (length lanes(); null = all dirty).  A zero entry promises the
     * lane's load/command is unchanged since the previous step, letting
     * the plant skip the IT-power recompute or actuator re-command for
     * that lane; the resulting state is identical either way.  Loads
     * and commands are piecewise-constant between control epochs, so
     * callers that track changes (the batched engine) skip nearly every
     * per-step recompute.
     */
    void step(double dt_s, const environment::WeatherSample *outside,
              const PodLoad *loads, const cooling::Regime *commands,
              const unsigned char *loads_dirty = nullptr,
              const unsigned char *commands_dirty = nullptr);

    /**
     * Noisy sensor observations for every lane into @p out (array of
     * length lanes()).  Per-lane noise streams consume draws in exactly
     * the scalar readSensors() order.
     */
    void readSensors(SensorReadings *out);

    /** Noise-free pod inlet temperature (oracle tests). */
    double truePodInletC(int lane, int pod) const
    {
        return _podTempC[size_t(pod) * size_t(_lanes) + size_t(lane)];
    }

    /** The actuator model of one lane. */
    const cooling::Actuators &actuators(int lane) const
    {
        return _act[size_t(lane)];
    }

  private:
    /** Heavy lockstep physics; defined in parasol_kernels.cpp. */
    void stepPhysics(double dt_s,
                     const environment::WeatherSample *outside,
                     const PodLoad *loads);

    /** Per-lane IT power/awake bookkeeping (scalar updateItPower).
        Lanes with a zero @p loads_dirty entry keep their cached power
        state (null = recompute every lane). */
    void updateItPower(const PodLoad *loads,
                       const unsigned char *loads_dirty);

    PlantConfig _config;
    int _lanes;
    int _pods;

    // Per-lane scalar components.
    std::vector<cooling::Actuators> _act;
    std::vector<util::Rng> _rng;

    // Box-Muller spare bookkeeping: lanes run in lockstep, so whether a
    // spare exists is shared; its value is per-lane.
    bool _haveSpare = false;
    std::vector<double> _spare;

    util::SimTime _now;

    // SoA state, [pod * lanes + lane].
    std::vector<double> _podTempC;
    std::vector<double> _podTempScratchC;
    std::vector<double> _podPowerW;
    std::vector<int> _podAwake;
    std::vector<double> _podUtil;
    std::vector<double> _diskTempC;

    // Per-lane state, [lane].
    std::vector<double> _hotAisleC;
    std::vector<double> _massTempC;
    std::vector<double> _coldAbsHumidity;
    std::vector<double> _itPowerW;
    std::vector<double> _dcUtilization;
    std::vector<environment::WeatherSample> _lastOutside;

    double _acCoilAbsHumidity = 0.0;

    // dt-constant decay factors (scalar ExpMemo equivalents), refreshed
    // with strict std::exp when dt changes.
    double _cachedDtS = -1.0;
    double _diskAlpha = 1.0;
    double _massAlpha = 1.0;

    // Per-lane prologue scratch (gathered actuator state and derived
    // flows), filled by step() before stepPhysics().
    std::vector<double> _uFcFan, _uAcFan, _uComp;
    std::vector<double> _uDamper;          // 0/1
    std::vector<unsigned char> _evapOn;    // 0/1, cached with the gather
    std::vector<double> _qFc, _qAc;
    std::vector<double> _intakeC, _intakeAbs;

    // Kernel scratch.
    std::vector<double> _expArg, _expVal;
    std::vector<double> _target;
    std::vector<double> _suppress;
    std::vector<double> _recircTotal, _localSup, _acSupply;
    std::vector<double> _hotTarget, _humTarget;
    std::vector<double> _podTempSum, _coldAvg, _awakeSum;
    std::vector<double> _outTempC, _outAbsHumidity;
    std::vector<double> _u1, _u2, _zCos, _zSin, _draws, _newSpare;
    std::vector<double> _svpA, _svpB, _tmpA;
};

} // namespace plant
} // namespace coolair

#endif // COOLAIR_PLANT_PARASOL_BATCH_HPP
