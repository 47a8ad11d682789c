#ifndef COOLAIR_PLANT_PARASOL_BATCH_HPP
#define COOLAIR_PLANT_PARASOL_BATCH_HPP

/**
 * @file
 * Lane-batched (structure-of-arrays) Parasol plant.
 *
 * A BatchedPlant steps L independent plant instances — "lanes", one per
 * experiment — in lockstep through one instruction stream.  All lanes
 * share one PlantConfig (same shape); their state is one PlantLanes,
 * pod-major and lane-minor, so the hot pods x lanes loops are contiguous
 * over lanes and vectorize.
 *
 * It is the N-lane instance of the same equations plant::Plant runs at
 * one lane (plant/parasol_equations.hpp), built with fast-math in
 * plant/parasol_kernels.cpp.  Two things differ from the strict
 * instance, and the batched path's tolerance contract (DESIGN.md §10)
 * covers both:
 *
 *  - decay factors and sensor-noise transcendentals come from libmvec
 *    passes over whole arrays instead of per-node memoized std::exp and
 *    scalar libm, so they can differ in the last ulps, and fast-math may
 *    reassociate or contract the arithmetic around them;
 *  - every lane still consumes its noise stream in util::Rng::normal's
 *    draw order, so it uses the same uniforms as its scalar twin.
 *
 * Every transcendental pass runs over a whole number of vectors, so
 * each element goes through the same libmvec code at any lane count: a
 * lane's results are byte-identical whichever lanes share its plant.
 */

#include <cstdint>
#include <vector>

#include "cooling/actuators.hpp"
#include "cooling/regime.hpp"
#include "environment/weather.hpp"
#include "plant/parasol.hpp"

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

    int lanes() const { return _lanes.lanes; }
    const PlantConfig &config() const { return _lanes.config; }

    /** Plant::initializeSteadyState for one lane. */
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
        return _lanes.podTempC[size_t(pod) * size_t(_lanes.lanes) +
                               size_t(lane)];
    }

    /** The actuator model of one lane. */
    const cooling::Actuators &actuators(int lane) const
    {
        return _lanes.act[size_t(lane)];
    }

  private:
    PlantLanes _lanes;
};

} // namespace plant
} // namespace coolair

#endif // COOLAIR_PLANT_PARASOL_BATCH_HPP
