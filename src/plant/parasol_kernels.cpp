/**
 * @file
 * plant::BatchedPlant: the Parasol equations (parasol_equations.hpp)
 * built at N lanes with COOLAIR_KERNEL_OPTIONS (-O3 -ffast-math,
 * optionally -march=native), so the lane loops vectorize and
 * exp/log/sin/cos go through libmvec.  The flags stay on this TU's
 * compile line and never reach the link, where crtfastmath.o would set
 * FTZ/DAZ for the whole process.
 */

#include "plant/parasol_batch.hpp"

#include "plant/parasol_equations.hpp"

namespace coolair {
namespace plant {

namespace {

/**
 * Transcendental passes over lane-indexed arrays run over a length
 * rounded up to this many doubles: one 512-bit vector, the widest this
 * TU targets.  A vectorized loop evaluates exp/log/sin/cos through
 * libmvec in its body but through scalar libm in its tail, and the two
 * can round differently; on a whole number of vectors no element
 * reaches the tail, so a lane's bytes do not depend on how many lanes
 * share the plant (DESIGN.md §10).
 */
constexpr int kPassWidth = 8;

__attribute__((noinline)) void
expKernel(int n, const double *__restrict x, double *__restrict out)
{
    for (int i = 0; i < n; ++i)
        out[i] = std::exp(x[i]);
}

/** The fast instance: whole-vector libmvec passes, no memos. */
struct FastMode
{
    static constexpr bool kSplitSinCos = true;

    static int lanes(int n) { return n; }

    static int padded(int n)
    {
        return (n + kPassWidth - 1) / kPassWidth * kPassWidth;
    }

    static void exp(const double *x, double *out, int n, ExpMemo *)
    {
        expKernel(n, x, out);
    }
};

} // anonymous namespace

BatchedPlant::BatchedPlant(const PlantConfig &config,
                           const std::vector<uint64_t> &seeds)
    : _lanes(config, seeds, kPassWidth)
{
}

void
BatchedPlant::initializeSteadyState(
    int lane, const environment::WeatherSample &outside,
    double inside_offset_c)
{
    initializeSteadyStateLane(_lanes, lane, outside, inside_offset_c);
}

void
BatchedPlant::step(double dt_s, const environment::WeatherSample *outside,
                   const PodLoad *loads, const cooling::Regime *commands,
                   const unsigned char *loads_dirty,
                   const unsigned char *commands_dirty)
{
    if (dt_s <= 0.0)
        util::panic("BatchedPlant::step: dt must be positive");
    stepLanes<FastMode>(_lanes, dt_s, outside, loads, commands, loads_dirty,
                        commands_dirty);
}

void
BatchedPlant::readSensors(SensorReadings *out)
{
    readSensorsLanes<FastMode>(_lanes, out);
}

} // namespace plant
} // namespace coolair
