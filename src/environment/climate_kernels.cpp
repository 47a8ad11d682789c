/**
 * @file
 * Grid-evaluated climate sampling for the batched engine: the fast
 * instance of climate_equations.hpp.
 *
 * The batched engine evaluates a whole range of grid points at once.
 * This TU is built with COOLAIR_KERNEL_OPTIONS (fast-math), so the
 * time-inner loops vectorize through libmvec; grid values match
 * sample() to within the fast-math ulp drift documented in DESIGN.md
 * §10.
 */

#include "environment/climate.hpp"

#include <vector>

#include "environment/climate_equations.hpp"

namespace coolair {
namespace environment {

namespace {

/** The fast instance of climate_equations.hpp: every grid point. */
struct FastMode
{
    static int points(int n) { return n; }
};

} // anonymous namespace

void
Climate::sampleGridInto(util::SimTime start, int64_t step_s, int n,
                        WeatherGrid &out) const
{
    out.startTime = start;
    out.stepS = step_s;
    out.tempC.resize(size_t(n));
    out.rhPercent.resize(size_t(n));
    out.absHumidity.resize(size_t(n));
    if (n <= 0)
        return;

    // thread_local so repeated chunk evaluations (one call per lane per
    // chunk) never reallocate; sampling stays safe to run concurrently
    // on one Climate.
    thread_local std::vector<double> scratch;
    scratch.resize(size_t(kScratchArrays) * size_t(n));
    evaluate<FastMode>(start, step_s, n, scratch.data(), out.tempC.data(),
                       out.rhPercent.data(), out.absHumidity.data());
}

} // namespace environment
} // namespace coolair
