/**
 * @file
 * Flat-array (lane-wise) psychrometric kernels for the batched engine.
 *
 * This translation unit is compiled with COOLAIR_KERNEL_OPTIONS
 * (-O3 -ffast-math, optionally -march=native), which lets the compiler
 * auto-vectorize the transcendental calls through libmvec.  Fast-math is
 * scoped to this TU's COMPILE_OPTIONS — never to link flags — so the
 * scalar path keeps strict IEEE semantics and its bit-identity contract.
 * The loop bodies are the Magnus-Tetens relations of psychrometrics.hpp,
 * which this TU compiles into its own static copies.
 */

#include "physics/psychrometrics.hpp"

namespace coolair {
namespace physics {

void
saturationVaporPressureN(const double *temp_c, double *out, int n)
{
    for (int i = 0; i < n; ++i)
        out[i] = magnusSvp(temp_c[i]);
}

} // namespace physics
} // namespace coolair
