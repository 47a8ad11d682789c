#ifndef COOLAIR_PLANT_PARASOL_KERNELS_HPP
#define COOLAIR_PLANT_PARASOL_KERNELS_HPP

/**
 * @file
 * Flat-array math kernels backing the batched plant (parasol_batch.hpp).
 *
 * Implemented in parasol_kernels.cpp, which is built with the
 * COOLAIR_KERNEL_OPTIONS fast-math flags so these loops vectorize
 * through libmvec; see DESIGN.md §10 for the resulting tolerance
 * contract versus the strict scalar path.
 */

namespace coolair {
namespace plant {
namespace kernels {

/**
 * Transcendental passes over lane-indexed arrays run over a length
 * rounded up to this many doubles: one 512-bit vector, the widest the
 * kernel TUs target.  A vectorized loop evaluates exp/log/sin/cos
 * through libmvec in its body but through scalar libm in its tail, and
 * the two can round differently; on a whole number of vectors no
 * element reaches the tail, so a lane's bytes do not depend on how many
 * lanes share the engine (DESIGN.md §10).  Callers size their scratch
 * to paddedLength() and keep the padding finite.
 */
constexpr int kPassWidth = 8;

/** @p n rounded up to a whole number of kPassWidth vectors. */
constexpr int
paddedLength(int n)
{
    return (n + kPassWidth - 1) / kPassWidth * kPassWidth;
}

/** out[i] = exp(x[i]). */
void expN(const double *x, double *out, int n);

/**
 * Box-Muller: for each pair k, with uniforms u1[k] in (0,1] and u2[k]
 * in [0,1), zc[k] = mag*cos(2*pi*u2[k]) and zs[k] = mag*sin(...) with
 * mag = sqrt(-2*log(u1[k])) — the exact transform util::Rng::normal
 * applies, in the same (cos first, sin spare) order.  @p u1 and @p u2
 * are clobbered (reused as magnitude/angle scratch); cos and sin run
 * as separate output arrays because fused sincos has no libmvec
 * vector variant.
 */
void boxMullerN(double *u1, double *u2, double *zc, double *zs, int npairs);

} // namespace kernels
} // namespace plant
} // namespace coolair

#endif // COOLAIR_PLANT_PARASOL_KERNELS_HPP
