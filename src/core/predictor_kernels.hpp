#ifndef COOLAIR_CORE_PREDICTOR_KERNELS_HPP
#define COOLAIR_CORE_PREDICTOR_KERNELS_HPP

/**
 * @file
 * Flat-array kernels for the batched candidate scorer
 * (CoolingPredictor::scoreLane).  Compiled in their own TU with
 * COOLAIR_KERNEL_OPTIONS (fast-math + native ISA), so everything here
 * lives under the batched path's tolerance contract (DESIGN.md §10) —
 * never call these from the scalar oracle path.
 *
 * Layout conventions (matching the scorer's scratch):
 *   - pods are padded to whole blocks of kPodBlock doubles (one 512-bit
 *     vector); padding pods have zero coefficients, zero temperatures
 *     and a zero mask, so they stay zero and add nothing;
 *   - a collapsed bank is kBankRows rows of the padded pod count:
 *     a, a's fan slope, b, the constant's fan-free part and its fan
 *     slope, so one candidate's affine map `T' = a*T + b*Tprev + c` is
 *     `a = row0 + row1*fan`, `b = row2`, `c = row3 + row4*fan`.
 */

#include <cstdint>

#include "core/utility.hpp"

namespace coolair {
namespace core {
namespace kernels {

/** Pods per block: one 512-bit vector of doubles. */
inline constexpr int kPodBlock = 8;

/** @p pods rounded up to whole blocks. */
constexpr int
paddedPods(int pods)
{
    return (pods + kPodBlock - 1) / kPodBlock * kPodBlock;
}

/** Rows of a collapsed bank (see the file comment). */
inline constexpr int kBankRows = 5;

/**
 * Collapse one temperature-weight bank into its fan-free affine terms,
 * holding every non-state feature at its rollout-constant value.  @p WT
 * is feature-major (TempFeatures::kCount rows of @p stride, the model's
 * pod count); the first @p pods pods are read and @p bank receives
 * kBankRows rows of @p pods8, zero past @p pods.  The fan-prev feature
 * enters as `fan_prev + fan_prev_slope * fan`: the first step's map
 * passes the observed fan and 0, the steady map 0 and 1 (the candidate's
 * own fan).  @p pf is the per-pod power fraction.
 */
void collapseBankN(int pods, int stride, const double *WT, double out_c,
                   double out_prev, double fan_prev, double fan_prev_slope,
                   double dc_u, const double *pf, int pods8, double *bank);

/**
 * One candidate's collapsed maps: compressor-on and -off banks for the
 * first step and the steady steps, blended as `off + (on - off) * s`
 * (the interpolated-AC model; pass the same bank twice otherwise), and
 * the candidate's fan.
 */
struct CandidateMaps
{
    const double *firstOn = nullptr;
    const double *firstOff = nullptr;
    const double *restOn = nullptr;
    const double *restOff = nullptr;
    double s = 0.0;
    double fan = 0.0;
};

/**
 * Roll one candidate out @p horizon steps from the padded current and
 * previous temperatures @p T0 / @p Tprev0 and accumulate its temperature
 * penalty under @p weights: each step's podTerms(), summed per pod and
 * added masked to the pod's lane, plus the final step's masked
 * centeringTerm() (a term is zero where it does not fire, so masking
 * equals iterating the active pods).  Pods run in blocks of
 * kPodBlock whose temperatures stay in registers through the horizon
 * (@p horizon >= 1).
 *
 * After each step the per-pod penalty lanes are summed and @p floor is
 * added; once that reaches @p abandon_at the rollout stops and false is
 * returned.  The lanes only grow and one statement forms every sum, so
 * the @p penalty a completed rollout returns (the last sum) is at least
 * every sum compared before it.  On completion @p podAvg[s] receives
 * step s's pod average (the pod sum times @p inv_pods); @p laneSum
 * (horizon * kPodBlock) is scratch.
 */
bool rolloutPenaltyN(int pods8, int horizon, const CandidateMaps &maps,
                     const double *T0, const double *Tprev0,
                     const double *mask, const PenaltyWeights &weights,
                     double inv_pods, double floor, double abandon_at,
                     double *laneSum, double *podAvg, double &penalty);

/**
 * One candidate's humidity terms added to @p penalty, which is returned.
 * Its absolute humidity follows `h' = alpha*h + beta` from @p h0; @p hum
 * holds the step-0 alpha and beta, then the steady map's.  Its RH is
 * taken at each step's pod average @p avg and charged @p w's
 * humidityTerm().  @p h (horizon) is scratch.
 */
double humidityPenalty(int horizon, const double *hum, double h0,
                       const double *avg, const PenaltyWeights &w,
                       double *h, double penalty);

} // namespace kernels
} // namespace core
} // namespace coolair

#endif // COOLAIR_CORE_PREDICTOR_KERNELS_HPP
