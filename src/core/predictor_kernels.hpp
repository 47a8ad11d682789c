#ifndef COOLAIR_CORE_PREDICTOR_KERNELS_HPP
#define COOLAIR_CORE_PREDICTOR_KERNELS_HPP

/**
 * @file
 * Flat-array kernels for the batched candidate scorer
 * (CoolingPredictor::scoreCandidates).  Compiled in their own TU with
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

/** The §3.2 temperature penalty terms' weights and limits. */
struct TempPenalty
{
    double wMaxTemp = 0.0;  ///< 2 (one unit per 0.5 °C) or 0 (off)
    double maxTempC = 0.0;
    double wBand = 0.0;     ///< 2 or 0
    double bandLowC = 0.0;
    double bandHighC = 0.0;
    double wRate = 0.0;     ///< 1 or 0
    double invStepH = 0.0;  ///< 1 / max(step hours, 1e-9)
    double stepH = 0.0;
    double maxRateCPerHour = 0.0;
    double wCenter = 0.0;   ///< final-step centering weight, 0 = off
    double centerC = 0.0;
};

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
 * previous temperatures @p T0 / @p Tprev0 and return its temperature
 * penalty: the masked max-temp, band and rate terms of every step plus
 * the final-step centering pull (each term is zero exactly when the
 * scalar branch would not fire, so masking equals iterating the active
 * pods).  Pods run in blocks of kPodBlock whose temperatures stay in
 * registers through the horizon (@p horizon >= 1).
 * @p podAvg[s * avg_stride] receives step s's pod average (the pod sum
 * times @p inv_pods), and @p laneSum (horizon * kPodBlock) is scratch.
 */
double rolloutPenaltyN(int pods8, int horizon, const CandidateMaps &maps,
                       const double *T0, const double *Tprev0,
                       const double *mask, const TempPenalty &w,
                       double inv_pods, double *laneSum, double *podAvg,
                       int64_t avg_stride);

/**
 * The humidity terms of @p cands candidates in one pass over candidates
 * x steps, vectorized across candidates.  Each candidate's absolute
 * humidity follows `h' = alpha*h + beta` from @p h0; @p hum holds four
 * rows of @p cands: the step-0 alpha and beta, then the steady map's.
 * Its RH is taken at the step's pod average @p avg
 * ([step * cands + cand]), and the excess over @p max_rh or under
 * @p min_rh, in units of 5 %, is added to @p penalty.  @p h (@p cands)
 * is scratch.
 */
void humidityPenaltyN(int cands, int horizon, const double *hum, double h0,
                      const double *avg, double max_rh, double min_rh,
                      double *h, double *penalty);

} // namespace kernels
} // namespace core
} // namespace coolair

#endif // COOLAIR_CORE_PREDICTOR_KERNELS_HPP
