/**
 * @file
 * Batched-scorer kernels.  This TU is compiled with
 * COOLAIR_KERNEL_OPTIONS (see the top-level CMakeLists.txt): fast-math
 * and the native ISA, so GCC vectorizes the pod loops and may
 * reassociate reductions — covered by the batched path's tolerance
 * contract (DESIGN.md §10).  Keep the loops free of per-element
 * branches; express conditionals as compare-selects, which vectorize
 * without fast-math too (a libm max call does not).
 */

#include "core/predictor_kernels.hpp"

#include <cmath>

#include "physics/psychrometrics.hpp"

namespace coolair {
namespace core {
namespace kernels {

void
collapseBankN(int pods, int stride, const double *__restrict WT,
              double out_c, double out_prev, double fan_prev,
              double fan_prev_slope, double dc_u,
              const double *__restrict pf, int pods8,
              double *__restrict bank)
{
    // TempFeatures order: {1, insideC, insidePrevC, outsideC,
    // outsidePrevC, fan, fanPrev, dcUtil, fan*insideC, fan*outsideC,
    // podPowerFraction}.  Term 1 gives a and 8 its fan slope, 2 gives b,
    // 5, 9 and the fan-prev slope the constant's fan slope, the rest its
    // fan-free part.
    const int64_t S = stride;
    const int64_t P = pods8;
    const double *w0 = WT;
    const double *w1 = WT + S;
    const double *w2 = WT + 2 * S;
    const double *w3 = WT + 3 * S;
    const double *w4 = WT + 4 * S;
    const double *w5 = WT + 5 * S;
    const double *w6 = WT + 6 * S;
    const double *w7 = WT + 7 * S;
    const double *w8 = WT + 8 * S;
    const double *w9 = WT + 9 * S;
    const double *w10 = WT + 10 * S;
    double *a = bank;
    double *a_fan = bank + P;
    double *b = bank + 2 * P;
    double *c = bank + 3 * P;
    double *c_fan = bank + 4 * P;
    for (int64_t p = 0; p < pods; ++p) {
        a[p] = w1[p];
        a_fan[p] = w8[p];
        b[p] = w2[p];
        c[p] = w0[p] + w3[p] * out_c + w4[p] * out_prev + w6[p] * fan_prev +
               w7[p] * dc_u + w10[p] * pf[p];
        c_fan[p] = w5[p] + w6[p] * fan_prev_slope + w9[p] * out_c;
    }
    for (int64_t p = pods; p < P; ++p)
        a[p] = a_fan[p] = b[p] = c[p] = c_fan[p] = 0.0;
}

namespace {

/** Pod @p k's affine map: banks @p on / @p off blended by @p s. */
inline void
affineAt(const double *__restrict on, const double *__restrict off,
         int64_t P, int64_t k, double s, double fan, double &a, double &b,
         double &c)
{
    const double a_on = on[k] + on[P + k] * fan;
    const double a_off = off[k] + off[P + k] * fan;
    const double c_on = on[3 * P + k] + on[4 * P + k] * fan;
    const double c_off = off[3 * P + k] + off[4 * P + k] * fan;
    a = a_off + (a_on - a_off) * s;
    b = off[2 * P + k] + (on[2 * P + k] - off[2 * P + k]) * s;
    c = c_off + (c_on - c_off) * s;
}

/** One step's temperature terms for a pod at @p x, @p prev before. */
inline double
stepTerm(const TempPenalty &w, double x, double prev)
{
    const double over = x - w.maxTempC;
    const double below = w.bandLowC - x;
    const double above = x - w.bandHighC;
    const double excess =
        std::fabs(x - prev) * w.invStepH - w.maxRateCPerHour;
    double term = w.wMaxTemp * (over > 0.0 ? over : 0.0);
    term += w.wBand * (below > 0.0 ? below : above > 0.0 ? above : 0.0);
    term += w.wRate * (excess > 0.0 ? excess : 0.0) * w.stepH;
    return term;
}

} // anonymous namespace

double
rolloutPenaltyN(int pods8, int horizon, const CandidateMaps &m,
                const double *__restrict T0, const double *__restrict Tprev0,
                const double *__restrict mask, const TempPenalty &w,
                double inv_pods, double *__restrict laneSum,
                double *__restrict podAvg, int64_t avg_stride)
{
    constexpr int W = kPodBlock;
    const int64_t P = pods8;
    for (int64_t i = 0; i < int64_t(horizon) * W; ++i)
        laneSum[i] = 0.0;
    double pen[W] = {};
    for (int64_t blk = 0; blk < P; blk += W) {
        double a0[W], b0[W], c0[W], a1[W], b1[W], c1[W], t[W], tp[W];
        for (int i = 0; i < W; ++i) {
            affineAt(m.firstOn, m.firstOff, P, blk + i, m.s, m.fan, a0[i],
                     b0[i], c0[i]);
            affineAt(m.restOn, m.restOff, P, blk + i, m.s, m.fan, a1[i],
                     b1[i], c1[i]);
            t[i] = T0[blk + i];
            tp[i] = Tprev0[blk + i];
        }
        const double *mk = mask + blk;
        auto advance = [&](const double *a, const double *b, const double *c,
                           double *sum) {
            for (int i = 0; i < W; ++i) {
                const double x = a[i] * t[i] + b[i] * tp[i] + c[i];
                pen[i] += mk[i] * stepTerm(w, x, t[i]);
                tp[i] = t[i];
                t[i] = x;
                sum[i] += x;
            }
        };
        advance(a0, b0, c0, laneSum);
        for (int step = 1; step < horizon; ++step)
            advance(a1, b1, c1, laneSum + int64_t(step) * W);
        for (int i = 0; i < W; ++i)
            pen[i] += w.wCenter * mk[i] * std::fabs(t[i] - w.centerC);
    }
    for (int step = 0; step < horizon; ++step) {
        const double *sum = laneSum + int64_t(step) * W;
        double acc = 0.0;
        for (int i = 0; i < W; ++i)
            acc += sum[i];
        podAvg[step * avg_stride] = acc * inv_pods;
    }
    double total = 0.0;
    for (int i = 0; i < W; ++i)
        total += pen[i];
    return total;
}

void
humidityPenaltyN(int cands, int horizon, const double *__restrict hum,
                 double h0, const double *__restrict avg, double max_rh,
                 double min_rh, double *__restrict h,
                 double *__restrict penalty)
{
    const int64_t C = cands;
    for (int64_t c = 0; c < C; ++c)
        h[c] = h0;
    for (int step = 0; step < horizon; ++step) {
        const double *alpha = hum + (step == 0 ? 0 : 2 * C);
        const double *beta = alpha + C;
        const double *t = avg + int64_t(step) * C;
        for (int64_t c = 0; c < C; ++c) {
            h[c] = alpha[c] * h[c] + beta[c];
            const double rh = physics::relativeHumidityAt(
                t[c], h[c], physics::magnusSvp(t[c]));
            const double over = rh - max_rh;
            const double under = min_rh - rh;
            penalty[c] +=
                (over > 0.0 ? over : under > 0.0 ? under : 0.0) / 5.0;
        }
    }
}

} // namespace kernels
} // namespace core
} // namespace coolair
