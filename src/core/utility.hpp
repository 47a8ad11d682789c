#ifndef COOLAIR_CORE_UTILITY_HPP
#define COOLAIR_CORE_UTILITY_HPP

/**
 * @file
 * The Cooling Optimizer's utility (penalty) function, paper §3.2:
 * identical penalty units are charged for each 0.5 °C above the maximum
 * temperature, each 1 °C/hour of change rate beyond 20 °C/hour, each
 * 0.5 °C outside the temperature band, each 5 % of relative humidity
 * outside the humidity band, and for running the AC at full compressor
 * speed.  The value of a cooling regime is the sum over the sensors of
 * all active pods along the predicted trajectory.  Table 1's CoolAir
 * versions enable different penalty components, so each component has a
 * switch here.
 *
 * This header is the one definition of the penalty's terms.  Both
 * candidate scorers call them, each in its own accumulation order: the
 * strict rollout (CoolingPredictor::scoreStrict) and the lane kernels
 * (core/predictor_kernels.cpp).  The terms are static inline so
 * the fast-math kernel TU and the strict TUs each compile their own copy
 * (DESIGN.md §10, the linkage rule).
 */

#include <algorithm>
#include <cmath>

#include "core/band.hpp"

namespace coolair {
namespace core {

/** Which penalty components a CoolAir version cares about. */
struct UtilityConfig
{
    /** Penalize exceeding the desired maximum temperature. */
    bool penalizeMaxTemp = true;
    double maxTempC = 30.0;

    /** Penalize readings outside the temperature band. */
    bool penalizeBand = true;

    /** Penalize air-temperature change rate beyond the ASHRAE limit. */
    bool penalizeRate = true;
    double maxRateCPerHour = 20.0;

    /** Penalize relative humidity outside the humidity band. */
    bool penalizeHumidity = true;
    double humidityMaxPercent = 80.0;
    double humidityMinPercent = 10.0;

    /** Penalize turning the AC compressor on at full speed. */
    bool penalizeAcFull = true;

    /**
     * If true, predicted cooling energy breaks ties (and nudges) among
     * near-equal candidates.  Weight per kWh, small relative to one
     * violation unit.
     */
    bool energyAware = true;
    double energyWeightPerKwh = 5.0;

    /**
     * Penalty units charged when a candidate changes the cooling-regime
     * class (closed / fc / ac-fan / ac-comp) relative to the current
     * one.  Damps chattering between strong cooling and sealing when
     * model error makes both look attractive in alternation; large
     * violations still force a switch.
     */
    double switchPenalty = 1.0;

    /**
     * Small preference for trajectories that end near the band center
     * (units per °C per sensor, charged on the final predicted step
     * only).  Keeps the controller from coasting to a band edge and
     * then needing a large correction; only meaningful when the band
     * penalty is enabled.
     */
    double centeringWeightPerC = 0.0;
};

/**
 * The temperature and humidity terms' rates and limits for one epoch
 * (penaltyWeights()).  A component's rate is its unit rate when it is
 * enabled and 0 when not, so a disabled term adds +0.0 at any finite
 * temperature.
 */
struct PenaltyWeights
{
    double maxTemp = 0.0;          ///< 2 per °C (a unit per 0.5 °C) or 0
    double maxTempC = 0.0;
    double band = 0.0;             ///< 2 per °C or 0
    double bandLowC = 0.0;
    double bandHighC = 0.0;
    double rate = 0.0;             ///< 1 per °C/h per hour or 0
    double maxRateCPerHour = 0.0;
    double stepH = 0.0;            ///< Model step [h].
    double rateStepH = 0.0;        ///< The rate's divisor, max(stepH, 1e-9).
    bool humidity = false;         ///< Charge RH outside its band.
    double humidityMaxPercent = 0.0;
    double humidityMinPercent = 0.0;
    double center = 0.0;           ///< Final-step centering weight, 0 = off.
    double centerC = 0.0;          ///< Band center [°C].
};

/** @p config's penalty under today's @p band at a model step of
    @p stepH hours. */
static inline PenaltyWeights
penaltyWeights(const UtilityConfig &config, const TemperatureBand &band,
               double stepH)
{
    PenaltyWeights w;
    w.maxTemp = config.penalizeMaxTemp ? 2.0 : 0.0;
    w.maxTempC = config.maxTempC;
    w.band = config.penalizeBand ? 2.0 : 0.0;
    w.bandLowC = band.lowC;
    w.bandHighC = band.highC;
    w.rate = config.penalizeRate ? 1.0 : 0.0;
    w.maxRateCPerHour = config.maxRateCPerHour;
    w.stepH = stepH;
    w.rateStepH = std::max(stepH, 1e-9);
    w.humidity = config.penalizeHumidity;
    w.humidityMaxPercent = config.humidityMaxPercent;
    w.humidityMinPercent = config.humidityMinPercent;
    w.center = config.penalizeBand && config.centeringWeightPerC > 0.0
                   ? config.centeringWeightPerC
                   : 0.0;
    w.centerC = band.center();
    return w;
}

/** One active pod's step terms, summed by each scorer in this order. */
struct PodTerms
{
    double maxTemp;
    double band;
    double rate;
};

/**
 * One active pod's step terms at temperature @p t: the max-temp and band
 * terms, and the rate term against @p prev, the pod's temperature one
 * step before.  The rate is pro-rated by the step, so a sustained
 * 1 °C/hour excess over one hour costs one unit at any prediction
 * granularity.  Each term is a compare-select, +0.0 where the component
 * does not fire.
 */
static inline PodTerms
podTerms(const PenaltyWeights &w, double t, double prev)
{
    const double over = t - w.maxTempC;
    const double below = w.bandLowC - t;
    const double above = t - w.bandHighC;
    const double excess =
        std::fabs(t - prev) / w.rateStepH - w.maxRateCPerHour;
    return {w.maxTemp * (over > 0.0 ? over : 0.0),
            w.band * (below > 0.0 ? below : above > 0.0 ? above : 0.0),
            w.rate * (excess > 0.0 ? excess : 0.0) * w.stepH};
}

/** One step's humidity term at relative humidity @p rh: the excess over
    the maximum or under the minimum, in units of 5 %. */
static inline double
humidityTerm(const PenaltyWeights &w, double rh)
{
    const double over = rh - w.humidityMaxPercent;
    const double under = w.humidityMinPercent - rh;
    return (over > 0.0 ? over : under > 0.0 ? under : 0.0) / 5.0;
}

/** One active pod's centering pull at its final-step temperature @p t. */
static inline double
centeringTerm(const PenaltyWeights &w, double t)
{
    return w.center * std::fabs(t - w.centerC);
}

} // namespace core
} // namespace coolair

#endif // COOLAIR_CORE_UTILITY_HPP
