#ifndef COOLAIR_ENVIRONMENT_CLIMATE_EQUATIONS_HPP
#define COOLAIR_ENVIRONMENT_CLIMATE_EQUATIONS_HPP

/**
 * @file
 * The climate's arithmetic, written once over n time points and
 * compiled twice (DESIGN.md §10):
 *
 *  - environment/climate.cpp builds it with the project's strict IEEE
 *    flags at one point, as Climate::sample and Climate::temperature;
 *  - environment/climate_kernels.cpp builds it with
 *    COOLAIR_KERNEL_OPTIONS (fast-math, optionally -march=native) over
 *    a grid, as Climate::sampleGridInto.
 *
 * Include this header from those two translation units only.
 * Climate::evaluate is instantiated on each TU's anonymous-namespace
 * Mode, so each instance has internal linkage and keeps the code its
 * own flags produced.  Mode::points(n) is the number of time points, a
 * compile-time 1 for the strict instance so its loops fold away.  It
 * is inlined into each caller, so temperature() drops the humidity half
 * at compile time (out of line, the forecaster's 288 temperature()
 * calls per day read about 4% slower).
 *
 * The association is part of the strict instance's bits, which
 * Climate.StrictSamplesArePinned holds: each bank sum starts at 0 and
 * adds amplitude * sin(2π * day / period + phase) in bank order, and the
 * synoptic sum is scaled once, after the bank.  The banks are walked
 * outer and the points inner, so the fast instance's loops vectorize
 * through libmvec; check it with -DCOOLAIR_VEC_REPORT=ON.
 */

#include <algorithm>
#include <cmath>

#include "environment/climate.hpp"
#include "physics/psychrometrics.hpp"

namespace coolair {
namespace environment {
namespace {

constexpr double kTwoPi = 2.0 * M_PI;

/** sum[i] = the bank's sinusoids at day[i], added from 0 in bank order. */
template <class Bank>
inline void
bankSum(const Bank &bank, const double *day, double *sum, int n)
{
    for (int i = 0; i < n; ++i)
        sum[i] = 0.0;
    for (const auto &s : bank)
        for (int i = 0; i < n; ++i)
            sum[i] += s.amplitude *
                      std::sin(kTwoPi * day[i] / s.periodDays + s.phase);
}

} // anonymous namespace

template <class Mode>
__attribute__((always_inline)) inline void
Climate::evaluate(util::SimTime start, int64_t step_s, int n,
                  double *scratch, double *temp, double *rh,
                  double *abs) const
{
    const int N = Mode::points(n);
    // The kScratchArrays per-point arrays.
    double *day = scratch, *hour = day + N, *syn = hour + N, *mod = syn + N;
    double *hum = mod + N, *dew = hum + N, *svp_dew = dew + N;
    double *svp_air = svp_dew + N;

    for (int i = 0; i < N; ++i) {
        const util::SimTime t = start + int64_t(i) * step_s;
        day[i] = t.days();
        hour[i] = t.fractionalHourOfDay();
    }

    double peak_day = _params.seasonalPeakDay;
    if (_params.southernHemisphere)
        peak_day = std::fmod(peak_day + 182.5, 365.0);
    double mod_weight = 0.0;
    for (const auto &s : _diurnalModBank)
        mod_weight += s.amplitude;

    bankSum(_bank, day, syn, N);
    bankSum(_diurnalModBank, day, mod, N);
    for (int i = 0; i < N; ++i) {
        // Fractional days keep the seasonal term continuous across
        // midnight.  The synoptic bank's weighted sum has RMS < 1; the
        // scale brings its typical excursion to synopticAmplitudeC.
        const double seasonal =
            _params.seasonalAmplitudeC *
            std::cos(kTwoPi * (day[i] - peak_day) /
                     double(util::kDaysPerYear));
        const double modulation = 1.0 + 0.55 * (mod[i] / mod_weight);
        const double diurnal =
            _params.diurnalAmplitudeC * modulation *
            std::cos(kTwoPi * (hour[i] - _params.diurnalPeakHour) / 24.0);
        temp[i] = _params.annualMeanC + seasonal + diurnal +
                  1.8 * _params.synopticAmplitudeC * syn[i];
    }
    if (!rh)
        return;

    // The dew point can touch but not exceed the air temperature; RH is
    // the ratio of the saturation pressures at the two.
    bankSum(_humidityBank, day, hum, N);
    for (int i = 0; i < N; ++i) {
        const double depression = _params.dewPointDepressionC +
                                  1.6 * _params.dewPointVariabilityC * hum[i];
        dew[i] = temp[i] - std::max(0.0, depression);
    }
    for (int i = 0; i < N; ++i)
        svp_dew[i] = physics::magnusSvp(dew[i]);
    for (int i = 0; i < N; ++i)
        svp_air[i] = physics::magnusSvp(temp[i]);
    for (int i = 0; i < N; ++i) {
        rh[i] = std::max(1.0,
                         std::min(100.0, 100.0 * svp_dew[i] / svp_air[i]));
        abs[i] = physics::absoluteHumidityAt(temp[i], rh[i], svp_air[i]);
    }
}

} // namespace environment
} // namespace coolair

#endif // COOLAIR_ENVIRONMENT_CLIMATE_EQUATIONS_HPP
