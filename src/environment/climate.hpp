#ifndef COOLAIR_ENVIRONMENT_CLIMATE_HPP
#define COOLAIR_ENVIRONMENT_CLIMATE_HPP

/**
 * @file
 * Parametric synthetic climate model.
 *
 * The paper drives its simulators with "typical meteorological year" (TMY)
 * temperature and humidity data from the US DOE.  Those proprietary files
 * are not available offline, so we substitute a parametric climate model
 * that produces a frozen, deterministic year of weather per location:
 *
 *   T(t) = annual mean
 *        + seasonal sinusoid (hemisphere-phased)
 *        + diurnal sinusoid (peaking mid-afternoon)
 *        + synoptic component (multi-day "weather front" sinusoid bank
 *          with location-seeded pseudo-random phases)
 *
 * Dew point follows a parallel, slower model and is capped below the air
 * temperature; relative humidity is derived psychrometrically.  Because
 * the synthetic year is a pure function of time, it plays the same role
 * TMY data plays in the paper: the "actual" weather is frozen and a
 * forecast of it can be made perfectly accurate or deliberately biased
 * (paper §5.2, "Impact of weather forecast accuracy").
 */

#include <array>
#include <cstdint>
#include <cstddef>
#include <vector>

#include "environment/weather.hpp"
#include "physics/psychrometrics.hpp"
#include "util/sim_time.hpp"

namespace coolair {
namespace environment {

/**
 * A pre-evaluated weather time series on a uniform grid, produced by
 * Climate::sampleGridInto for the batched engine: one contiguous array
 * per field (structure-of-arrays) so downstream consumers index by step
 * without re-deriving the climate's sinusoid bank per query.
 */
struct WeatherGrid
{
    util::SimTime startTime;          ///< Time of grid point 0.
    int64_t stepS = 0;                ///< Grid spacing [s].
    std::vector<double> tempC;        ///< Dry-bulb temperature [°C].
    std::vector<double> rhPercent;    ///< Relative humidity [0..100].
    std::vector<double> absHumidity;  ///< Absolute humidity [g/m^3].

    /** Number of grid points. */
    size_t points() const { return tempC.size(); }

    /** The full observation at grid index @p i. */
    WeatherSample at(size_t i) const
    {
        return WeatherSample{tempC[i], rhPercent[i], absHumidity[i]};
    }
};

/** Parameters describing a location's climate. */
struct ClimateParams
{
    /** Annual mean dry-bulb temperature [°C]. */
    double annualMeanC = 12.0;

    /** Half peak-to-trough seasonal swing [°C]. */
    double seasonalAmplitudeC = 10.0;

    /** Half peak-to-trough average diurnal swing [°C]. */
    double diurnalAmplitudeC = 5.0;

    /** Amplitude of multi-day synoptic (weather front) variability [°C]. */
    double synopticAmplitudeC = 3.0;

    /**
     * Mean difference between air temperature and dew point [°C].
     * Small values mean humid climates; large values arid ones.
     */
    double dewPointDepressionC = 6.0;

    /** Variability of the dew point depression [°C]. */
    double dewPointVariabilityC = 2.0;

    /** True for the southern hemisphere (seasons flipped). */
    bool southernHemisphere = false;

    /** Day of year with the seasonal temperature peak (northern). */
    double seasonalPeakDay = 201.0;

    /** Hour of day of the diurnal peak (solar-afternoon lag). */
    double diurnalPeakHour = 15.0;

    friend bool operator==(const ClimateParams &,
                           const ClimateParams &) = default;
};

/**
 * A frozen synthetic meteorological year for one location.  Thread-safe
 * after construction: sampling is a pure function of time.
 */
class Climate : public WeatherProvider
{
  public:
    /**
     * Build the climate from parameters and a seed.  The seed fixes the
     * synoptic sinusoid bank's phases, i.e. *which* typical year this is.
     */
    Climate(const ClimateParams &params, uint64_t seed);

    /** Outside dry-bulb temperature [°C] at @p t: sample(t).tempC,
        without the humidity half. */
    double temperature(util::SimTime t) const override;

    /** Full weather observation at @p t. */
    WeatherSample sample(util::SimTime t) const override;

    /**
     * Evaluate @p n grid points starting at @p start with spacing
     * @p step_s into @p out (vectors are resized; prior contents
     * dropped).  The same arithmetic as sample(), built fast-math in
     * climate_kernels.cpp, so each point matches sample() up to the
     * last few ulps (see DESIGN.md §10).
     */
    void sampleGridInto(util::SimTime start, int64_t step_s, int n,
                        WeatherGrid &out) const;

    /** The parameters this climate was built from. */
    const ClimateParams &params() const { return _params; }

  private:
    /** Number of sinusoids in the synoptic bank. */
    static constexpr int kSynopticBankSize = 8;

    /** Number of sinusoids modulating the diurnal amplitude. */
    static constexpr int kDiurnalModBankSize = 3;

    struct Sinusoid
    {
        double periodDays;
        double phase;       // radians
        double amplitude;   // relative weight, sums to ~1 over the bank
    };

    /** Scratch arrays evaluate() uses, each one double per point. */
    static constexpr int kScratchArrays = 8;

    /**
     * The climate at @p n points from @p start, @p step_s apart, into
     * @p temp and, unless @p rh is null, @p rh and @p abs; @p scratch
     * holds kScratchArrays x n doubles.  Written once in
     * climate_equations.hpp and instantiated on each including TU's own
     * Mode.
     */
    template <class Mode>
    void evaluate(util::SimTime start, int64_t step_s, int n,
                  double *scratch, double *temp, double *rh,
                  double *abs) const;

    ClimateParams _params;
    std::array<Sinusoid, kSynopticBankSize> _bank;
    std::array<Sinusoid, kSynopticBankSize> _humidityBank;
    std::array<Sinusoid, kDiurnalModBankSize> _diurnalModBank;
};

} // namespace environment
} // namespace coolair

#endif // COOLAIR_ENVIRONMENT_CLIMATE_HPP
