#include "environment/climate.hpp"

#include <cmath>

#include "environment/climate_equations.hpp"
#include "util/rng.hpp"

namespace coolair {
namespace environment {

namespace {

/** The strict instance of climate_equations.hpp: one point. */
struct StrictMode
{
    static constexpr int points(int) { return 1; }
};

} // anonymous namespace

Climate::Climate(const ClimateParams &params, uint64_t seed)
    : _params(params)
{
    util::Rng rng(seed, "climate.synoptic");
    // Periods spread from sub-daily frontal passages (0.8 d) to slow
    // highs/lows (12 d); amplitudes grow with the square root of the
    // period so the slowest fronts dominate, matching real synoptic
    // spectra, while the fast components still produce occasional large
    // *intra-day* swings.
    double weight_sum = 0.0;
    for (int i = 0; i < kSynopticBankSize; ++i) {
        double frac = double(i) / double(kSynopticBankSize - 1);
        _bank[i].periodDays = 0.8 + (12.0 - 0.8) * frac * frac;
        _bank[i].periodDays *= rng.uniform(0.85, 1.15);
        _bank[i].phase = rng.uniform(0.0, kTwoPi);
        _bank[i].amplitude = std::pow(_bank[i].periodDays, 0.3);
        weight_sum += _bank[i].amplitude;
    }
    for (auto &s : _bank)
        s.amplitude /= weight_sum;

    // Day-to-day modulation of the diurnal swing (clear vs. overcast
    // days): factor in roughly [0.45, 1.55].
    util::Rng drng(seed, "climate.diurnal-mod");
    for (int i = 0; i < kDiurnalModBankSize; ++i) {
        _diurnalModBank[i].periodDays = drng.uniform(4.0, 17.0);
        _diurnalModBank[i].phase = drng.uniform(0.0, kTwoPi);
        _diurnalModBank[i].amplitude = 1.0 / double(i + 1);
    }

    util::Rng hrng(seed, "climate.humidity");
    weight_sum = 0.0;
    for (int i = 0; i < kSynopticBankSize; ++i) {
        _humidityBank[i].periodDays = hrng.uniform(3.0, 15.0);
        _humidityBank[i].phase = hrng.uniform(0.0, kTwoPi);
        _humidityBank[i].amplitude = 1.0 / double(i + 1);
        weight_sum += _humidityBank[i].amplitude;
    }
    for (auto &s : _humidityBank)
        s.amplitude /= weight_sum;
}

double
Climate::temperature(util::SimTime t) const
{
    double scratch[kScratchArrays];
    double temp;
    evaluate<StrictMode>(t, 0, 1, scratch, &temp, nullptr, nullptr);
    return temp;
}

WeatherSample
Climate::sample(util::SimTime t) const
{
    double scratch[kScratchArrays];
    WeatherSample out;
    evaluate<StrictMode>(t, 0, 1, scratch, &out.tempC, &out.rhPercent,
                         &out.absHumidity);
    return out;
}

} // namespace environment
} // namespace coolair
