#include "physics/psychrometrics.hpp"

#include <cmath>

#include "util/logging.hpp"
#include "util/stats.hpp"

namespace coolair {
namespace physics {

double
saturationVaporPressure(double temp_c)
{
    return magnusSvp(temp_c);
}

double
absoluteHumidity(double temp_c, double rh_percent)
{
    return absoluteHumidityAt(temp_c, rh_percent, magnusSvp(temp_c));
}

double
relativeHumidity(double temp_c, double abs_gm3)
{
    return relativeHumidityAt(temp_c, abs_gm3, magnusSvp(temp_c));
}

double
dewPoint(double temp_c, double rh_percent)
{
    rh_percent = util::clamp(rh_percent, 0.1, 100.0);
    double gamma = std::log(rh_percent / 100.0) +
                   kMagnusA * temp_c / (kMagnusB + temp_c);
    return kMagnusB * gamma / (kMagnusA - gamma);
}

double
wetBulb(double temp_c, double rh_percent)
{
    double rh = util::clamp(rh_percent, 5.0, 99.0);
    // Stull (2011), "Wet-bulb temperature from relative humidity and
    // air temperature".
    double tw = temp_c * std::atan(0.151977 * std::sqrt(rh + 8.313659)) +
                std::atan(temp_c + rh) - std::atan(rh - 1.676331) +
                0.00391838 * std::pow(rh, 1.5) *
                    std::atan(0.023101 * rh) -
                4.686035;
    return std::min(tw, temp_c);
}

double
evaporativeOutletTemp(double temp_c, double rh_percent,
                      double effectiveness)
{
    double wb = wetBulb(temp_c, rh_percent);
    return temp_c - util::clamp(effectiveness, 0.0, 1.0) * (temp_c - wb);
}

double
AirState::relHumidity() const
{
    return relativeHumidity(tempC, absHumidity);
}

AirState
AirState::fromRelative(double temp_c, double rh_percent)
{
    return AirState{temp_c, absoluteHumidity(temp_c, rh_percent)};
}

AirState
mix(const AirState &a, const AirState &b, double frac_a)
{
    frac_a = util::clamp(frac_a, 0.0, 1.0);
    AirState out;
    out.tempC = frac_a * a.tempC + (1.0 - frac_a) * b.tempC;
    out.absHumidity = frac_a * a.absHumidity + (1.0 - frac_a) * b.absHumidity;
    return out;
}

double
heatAirMass(double temp_c, double volume_m3, double heat_joules)
{
    if (volume_m3 <= 0.0)
        util::panic("heatAirMass: volume must be positive");
    double heat_capacity = kAirDensity * volume_m3 * kAirSpecificHeat;
    return temp_c + heat_joules / heat_capacity;
}

} // namespace physics
} // namespace coolair
