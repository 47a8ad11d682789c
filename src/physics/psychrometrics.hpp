#ifndef COOLAIR_PHYSICS_PSYCHROMETRICS_HPP
#define COOLAIR_PHYSICS_PSYCHROMETRICS_HPP

/**
 * @file
 * Moist-air (psychrometric) property functions.
 *
 * CoolAir's Cooling Modeler predicts *absolute* humidity and converts it to
 * *relative* humidity using the predicted air temperature (paper §3.1).
 * These helpers provide that conversion, plus dew point and air-stream
 * mixing, using the Magnus–Tetens approximation — accurate to ~0.1 °C over
 * the datacenter operating envelope (-40..60 °C).
 */

#include <cmath>

namespace coolair {
namespace physics {

/** Density of air at datacenter conditions [kg/m^3]. */
constexpr double kAirDensity = 1.2;

/** Specific heat capacity of air [J/(kg*K)]. */
constexpr double kAirSpecificHeat = 1005.0;

// Magnus-Tetens coefficients (Alduchov & Eskridge 1996).
inline constexpr double kMagnusA = 17.625;
inline constexpr double kMagnusB = 243.04;   // [°C]
inline constexpr double kMagnusC = 610.94;   // [Pa]

/** Specific gas constant for water vapor [J/(kg*K)]. */
inline constexpr double kVaporGasConstant = 461.5;

// The Magnus-Tetens relations, written once.  The scalar functions
// below, both climate instances and both plant instances all evaluate
// these.  They are static so that every translation unit compiles its
// own copy with its own flags: the fast-math kernel TUs must not hand
// their code to the strict ones through a shared inline symbol
// (DESIGN.md §10).

/** Saturation vapor pressure [Pa] at @p temp_c [°C]. */
static inline double
magnusSvp(double temp_c)
{
    return kMagnusC * std::exp(kMagnusA * temp_c / (kMagnusB + temp_c));
}

/** absoluteHumidity() given the saturation pressure @p svp at @p temp_c. */
static inline double
absoluteHumidityAt(double temp_c, double rh_percent, double svp)
{
    double vp = svp * rh_percent / 100.0;
    double kelvin = temp_c + 273.15;
    // Ideal gas: rho_v = p_v / (R_v * T); convert kg/m^3 -> g/m^3.
    return 1000.0 * vp / (kVaporGasConstant * kelvin);
}

/** relativeHumidity() given the saturation pressure @p svp at @p temp_c. */
static inline double
relativeHumidityAt(double temp_c, double abs_gm3, double svp)
{
    double kelvin = temp_c + 273.15;
    double vp = abs_gm3 / 1000.0 * kVaporGasConstant * kelvin;
    return 100.0 * vp / svp;
}

/**
 * Saturation vapor pressure of water over liquid [Pa] at temperature
 * @p temp_c [°C] (Magnus–Tetens).
 */
double saturationVaporPressure(double temp_c);

/**
 * Absolute humidity [g water / m^3 air] given dry-bulb temperature
 * @p temp_c [°C] and relative humidity @p rh_percent [0..100].
 */
double absoluteHumidity(double temp_c, double rh_percent);

/**
 * Relative humidity [0..100+] given dry-bulb temperature @p temp_c [°C]
 * and absolute humidity @p abs_gm3 [g/m^3].  Values above 100 indicate
 * super-saturation (condensation would occur).
 */
double relativeHumidity(double temp_c, double abs_gm3);

/**
 * Dew point [°C] given dry-bulb temperature and relative humidity
 * (inverse Magnus).
 */
double dewPoint(double temp_c, double rh_percent);

/**
 * Wet-bulb temperature [°C] given dry-bulb temperature and relative
 * humidity (Stull 2011 empirical fit, valid for -20..50 °C and RH
 * 5..99 %).  The theoretical floor for adiabatic (evaporative) cooling.
 */
double wetBulb(double temp_c, double rh_percent);

/**
 * Outlet dry-bulb temperature [°C] of an evaporative cooler with the
 * given @p effectiveness (fraction of the dry-bulb-to-wet-bulb gap it
 * closes) operating on air at @p temp_c / @p rh_percent.
 */
double evaporativeOutletTemp(double temp_c, double rh_percent,
                             double effectiveness);

/**
 * State of an air volume/stream: temperature and absolute humidity.
 * Mixing operations act on this pair (both quantities mix conservatively
 * by mass, which for near-constant density is by volume fraction).
 */
struct AirState
{
    double tempC = 20.0;        ///< Dry-bulb temperature [°C].
    double absHumidity = 8.0;   ///< Absolute humidity [g/m^3].

    /** Relative humidity [0..100+] of this state. */
    double relHumidity() const;

    /** Build an AirState from temperature and relative humidity. */
    static AirState fromRelative(double temp_c, double rh_percent);
};

/**
 * Mix two air streams with volume fractions @p frac_a for @p a and
 * (1 - frac_a) for @p b.  @p frac_a is clamped to [0, 1].
 */
AirState mix(const AirState &a, const AirState &b, double frac_a);

/**
 * New temperature of an air mass of volume @p volume_m3 after absorbing
 * @p heat_joules of heat (negative to cool).
 */
double heatAirMass(double temp_c, double volume_m3, double heat_joules);

} // namespace physics
} // namespace coolair

#endif // COOLAIR_PHYSICS_PSYCHROMETRICS_HPP
