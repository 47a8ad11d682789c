/**
 * @file
 * Tests for the synthetic climate model: determinism, seasonal and
 * diurnal structure, humidity validity.
 */

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <gtest/gtest.h>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "environment/climate.hpp"
#include "environment/location.hpp"
#include "environment/world_grid.hpp"
#include "util/stats.hpp"

using namespace coolair;
using namespace coolair::environment;
using coolair::util::SimTime;

namespace {

Climate
makeClimate(uint64_t seed = 1)
{
    ClimateParams p;
    p.annualMeanC = 12.0;
    p.seasonalAmplitudeC = 10.0;
    p.diurnalAmplitudeC = 5.0;
    p.synopticAmplitudeC = 3.0;
    return Climate(p, seed);
}

} // anonymous namespace

TEST(Climate, DeterministicGivenSeed)
{
    Climate a = makeClimate(5), b = makeClimate(5);
    for (int h = 0; h < 100; ++h) {
        SimTime t = SimTime::fromCalendar(h % 365, h % 24);
        EXPECT_DOUBLE_EQ(a.temperature(t), b.temperature(t));
    }
}

TEST(Climate, DifferentSeedsGiveDifferentYears)
{
    Climate a = makeClimate(1), b = makeClimate(2);
    double diff = 0.0;
    for (int d = 0; d < 50; ++d)
        diff += std::fabs(a.temperature(SimTime::fromCalendar(d, 12)) -
                          b.temperature(SimTime::fromCalendar(d, 12)));
    EXPECT_GT(diff, 5.0);
}

TEST(Climate, AnnualMeanIsRespected)
{
    Climate c = makeClimate(3);
    util::RunningStats s;
    for (int d = 0; d < 365; ++d)
        for (int h = 0; h < 24; h += 2)
            s.add(c.temperature(SimTime::fromCalendar(d, h)));
    EXPECT_NEAR(s.mean(), 12.0, 1.5);
}

TEST(Climate, NorthernSummerIsWarm)
{
    Climate c = makeClimate(4);
    double july = c.meanTemperature(SimTime::fromCalendar(195, 0),
                                    SimTime::fromCalendar(202, 0), 3600);
    double january = c.meanTemperature(SimTime::fromCalendar(10, 0),
                                       SimTime::fromCalendar(17, 0), 3600);
    EXPECT_GT(july, january + 10.0);
}

TEST(Climate, SouthernHemisphereFlipsSeasons)
{
    ClimateParams p;
    p.annualMeanC = 14.0;
    p.seasonalAmplitudeC = 8.0;
    p.southernHemisphere = true;
    Climate c(p, 4);
    double july = c.meanTemperature(SimTime::fromCalendar(195, 0),
                                    SimTime::fromCalendar(202, 0), 3600);
    double january = c.meanTemperature(SimTime::fromCalendar(10, 0),
                                       SimTime::fromCalendar(17, 0), 3600);
    EXPECT_LT(july, january - 6.0);
}

TEST(Climate, DiurnalPeakMidAfternoon)
{
    // Without synoptic weather the temperature is the seasonal and
    // diurnal swing alone, and peaks near the configured 15:00.
    ClimateParams p;
    p.synopticAmplitudeC = 0.0;
    Climate c(p, 6);
    double best_hour = 0.0, best = -1e9;
    for (double h = 0.0; h < 24.0; h += 0.25) {
        SimTime t(int64_t(100) * util::kSecondsPerDay +
                  int64_t(h * 3600.0));
        double v = c.temperature(t);
        if (v > best) {
            best = v;
            best_hour = h;
        }
    }
    EXPECT_NEAR(best_hour, 15.0, 1.0);
}

TEST(Climate, SampleHumidityValid)
{
    Climate c = makeClimate(7);
    for (int d = 0; d < 365; d += 3) {
        WeatherSample w = c.sample(SimTime::fromCalendar(d, 9));
        EXPECT_GE(w.rhPercent, 1.0);
        EXPECT_LE(w.rhPercent, 100.0);
        EXPECT_GT(w.absHumidity, 0.0);
    }
}

TEST(Climate, HumidClimateHasHighRh)
{
    ClimateParams humid;
    humid.annualMeanC = 27.0;
    humid.dewPointDepressionC = 2.5;
    humid.dewPointVariabilityC = 1.0;
    ClimateParams arid = humid;
    arid.dewPointDepressionC = 14.0;

    Climate ch(humid, 8), ca(arid, 8);
    util::RunningStats rh_h, rh_a;
    for (int d = 0; d < 365; d += 5) {
        rh_h.add(ch.sample(SimTime::fromCalendar(d, 12)).rhPercent);
        rh_a.add(ca.sample(SimTime::fromCalendar(d, 12)).rhPercent);
    }
    EXPECT_GT(rh_h.mean(), rh_a.mean() + 20.0);
    EXPECT_GT(rh_h.mean(), 70.0);
}

TEST(Climate, ContinuousAcrossMidnight)
{
    Climate c = makeClimate(9);
    for (int d : {0, 99, 364}) {
        SimTime before(int64_t(d + 1) * util::kSecondsPerDay - 30);
        SimTime after(int64_t(d + 1) * util::kSecondsPerDay + 30);
        EXPECT_NEAR(c.temperature(before), c.temperature(after), 0.3)
            << "day " << d;
    }
}

TEST(Climate, MeanTemperatureMatchesPointwise)
{
    Climate c = makeClimate(10);
    SimTime from = SimTime::fromCalendar(40, 6);
    SimTime to = from + util::kSecondsPerHour;
    double mean = c.meanTemperature(from, to, 300);
    EXPECT_GT(mean, c.temperature(from) - 3.0);
    EXPECT_LT(mean, c.temperature(from) + 3.0);
    // Degenerate interval returns the point value.
    EXPECT_DOUBLE_EQ(c.meanTemperature(from, from), c.temperature(from));
}

/** Property over named sites: a year of weather stays physical. */
class NamedSiteClimate : public ::testing::TestWithParam<NamedSite>
{
};

TEST_P(NamedSiteClimate, YearIsPhysical)
{
    Location loc = namedLocation(GetParam());
    Climate c = loc.makeClimate(11);
    util::RunningStats temps;
    for (int d = 0; d < 365; d += 2) {
        for (int h = 0; h < 24; h += 3) {
            WeatherSample w = c.sample(SimTime::fromCalendar(d, h));
            temps.add(w.tempC);
            ASSERT_GE(w.rhPercent, 1.0);
            ASSERT_LE(w.rhPercent, 100.0);
        }
    }
    EXPECT_GT(temps.min(), -45.0);
    EXPECT_LT(temps.max(), 55.0);
    EXPECT_NEAR(temps.mean(), loc.climate.annualMeanC, 2.5);
}

INSTANTIATE_TEST_SUITE_P(AllSites, NamedSiteClimate,
                         ::testing::ValuesIn(allNamedSites()));

namespace {

/** FNV-1a-64 over the bit patterns of a stream of doubles. */
struct BitDigest
{
    uint64_t h = 1469598103934665603ull;

    void add(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xffu;
            h *= 1099511628211ull;
        }
    }
};

/** The named sites, then world-grid sites 0, 737 and 1519. */
std::vector<std::pair<std::string, Location>>
pinnedSites()
{
    std::vector<std::pair<std::string, Location>> out;
    for (NamedSite site : allNamedSites()) {
        Location loc = namedLocation(site);
        out.emplace_back(loc.name, loc);
    }
    const std::vector<Location> grid = worldGrid();
    for (size_t i : {size_t(0), size_t(737), size_t(1519)})
        out.emplace_back("world-" + std::to_string(i), grid[i]);
    return out;
}

} // anonymous namespace

// The strict climate's exact bits: sample()'s three fields and
// temperature() every 30 s from 2 h before day 0 through day 3, per
// site, recorded on x86-64 Debian 12 (GCC 12.2, glibc 2.36).  Only a
// libm with different sin/cos/exp rounding, or an edit to the
// climate's arithmetic or its association, could move them.  At every
// point temperature() must also equal sample().tempC bit for bit: the
// forecaster's hourly means read temperature(), the engine sample().
TEST(Climate, StrictSamplesArePinned)
{
    const std::map<std::string, std::string> kPinned = {
        {"Newark", "ef1335f350c7a628 ce51a923b1d4dfa8"},
        {"Chad", "cef26422eb106b3d 64fc0eea2ff67077"},
        {"Santiago", "5a59ba16af8b149b 4007fbafc264a452"},
        {"Iceland", "893dc02fa0ea1732 e9c64223ecf39404"},
        {"Singapore", "3afabf2c939cb635 a095c93b74196218"},
        {"world-0", "174aa556f281d9fe 98afa2247d32ceba"},
        {"world-737", "29a081e7c83d56be f3fb321fe70b6749"},
        {"world-1519", "26f34e4ab8ea29d3 242f767b41b66f76"},
    };
    for (const auto &[name, loc] : pinnedSites()) {
        const Climate c = loc.makeClimate(11);
        BitDigest samples, temps;
        int differing = 0;
        for (int64_t t = -2 * util::kSecondsPerHour;
             t < 4 * util::kSecondsPerDay; t += 30) {
            const WeatherSample w = c.sample(SimTime(t));
            samples.add(w.tempC);
            samples.add(w.rhPercent);
            samples.add(w.absHumidity);
            const double temp = c.temperature(SimTime(t));
            temps.add(temp);
            if (std::memcmp(&temp, &w.tempC, sizeof(temp)) != 0)
                ++differing;
        }
        EXPECT_EQ(0, differing) << name << ": temperature() != sample().tempC";
        char text[40];
        std::snprintf(text, sizeof(text), "%016llx %016llx",
                      (unsigned long long)samples.h,
                      (unsigned long long)temps.h);
        auto it = kPinned.find(name);
        if (it == kPinned.end()) {
            ADD_FAILURE() << "no pin for " << name << ": " << text;
            continue;
        }
        EXPECT_EQ(it->second, text) << name;
    }
}

// The fast grid instance against the strict one: every field of every
// point within 1e-11 relative (floor 1), over the named sites and every
// 19th world-grid site, at the batched engine's steps and chunk lengths
// from 2 h before four days of the year.
TEST(Climate, GridMatchesSample)
{
    std::vector<Location> sites;
    for (NamedSite site : allNamedSites())
        sites.push_back(namedLocation(site));
    const std::vector<Location> grid = worldGrid();
    for (size_t i = 0; i < grid.size(); i += 19)
        sites.push_back(grid[i]);
    ASSERT_EQ(sites.size(), 85u);

    const char *fields[] = {"temp", "rh", "abs"};
    double worst[3] = {0.0, 0.0, 0.0};
    WeatherGrid g;
    for (const Location &loc : sites) {
        const Climate c = loc.makeClimate(11);
        for (int64_t step : {15, 30, 120}) {
            for (int n : {1, 7, 780}) {
                for (int day : {0, 100, 200, 364}) {
                    const SimTime start(int64_t(day) * util::kSecondsPerDay -
                                        2 * util::kSecondsPerHour);
                    c.sampleGridInto(start, step, n, g);
                    ASSERT_EQ(g.points(), size_t(n));
                    EXPECT_EQ(g.startTime, start);
                    EXPECT_EQ(g.stepS, step);
                    for (int i = 0; i < n; ++i) {
                        const WeatherSample s = c.sample(start + i * step);
                        const WeatherSample f = g.at(size_t(i));
                        const double want[3] = {s.tempC, s.rhPercent,
                                                s.absHumidity};
                        const double got[3] = {f.tempC, f.rhPercent,
                                               f.absHumidity};
                        for (int k = 0; k < 3; ++k) {
                            const double dev =
                                std::fabs(got[k] - want[k]) /
                                std::max(1.0, std::fabs(want[k]));
                            worst[k] = std::max(worst[k], dev);
                            ASSERT_LE(dev, 1e-11)
                                << loc.name << " " << fields[k] << " step "
                                << step << " n " << n << " day " << day
                                << " point " << i;
                        }
                    }
                }
            }
        }
    }
    std::printf("worst relative deviation: temp %.2g, rh %.2g, abs %.2g\n",
                worst[0], worst[1], worst[2]);

    // No points leaves every field empty, whatever the grid held.
    makeClimate().sampleGridInto(SimTime(0), 30, 0, g);
    EXPECT_EQ(g.points(), 0u);
    EXPECT_TRUE(g.rhPercent.empty());
    EXPECT_TRUE(g.absHumidity.empty());
}
