/**
 * @file
 * Tests for the multi-zone datacenter (§6's "each cooling zone gets its
 * own CoolAir-like manager") and the zone balancer.
 */

#include <gtest/gtest.h>

#include "environment/location.hpp"
#include "multizone/multizone.hpp"
#include "sim/experiment.hpp"
#include "workload/trace_gen.hpp"

using namespace coolair;
using namespace coolair::multizone;

namespace {

std::function<std::unique_ptr<sim::Controller>(int)>
baselineFactory()
{
    return [](int) {
        return std::make_unique<sim::BaselineController>();
    };
}

std::function<std::unique_ptr<sim::Controller>(int)>
coolairFactory(environment::Forecaster *forecaster)
{
    return [forecaster](int) -> std::unique_ptr<sim::Controller> {
        core::CoolAirConfig cfg = core::CoolAirConfig::forVersion(
            core::Version::AllNd, cooling::RegimeMenu::smooth());
        return std::make_unique<sim::CoolAirController>(
            cfg, sim::sharedBundle(), forecaster);
    };
}

environment::Climate
newarkClimate()
{
    return environment::namedLocation(environment::NamedSite::Newark)
        .makeClimate(9);
}

} // anonymous namespace

TEST(MultiZone, JobsConservedAcrossZones)
{
    environment::Climate climate = newarkClimate();
    MultiZoneConfig cfg;
    cfg.zones = 3;
    MultiZoneEngine engine(cfg, climate, baselineFactory());

    workload::Trace trace = workload::steadyTrace(0.3, {});
    engine.runDay(150, trace);

    int64_t assigned = 0, completed = 0;
    for (int z = 0; z < engine.zoneCount(); ++z) {
        assigned += engine.zoneJobsAssigned(z);
        completed += engine.zoneJobsCompleted(z);
    }
    EXPECT_EQ(assigned, int64_t(trace.jobs.size()));
    // Short steady jobs: nearly everything completes within the day.
    EXPECT_GE(completed, assigned - 6);
}

TEST(MultiZone, RoundRobinSplitsEvenly)
{
    environment::Climate climate = newarkClimate();
    MultiZoneConfig cfg;
    cfg.zones = 4;
    cfg.policy = BalancePolicy::RoundRobin;
    MultiZoneEngine engine(cfg, climate, baselineFactory());
    engine.runDay(150, workload::steadyTrace(0.3, {}));

    int64_t lo = 1 << 30, hi = 0;
    for (int z = 0; z < 4; ++z) {
        lo = std::min(lo, engine.zoneJobsAssigned(z));
        hi = std::max(hi, engine.zoneJobsAssigned(z));
    }
    EXPECT_LE(hi - lo, 1);
}

TEST(MultiZone, LeastLoadedTracksCapacity)
{
    environment::Climate climate = newarkClimate();
    MultiZoneConfig cfg;
    cfg.zones = 2;
    cfg.policy = BalancePolicy::LeastLoaded;
    MultiZoneEngine engine(cfg, climate, baselineFactory());
    engine.runDay(150, workload::facebookTrace({}));

    // Both zones get substantial shares (no starvation).
    for (int z = 0; z < 2; ++z)
        EXPECT_GT(engine.zoneJobsAssigned(z), 1000);
}

TEST(MultiZone, CoolestFirstPrefersCoolerZones)
{
    environment::Climate climate = newarkClimate();
    MultiZoneConfig cfg;
    cfg.zones = 2;
    cfg.policy = BalancePolicy::CoolestFirst;
    MultiZoneEngine engine(cfg, climate, baselineFactory());
    engine.runDay(150, workload::steadyTrace(0.2, {}));

    // The policy feeds whichever zone is cooler; with symmetric zones
    // both still receive jobs and everything lands somewhere.
    int64_t total = engine.zoneJobsAssigned(0) + engine.zoneJobsAssigned(1);
    EXPECT_EQ(total, int64_t(workload::steadyTrace(0.2, {}).jobs.size()));
}

TEST(MultiZone, PerZoneCoolAirManagersRunIndependently)
{
    environment::Climate climate = newarkClimate();
    environment::Forecaster forecaster(climate);
    MultiZoneConfig cfg;
    cfg.zones = 2;
    MultiZoneEngine engine(cfg, climate, coolairFactory(&forecaster));
    engine.runDay(160, workload::facebookTrace({}));

    for (int z = 0; z < 2; ++z) {
        sim::Summary s = engine.zoneSummary(z);
        EXPECT_EQ(s.days, 1u);
        EXPECT_GT(s.itKwh, 1.0);
        EXPECT_LT(s.avgViolationC, 1.0) << "zone " << z;
    }
}

TEST(MultiZone, AggregateSummarySumsEnergy)
{
    environment::Climate climate = newarkClimate();
    MultiZoneConfig cfg;
    cfg.zones = 3;
    MultiZoneEngine engine(cfg, climate, baselineFactory());
    engine.runDay(150, workload::steadyTrace(0.3, {}));

    double it_sum = 0.0, cool_sum = 0.0;
    for (int z = 0; z < 3; ++z) {
        it_sum += engine.zoneSummary(z).itKwh;
        cool_sum += engine.zoneSummary(z).coolingKwh;
    }
    sim::Summary agg = engine.aggregateSummary();
    EXPECT_NEAR(agg.itKwh, it_sum, 1e-9);
    EXPECT_NEAR(agg.coolingKwh, cool_sum, 1e-9);
    EXPECT_NEAR(agg.pue, (it_sum + cool_sum + 0.08 * it_sum) / it_sum,
                1e-9);

    // Temperature metrics: ranges take the extremes over zones, the
    // rest the mean (zones take equal sample counts, so the mean of the
    // fractions is the pooled fraction).
    double violation = 0.0, avg_range = 0.0, humidity = 0.0, rate = 0.0,
           max_inlet = 0.0, min_range = 1e9, max_range = 0.0;
    for (int z = 0; z < 3; ++z) {
        const sim::Summary s = engine.zoneSummary(z);
        violation += s.avgViolationC / 3.0;
        avg_range += s.avgWorstDailyRangeC / 3.0;
        humidity += s.humidityViolationFrac / 3.0;
        rate += s.rateViolationFrac / 3.0;
        max_inlet += s.avgMaxInletC / 3.0;
        min_range = std::min(min_range, s.minWorstDailyRangeC);
        max_range = std::max(max_range, s.maxWorstDailyRangeC);
        EXPECT_EQ(s.days, agg.days);
    }
    EXPECT_NEAR(agg.avgViolationC, violation, 1e-12);
    EXPECT_NEAR(agg.avgWorstDailyRangeC, avg_range, 1e-12);
    EXPECT_EQ(agg.minWorstDailyRangeC, min_range);
    EXPECT_EQ(agg.maxWorstDailyRangeC, max_range);
    EXPECT_NEAR(agg.humidityViolationFrac, humidity, 1e-12);
    EXPECT_NEAR(agg.rateViolationFrac, rate, 1e-12);
    EXPECT_NEAR(agg.avgMaxInletC, max_inlet, 1e-12);
    EXPECT_GT(agg.minWorstDailyRangeC, 0.0);
    EXPECT_GT(agg.avgMaxInletC, 15.0);
    EXPECT_EQ(agg.days, 1u);
}

// Sensors are sampled every max(60 s, step), so a 120 s step is one
// 120 s sample: a zone's energy over a day matches the 60 s run's.
TEST(MultiZone, CoarseStepKeepsZoneEnergy)
{
    auto zone_it_kwh = [](double step_s) {
        sim::ExperimentSpec spec;
        spec.location =
            environment::namedLocation(environment::NamedSite::Newark);
        spec.system = sim::SystemId::Baseline;
        spec.physicsStepS = step_s;
        MultiZoneConfig cfg;
        cfg.zones = 2;
        MultiZoneScenario mz = buildMultiZoneScenario(spec, cfg);
        mz.engine->runDay(150, workload::facebookTrace({}));
        return mz.engine->zoneSummary(0).itKwh;
    };
    const double fine = zone_it_kwh(60.0);
    const double coarse = zone_it_kwh(120.0);
    EXPECT_GT(fine, 10.0);
    EXPECT_NEAR(coarse, fine, 0.1 * fine);

    // A step the sample interval is not a multiple of stops the run.
    EXPECT_DEATH(zone_it_kwh(45.0), "multiple of the physics step");
}

TEST(MultiZone, PolicyNames)
{
    EXPECT_STREQ(policyName(BalancePolicy::RoundRobin), "round-robin");
    EXPECT_STREQ(policyName(BalancePolicy::CoolestFirst),
                 "coolest-first");
    EXPECT_STREQ(policyName(BalancePolicy::LeastLoaded), "least-loaded");
}
