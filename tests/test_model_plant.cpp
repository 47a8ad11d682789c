/**
 * @file
 * Tests for the Real-Sim/Smooth-Sim learned-model plant and the
 * controller adapters.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "environment/location.hpp"
#include "sim/controller.hpp"
#include "sim/model_plant.hpp"
#include "sim/experiment.hpp"
#include "workload/cluster.hpp"
#include "workload/trace_gen.hpp"

using namespace coolair;
using namespace coolair::sim;
using cooling::Regime;
using util::SimTime;

namespace {

plant::SensorReadings
initialReadings(double temp)
{
    plant::SensorReadings s;
    s.podInletC.assign(8, temp);
    s.coldAisleAbsHumidity = 8.0;
    s.outsideC = 15.0;
    s.outsideRhPercent = 50.0;
    s.outsideAbsHumidity = 6.0;
    s.itPowerW = 1500.0;
    s.dcUtilization = 1.0;
    return s;
}

environment::WeatherSample
weatherAt(double t)
{
    environment::WeatherSample w;
    w.tempC = t;
    w.rhPercent = 50.0;
    w.absHumidity = physics::absoluteHumidity(t, 50.0);
    return w;
}

} // anonymous namespace

TEST(ModelPlant, ResetInstallsState)
{
    ModelPlant mp(&sharedBundle().model, plant::PlantConfig::parasol());
    mp.reset(initialReadings(26.5));
    auto s = mp.readSensors(SimTime(0));
    for (double t : s.podInletC)
        EXPECT_DOUBLE_EQ(t, 26.5);
    EXPECT_DOUBLE_EQ(s.coldAisleAbsHumidity, 8.0);
}

TEST(ModelPlant, FreeCoolingMovesTowardOutside)
{
    ModelPlant mp(&sharedBundle().model, plant::PlantConfig::parasol());
    mp.reset(initialReadings(30.0));
    plant::PodLoad load = plant::PodLoad::uniform(8, 8, 0.5);
    for (int i = 0; i < 20; ++i)
        mp.step(weatherAt(10.0), load, Regime::freeCooling(0.8));
    auto s = mp.readSensors(SimTime(20 * 120));
    EXPECT_LT(s.avgPodInletC(), 22.0);
    EXPECT_GT(s.avgPodInletC(), 8.0);
}

TEST(ModelPlant, ClosedWarmsUnderLoad)
{
    ModelPlant mp(&sharedBundle().model, plant::PlantConfig::parasol());
    mp.reset(initialReadings(20.0));
    plant::PodLoad load = plant::PodLoad::uniform(8, 8, 0.9);
    for (int i = 0; i < 20; ++i)
        mp.step(weatherAt(15.0), load, Regime::closed());
    EXPECT_GT(mp.readSensors(SimTime(0)).avgPodInletC(), 21.0);
}

TEST(ModelPlant, GuardrailsBoundPerStepMoves)
{
    ModelPlant mp(&sharedBundle().model, plant::PlantConfig::parasol());
    mp.reset(initialReadings(45.0));  // extreme start
    plant::PodLoad load = plant::PodLoad::uniform(8, 8, 0.5);
    auto before = mp.readSensors(SimTime(0)).podInletC;
    mp.step(weatherAt(0.0), load, Regime::acCompressor(1.0));
    auto after = mp.readSensors(SimTime(120)).podInletC;
    for (size_t p = 0; p < 8; ++p) {
        EXPECT_LE(std::fabs(after[p] - before[p]), 6.0 + 1e-9);
        EXPECT_GE(after[p], 8.0);
        EXPECT_LE(after[p], 55.0);
    }
}

TEST(ModelPlant, PowerFollowsRegime)
{
    ModelPlant mp(&sharedBundle().model, plant::PlantConfig::parasol());
    mp.reset(initialReadings(25.0));
    plant::PodLoad load = plant::PodLoad::uniform(8, 8, 0.5);

    mp.step(weatherAt(15.0), load, Regime::closed());
    EXPECT_NEAR(mp.readSensors(SimTime(0)).coolingPowerW, 0.0, 1.0);

    mp.step(weatherAt(15.0), load, Regime::acCompressor(1.0));
    EXPECT_GT(mp.readSensors(SimTime(0)).coolingPowerW, 1500.0);
}

TEST(BaselineController, UsesWarmestPodAsControlSensor)
{
    BaselineController ctrl;
    plant::SensorReadings s = initialReadings(20.0);
    s.outsideC = 10.0;
    // All pods cool: TKS (SP 30, P 5) closes the container.
    auto d1 = ctrl.control(s, {}, plant::PodLoad::uniform(8, 8, 0.5),
                           SimTime(0));
    EXPECT_EQ(d1.regime.mode, cooling::Mode::Closed);
    EXPECT_FALSE(d1.hasPlan);

    // One hot pod pushes the control sensor into the proportional band.
    s.podInletC[3] = 28.0;
    auto d2 = ctrl.control(s, {}, plant::PodLoad::uniform(8, 8, 0.5),
                           SimTime(60));
    EXPECT_EQ(d2.regime.mode, cooling::Mode::FreeCooling);
}

TEST(CoolAirController, EmitsPlanAndEpoch)
{
    environment::Climate climate =
        environment::namedLocation(environment::NamedSite::Newark)
            .makeClimate(3);
    environment::Forecaster forecaster(climate);
    core::CoolAirConfig cfg = core::CoolAirConfig::forVersion(
        core::Version::AllNd, cooling::RegimeMenu::smooth());
    CoolAirController ctrl(cfg, sharedBundle(), &forecaster);

    EXPECT_EQ(ctrl.epochS(), 600);
    EXPECT_STREQ(ctrl.name(), "CoolAir");

    workload::WorkloadStatus status;
    status.demandServers = 20;
    auto d = ctrl.control(initialReadings(26.0), status,
                          plant::PodLoad::uniform(8, 8, 0.5),
                          SimTime::fromCalendar(100, 6));
    EXPECT_TRUE(d.hasPlan);
    EXPECT_GE(d.plan.targetActiveServers, 8);
}

TEST(ModelSimRunner, SampleHookFiresPerStep)
{
    environment::Climate climate =
        environment::namedLocation(environment::NamedSite::Newark)
            .makeClimate(3);
    ModelPlant mp(&sharedBundle().model, plant::PlantConfig::parasol());
    workload::ClusterSim cluster({}, workload::steadyTrace(0.3, {}));
    BaselineController ctrl;
    ModelSimRunner runner(mp, cluster, ctrl, climate);

    int samples = 0;
    runner.setTraceSink([&](const TraceRow &) { ++samples; });
    runner.runDay(100, initialReadings(24.0));
    EXPECT_EQ(samples, 720);  // one 2-minute step at a time for a day
}
