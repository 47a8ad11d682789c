/**
 * @file
 * Tests for the actuator dynamics (abrupt vs smooth) and power models.
 */

#include <gtest/gtest.h>

#include "cooling/actuators.hpp"

using namespace coolair::cooling;

namespace {

ActuatorConfig
abruptConfig()
{
    ActuatorConfig c;
    c.style = ActuatorStyle::Abrupt;
    return c;
}

ActuatorConfig
smoothConfig()
{
    ActuatorConfig c;
    c.style = ActuatorStyle::Smooth;
    return c;
}

} // anonymous namespace

TEST(PowerModel, FreeCoolingCubicEndpoints)
{
    PowerModel pm;
    EXPECT_DOUBLE_EQ(pm.freeCoolingPower(0.0), 0.0);
    // Paper §4.1: the FC unit draws between 8 W and 425 W.
    EXPECT_NEAR(pm.freeCoolingPower(0.001), 8.0, 0.1);
    EXPECT_NEAR(pm.freeCoolingPower(1.0), 425.0, 0.1);
    // Cubic: half speed draws far less than half the span.
    EXPECT_LT(pm.freeCoolingPower(0.5), 8.0 + 417.0 / 4.0);
}

TEST(PowerModel, AcEndpointsMatchParasol)
{
    PowerModel pm;
    // Paper §4.1: 135 W fan-only, 2.2 kW with the compressor.
    EXPECT_NEAR(pm.acPower(1.0, 0.0), 550.0, 1.0);   // smooth fan at 100 %
    EXPECT_NEAR(pm.acPower(0.2, 0.0), 135.0, 1.0);   // floor = fan-only
    EXPECT_NEAR(pm.acPower(1.0, 1.0), 2200.0, 1.0);
    EXPECT_DOUBLE_EQ(pm.acPower(0.0, 0.0), 0.0);
    // Compressor linear in speed (§5.1).
    double quarter = pm.acPower(1.0, 0.25) - pm.acPower(1.0, 0.0);
    double full = pm.acPower(1.0, 1.0) - pm.acPower(1.0, 0.0);
    EXPECT_NEAR(quarter, full / 4.0, 1.0);
}

TEST(AbruptActuators, SnapToCommand)
{
    Actuators act(abruptConfig());
    act.setCommand(Regime::freeCooling(0.5));
    act.step(1.0);
    EXPECT_EQ(act.state().mode, Mode::FreeCooling);
    EXPECT_DOUBLE_EQ(act.state().fcFanSpeed, 0.5);
    EXPECT_TRUE(act.state().damperOpen);

    act.setCommand(Regime::acCompressor(1.0));
    act.step(1.0);
    EXPECT_EQ(act.state().mode, Mode::AirConditioning);
    EXPECT_DOUBLE_EQ(act.state().fcFanSpeed, 0.0);
    EXPECT_DOUBLE_EQ(act.state().compressorSpeed, 1.0);
    EXPECT_FALSE(act.state().damperOpen);
}

TEST(AbruptActuators, MinimumFanSpeedEnforced)
{
    // The Dantherm unit's minimum runnable speed is 15 %: asking for
    // 5 % jumps to 15 % — the source of Parasol's abrupt transitions.
    Actuators act(abruptConfig());
    act.setCommand(Regime::freeCooling(0.05));
    act.step(1.0);
    EXPECT_DOUBLE_EQ(act.state().fcFanSpeed, 0.15);
}

TEST(AbruptActuators, FixedSpeedCompressor)
{
    Actuators act(abruptConfig());
    act.setCommand(Regime::acCompressor(0.3));  // fixed-speed unit
    act.step(1.0);
    EXPECT_DOUBLE_EQ(act.state().compressorSpeed, 1.0);
}

TEST(SmoothActuators, RampUpFromOnePercent)
{
    Actuators act(smoothConfig());
    act.setCommand(Regime::freeCooling(0.5));
    act.step(1.0);
    // Starts at the 1 % minimum, then ramps at 0.002/s.
    EXPECT_NEAR(act.state().fcFanSpeed, 0.012, 1e-6);
    act.step(10.0);
    EXPECT_NEAR(act.state().fcFanSpeed, 0.032, 1e-6);
    // Eventually reaches the target and holds it.
    for (int i = 0; i < 300; ++i)
        act.step(1.0);
    EXPECT_NEAR(act.state().fcFanSpeed, 0.5, 1e-9);
}

TEST(SmoothActuators, RampDownSnapsFromFifteenPercent)
{
    Actuators act(smoothConfig());
    act.setCommand(Regime::freeCooling(0.3));
    for (int i = 0; i < 200; ++i)
        act.step(1.0);
    ASSERT_NEAR(act.state().fcFanSpeed, 0.3, 1e-9);

    // §5.1: ramp down goes from 15 % directly to off.
    act.setCommand(Regime::closed());
    bool saw_fifteen = false;
    for (int i = 0; i < 200; ++i) {
        act.step(1.0);
        double s = act.state().fcFanSpeed;
        if (s > 0.0) {
            EXPECT_GE(s, 0.15 - 1e-9);
        }
        if (std::abs(s - 0.15) < 1e-9)
            saw_fifteen = true;
    }
    EXPECT_TRUE(saw_fifteen);
    EXPECT_DOUBLE_EQ(act.state().fcFanSpeed, 0.0);
    EXPECT_EQ(act.state().mode, Mode::Closed);
}

TEST(SmoothActuators, VariableCompressor)
{
    Actuators act(smoothConfig());
    act.setCommand(Regime::acCompressor(0.5));
    for (int i = 0; i < 600; ++i)
        act.step(1.0);
    EXPECT_NEAR(act.state().compressorSpeed, 0.5, 1e-9);
    EXPECT_NEAR(act.state().acFanSpeed, 1.0, 1e-9);
    EXPECT_EQ(act.state().mode, Mode::AirConditioning);
}

TEST(SmoothActuators, ModeFollowsPhysicalState)
{
    Actuators act(smoothConfig());
    act.setCommand(Regime::freeCooling(1.0));
    act.step(1.0);
    EXPECT_EQ(act.state().mode, Mode::FreeCooling);

    // Commanding AC while the FC fan still spins down: mode reflects
    // whichever unit is physically moving air.
    act.setCommand(Regime::acFanOnly());
    act.step(1.0);
    EXPECT_TRUE(act.state().mode == Mode::FreeCooling ||
                act.state().mode == Mode::AirConditioning);
    for (int i = 0; i < 800; ++i)
        act.step(1.0);
    EXPECT_EQ(act.state().mode, Mode::AirConditioning);
    EXPECT_DOUBLE_EQ(act.state().fcFanSpeed, 0.0);
}

TEST(Actuators, CoolingPowerTracksState)
{
    Actuators act(abruptConfig());
    EXPECT_DOUBLE_EQ(act.coolingPowerW(), 0.0);
    act.setCommand(Regime::freeCooling(1.0));
    act.step(1.0);
    EXPECT_NEAR(act.coolingPowerW(), 425.0, 0.5);
    act.setCommand(Regime::acCompressor(1.0));
    act.step(1.0);
    EXPECT_NEAR(act.coolingPowerW(), 2200.0, 1.0);
}

TEST(UnitState, RegimeFollowsEachMode)
{
    UnitState unit;
    EXPECT_EQ(unit.regime(), Regime::closed());

    unit.mode = Mode::FreeCooling;
    unit.fcFanSpeed = 0.4;
    unit.damperOpen = true;
    EXPECT_EQ(unit.regime(), Regime::freeCooling(0.4));
    unit.evapOn = true;
    EXPECT_EQ(unit.regime(), Regime::freeCoolingEvaporative(0.4));

    unit = UnitState{};
    unit.mode = Mode::AirConditioning;
    unit.acFanSpeed = 1.0;
    unit.compressorSpeed = 0.6;
    EXPECT_EQ(unit.regime(), Regime::acCompressor(0.6));
    unit.compressorSpeed = 0.0;
    EXPECT_EQ(unit.regime(), Regime::acFanOnly());
}
