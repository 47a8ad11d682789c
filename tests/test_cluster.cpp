/**
 * @file
 * Tests for the Hadoop-like cluster simulator: scheduling, power states,
 * covering subset, deferral, and the paper's power-cycle budget claim.
 */

#include <gtest/gtest.h>

#include "util/sim_time.hpp"
#include "workload/cluster.hpp"
#include "workload/trace_gen.hpp"

using namespace coolair;
using namespace coolair::workload;
using coolair::util::SimTime;
using coolair::util::kSecondsPerDay;
using coolair::util::kSecondsPerHour;

namespace {

/** Step the cluster through [from, to) at 30 s resolution. */
void
runRange(ClusterSim &sim, int64_t from, int64_t to)
{
    for (int64_t t = from; t < to; t += 30)
        sim.step(SimTime(t), 30.0);
}

Trace
tinyTrace()
{
    Trace t;
    t.name = "tiny";
    Job j;
    j.id = 0;
    j.submitS = 600;
    j.startDeadlineS = 600;
    j.mapTasks = 4;
    j.reduceTasks = 1;
    j.mapTaskDurS = 120;
    j.reduceTaskDurS = 60;
    t.jobs.push_back(j);
    return t;
}

} // anonymous namespace

TEST(ClusterSim, CompletesAllJobsUnmanaged)
{
    ClusterSim sim({}, steadyTrace(0.3, {}));
    sim.applyPlan(ComputePlan::passthrough());
    runRange(sim, 0, kSecondsPerDay);
    ClusterStats st = sim.stats();
    Trace ref = steadyTrace(0.3, {});
    // All but possibly the last few submitted jobs complete by midnight.
    EXPECT_GE(st.jobsCompleted, int64_t(ref.jobs.size()) - 5);
}

TEST(ClusterSim, SingleJobLifecycle)
{
    ClusterSim sim({}, tinyTrace());
    sim.applyPlan(ComputePlan::passthrough());

    runRange(sim, 0, 570);
    EXPECT_EQ(sim.busySlots(), 0);          // not yet submitted

    runRange(sim, 570, 720);
    EXPECT_EQ(sim.busySlots(), 4);          // all maps running

    runRange(sim, 720, 750);
    EXPECT_EQ(sim.stats().tasksCompleted, 4);  // maps done, reduce running
    EXPECT_EQ(sim.busySlots(), 1);

    runRange(sim, 750, 1200);
    EXPECT_EQ(sim.stats().jobsCompleted, 1);
    EXPECT_EQ(sim.stats().tasksCompleted, 5);
    EXPECT_EQ(sim.busySlots(), 0);
}

TEST(ClusterSim, ManagedSleepRespectsCoveringSubset)
{
    ClusterConfig cc;
    ClusterSim sim(cc, Trace{});
    ComputePlan plan = ComputePlan::passthrough();
    plan.manageServerStates = true;
    plan.targetActiveServers = 0;   // ask for fewer than allowed
    sim.applyPlan(plan);
    runRange(sim, 0, 600);

    EXPECT_EQ(sim.awakeServers(), cc.coveringSubsetSize);
    int covering_awake = 0;
    for (int s = 0; s < cc.totalServers(); ++s)
        if (sim.serverState(s) != ServerState::Sleeping)
            ++covering_awake;
    EXPECT_EQ(covering_awake, cc.coveringSubsetSize);
}

TEST(ClusterSim, WakesForTarget)
{
    ClusterSim sim({}, Trace{});
    ComputePlan plan = ComputePlan::passthrough();
    plan.manageServerStates = true;
    plan.targetActiveServers = 8;
    sim.applyPlan(plan);
    runRange(sim, 0, 300);
    EXPECT_EQ(sim.awakeServers(), 8);

    plan.targetActiveServers = 40;
    sim.applyPlan(plan);
    runRange(sim, 300, 600);
    EXPECT_EQ(sim.awakeServers(), 40);
}

TEST(ClusterSim, BusyServersDecommissionBeforeSleeping)
{
    // Load the cluster, then shrink hard: servers with running tasks
    // must pass through Decommissioned (still counted awake).
    ClusterSim sim({}, steadyTrace(0.8, {}));
    ComputePlan plan = ComputePlan::passthrough();
    plan.manageServerStates = true;
    plan.targetActiveServers = 64;
    sim.applyPlan(plan);
    runRange(sim, 0, 3600);
    ASSERT_GT(sim.busySlots(), 10);

    plan.targetActiveServers = 8;
    sim.applyPlan(plan);
    sim.step(SimTime(3600), 30.0);

    int decommissioned = 0;
    for (int s = 0; s < 64; ++s)
        if (sim.serverState(s) == ServerState::Decommissioned)
            ++decommissioned;
    EXPECT_GT(decommissioned, 0);

    // Once their tasks finish, they descend to Sleeping.
    runRange(sim, 3630, 3600 + 2400);
    EXPECT_LE(sim.awakeServers(), 20);
}

TEST(ClusterSim, PodOrderFillsPreferredPodsFirst)
{
    ClusterConfig cc;
    ClusterSim sim(cc, steadyTrace(0.15, {}));
    ComputePlan plan = ComputePlan::passthrough();
    plan.manageServerStates = true;
    plan.targetActiveServers = 24;
    plan.podOrder = {7, 6, 5, 4, 3, 2, 1, 0};
    sim.applyPlan(plan);
    runRange(sim, 0, 7200);

    plant::PodLoad load = sim.podLoad();
    // Preferred pods carry more awake servers and more of the load.
    EXPECT_GT(load.activeServers[7], load.activeServers[0]);
    EXPECT_GE(load.utilization[7], load.utilization[0]);
}

TEST(ClusterSim, PlacementFollowsPodOrderChangesOnly)
{
    // Twin clusters: `once` gets each plan a single time, `every` gets
    // an equal copy every control epoch.  Plans that keep the pod order
    // must not move placement, and a new order must take over.
    ComputePlan plan = ComputePlan::passthrough();
    ClusterSim once({}, steadyTrace(0.15, {}));
    ClusterSim every({}, steadyTrace(0.15, {}));
    auto run = [&](int64_t from, int64_t to) {
        once.applyPlan(plan);
        for (int64_t t = from; t < to; t += 30) {
            if (t % 600 == 0)
                every.applyPlan(ComputePlan(plan));
            once.step(SimTime(t), 30.0);
            every.step(SimTime(t), 30.0);
            const plant::PodLoad a = once.podLoad();
            const plant::PodLoad b = every.podLoad();
            ASSERT_EQ(a.activeServers, b.activeServers) << "t = " << t;
            ASSERT_EQ(a.utilization, b.utilization) << "t = " << t;
        }
    };

    plan.podOrder = {7, 6, 5, 4, 3, 2, 1, 0};
    run(0, 7200);
    plant::PodLoad load = every.podLoad();
    EXPECT_GT(load.utilization[7], load.utilization[0]);

    plan.podOrder = {0, 1, 2, 3, 4, 5, 6, 7};
    run(7200, 4 * 3600);
    load = every.podLoad();
    EXPECT_GT(load.utilization[0], load.utilization[7]);
}

TEST(ClusterSim, DeferralHonorsHourMaskAndDeadline)
{
    Trace t = tinyTrace();
    t.makeDeferrable(6.0);  // deadline at 600 + 6 h
    ClusterSim sim({}, t);

    ComputePlan plan = ComputePlan::passthrough();
    plan.manageServerStates = true;
    plan.targetActiveServers = 64;
    plan.hourAllowed.fill(false);
    plan.hourAllowed[5] = true;  // only 05:00-06:00 allowed
    sim.applyPlan(plan);

    // Job submits at 00:10 but must not start before 05:00.
    runRange(sim, 0, 4 * kSecondsPerHour);
    EXPECT_EQ(sim.busySlots(), 0);

    runRange(sim, 4 * kSecondsPerHour, 5 * kSecondsPerHour + 600);
    // Released at 05:00 (and short enough to already be done).
    EXPECT_GT(sim.stats().tasksCompleted, 0);
}

TEST(ClusterSim, DeadlineForcesRelease)
{
    Trace t = tinyTrace();
    t.makeDeferrable(2.0);  // deadline at 600 + 2 h
    ClusterSim sim({}, t);

    ComputePlan plan = ComputePlan::passthrough();
    plan.manageServerStates = true;
    plan.hourAllowed.fill(false);  // never allowed...
    sim.applyPlan(plan);

    runRange(sim, 0, 600 + 2 * kSecondsPerHour + 300);
    EXPECT_GT(sim.stats().tasksCompleted, 0);  // ...the deadline wins
}

TEST(ClusterSim, PowerCyclesWithinLoadUnloadBudget)
{
    // Paper §4.2: no disk should power-cycle more than ~2.2 times per
    // hour on average; the load/unload budget allows 8.5/hour.
    ClusterSim sim({}, facebookTrace({}));
    ComputePlan plan = ComputePlan::passthrough();
    plan.manageServerStates = true;

    for (int64_t t = 0; t < kSecondsPerDay; t += 30) {
        if (t % 600 == 0) {
            // A plausible controller: target tracks demand with decay.
            WorkloadStatus st = sim.status();
            int target = std::max(st.demandServers + 8,
                                  plan.targetActiveServers * 8 / 10);
            plan.targetActiveServers = target;
            sim.applyPlan(plan);
        }
        sim.step(SimTime(t), 30.0);
    }
    ClusterStats st = sim.stats();
    EXPECT_LT(st.maxPowerCyclesPerHour, 8.5);
}

TEST(ClusterSim, UtilizationReportedPerPod)
{
    ClusterSim sim({}, steadyTrace(0.4, {}));
    sim.applyPlan(ComputePlan::passthrough());
    runRange(sim, 0, 3 * kSecondsPerHour);

    plant::PodLoad load = sim.podLoad();
    ASSERT_EQ(load.activeServers.size(), 8u);
    double total_util = 0.0;
    for (int p = 0; p < 8; ++p) {
        EXPECT_EQ(load.activeServers[size_t(p)], 8);
        total_util += load.utilization[size_t(p)];
    }
    EXPECT_GT(total_util / 8.0, 0.15);
    EXPECT_LT(total_util / 8.0, 0.85);

    WorkloadStatus st = sim.status();
    EXPECT_GT(st.offeredUtilization, 0.1);
    EXPECT_EQ(st.awakeServers, 64);
}

TEST(ClusterSim, TraceRepeatsDaily)
{
    ClusterSim sim({}, tinyTrace());
    sim.applyPlan(ComputePlan::passthrough());
    runRange(sim, 0, kSecondsPerDay);
    EXPECT_EQ(sim.stats().jobsCompleted, 1);
    runRange(sim, kSecondsPerDay, 2 * kSecondsPerDay);
    EXPECT_EQ(sim.stats().jobsCompleted, 2);  // replayed on day 2
}

TEST(ClusterSim, JobDelayAccounting)
{
    Trace t = tinyTrace();
    t.makeDeferrable(3.0);
    ClusterSim sim({}, t);
    ComputePlan plan = ComputePlan::passthrough();
    plan.manageServerStates = true;
    plan.hourAllowed.fill(false);
    plan.hourAllowed[2] = true;  // delay into hour 2
    sim.applyPlan(plan);
    runRange(sim, 0, 4 * kSecondsPerHour);
    ClusterStats st = sim.stats();
    ASSERT_EQ(st.jobsCompleted, 1);
    EXPECT_GT(st.meanJobDelayS, 1.0 * kSecondsPerHour);
    EXPECT_LT(st.meanJobDelayS, 2.5 * kSecondsPerHour);
}

// KNOWN DEVIATION (ROADMAP item 10, EXPERIMENTS.md): the engine's warm-up
// starts at 22:00 of the previous calendar day, and step() rolls the day
// trace over whenever the day index changes, so the warm-up releases at
// once every trace job submitted before 22:00 and the measured day starts
// behind that backlog.  The fix must flip this assertion in the same
// commit.
TEST(ClusterSim, WarmupAcrossMidnightReleasesThePreviousDaysTrace)
{
    ClusterSim sim({}, facebookTrace());
    sim.applyPlan(ComputePlan::passthrough());
    const int64_t midnight = 149 * kSecondsPerDay;
    runRange(sim, midnight - 2 * kSecondsPerHour, midnight);
    EXPECT_GT(sim.status().queuedTasks, 40000);
}
