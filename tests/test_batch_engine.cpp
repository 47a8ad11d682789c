/**
 * @file
 * Tests for the lane-batched simulation engine (sim/batch_engine.hpp)
 * and its sweep integration: the batched path must reproduce the scalar
 * oracle's Summary metrics within the DESIGN.md §10 tolerance across
 * every named climate and plant variant, ragged batches must behave
 * like full ones, batched sweeps must be deterministic at any thread
 * count, and a failing lane must neither reorder nor drop the others.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "environment/location.hpp"
#include "sim/batch_engine.hpp"
#include "sim/runner.hpp"
#include "sim/scenario.hpp"
#include "sim/spec_io.hpp"

using namespace coolair;
using namespace coolair::sim;

namespace {

/**
 * The documented batched-vs-scalar tolerance (DESIGN.md §10): each
 * Summary metric agrees within 2% relative or 0.02 absolute, whichever
 * is larger.  In practice runs agree to far better than this — the
 * fast-math plant kernels and libmvec move only last digits, and only a
 * near-tie in candidate scores (last-ulp reassociation in the batched
 * scorer) can diverge a trajectory — but the contract is what the
 * engine promises.
 */
constexpr double kRelTol = 0.02;
constexpr double kAbsTol = 0.02;

void
expectMetricClose(double batched, double scalar, const char *metric,
                  const std::string &what)
{
    const double tol = std::max(kAbsTol, kRelTol * std::fabs(scalar));
    EXPECT_NEAR(batched, scalar, tol) << what << ": " << metric;
}

void
expectSummaryClose(const Summary &batched, const Summary &scalar,
                   const std::string &what)
{
    expectMetricClose(batched.avgViolationC, scalar.avgViolationC,
                      "avgViolationC", what);
    expectMetricClose(batched.avgWorstDailyRangeC,
                      scalar.avgWorstDailyRangeC, "avgWorstDailyRangeC",
                      what);
    expectMetricClose(batched.maxWorstDailyRangeC,
                      scalar.maxWorstDailyRangeC, "maxWorstDailyRangeC",
                      what);
    expectMetricClose(batched.pue, scalar.pue, "pue", what);
    expectMetricClose(batched.itKwh, scalar.itKwh, "itKwh", what);
    expectMetricClose(batched.coolingKwh, scalar.coolingKwh, "coolingKwh",
                      what);
    expectMetricClose(batched.humidityViolationFrac,
                      scalar.humidityViolationFrac, "humidityViolationFrac",
                      what);
    expectMetricClose(batched.rateViolationFrac, scalar.rateViolationFrac,
                      "rateViolationFrac", what);
    expectMetricClose(batched.avgMaxInletC, scalar.avgMaxInletC,
                      "avgMaxInletC", what);
    EXPECT_EQ(batched.days, scalar.days) << what << ": days";
}

/** One lane spec: a short 2-week year sample, coarse physics step. */
ExperimentSpec
laneSpec(environment::NamedSite site, SystemId system,
         cooling::ActuatorStyle style, PlantVariant variant, int batch)
{
    ExperimentSpec spec;
    spec.location = environment::namedLocation(site);
    spec.system = system;
    spec.style = style;
    spec.variant = variant;
    spec.workload = WorkloadKind::FacebookProfile;
    spec.weeks = 2;
    spec.physicsStepS = 120.0;
    spec.batch = batch;
    spec.seed = ExperimentRunner::deriveSeed(
        11, size_t(site), spec.location.name);
    return spec;
}

} // anonymous namespace

TEST(BatchShapeKey, IgnoresPerLaneFieldsOnly)
{
    ExperimentSpec a = laneSpec(environment::NamedSite::Newark,
                                SystemId::AllNd,
                                cooling::ActuatorStyle::Smooth,
                                PlantVariant::Standard, 4);
    ExperimentSpec b = a;
    b.location = environment::namedLocation(environment::NamedSite::Chad);
    b.seed = 999;
    b.cacheDirPath = "/tmp/some-cache";
    b.reportJsonPath = "/tmp/report.json";
    EXPECT_EQ(batchShapeKey(a), batchShapeKey(b));

    ExperimentSpec c = a;
    c.weeks = 4;
    EXPECT_NE(batchShapeKey(a), batchShapeKey(c));

    ExperimentSpec d = a;
    d.style = cooling::ActuatorStyle::Abrupt;
    EXPECT_NE(batchShapeKey(a), batchShapeKey(d));

    ExperimentSpec e = a;
    e.batch = 8;
    EXPECT_NE(batchShapeKey(a), batchShapeKey(e));
}

/**
 * The tentpole's oracle lock: every named climate, through each plant
 * shape the paper exercises (abrupt Parasol, smooth units, smooth with
 * the evaporative pre-cooler, smooth with the chiller loop), batched
 * five lanes at a time, must match its scalar run within tolerance.
 */
TEST(BatchedEngine, MatchesScalarOracleAcrossClimatesAndVariants)
{
    struct Shape
    {
        const char *name;
        cooling::ActuatorStyle style;
        PlantVariant variant;
    };
    const Shape shapes[] = {
        {"abrupt", cooling::ActuatorStyle::Abrupt, PlantVariant::Standard},
        {"smooth", cooling::ActuatorStyle::Smooth, PlantVariant::Standard},
        {"evap", cooling::ActuatorStyle::Smooth, PlantVariant::Evaporative},
        {"chiller", cooling::ActuatorStyle::Smooth, PlantVariant::Chiller},
    };

    for (const Shape &shape : shapes) {
        std::vector<ExperimentSpec> specs;
        for (environment::NamedSite site : environment::allNamedSites())
            specs.push_back(laneSpec(site, SystemId::AllNd, shape.style,
                                     shape.variant, 5));

        std::vector<LaneResult> lanes = runBatchedGroup(specs, 5);
        ASSERT_EQ(lanes.size(), specs.size());

        for (size_t i = 0; i < specs.size(); ++i) {
            ASSERT_TRUE(lanes[i].ok)
                << shape.name << " lane " << i << ": " << lanes[i].error;
            ExperimentSpec scalar = specs[i];
            scalar.batch = 0;
            ExperimentResult oracle = runExperiment(scalar);
            const std::string what = std::string(shape.name) + " / " +
                                     specs[i].location.name;
            expectSummaryClose(lanes[i].result.system, oracle.system,
                               what + " (system)");
            expectSummaryClose(lanes[i].result.outside, oracle.outside,
                               what + " (outside)");
        }
    }
}

/** A batch narrower than the requested width runs correctly and is
    counted as a ragged tail. */
TEST(BatchedEngine, RaggedBatchMatchesOracle)
{
    std::vector<ExperimentSpec> specs = {
        laneSpec(environment::NamedSite::Newark, SystemId::AllNd,
                 cooling::ActuatorStyle::Smooth, PlantVariant::Standard, 8),
        laneSpec(environment::NamedSite::Iceland, SystemId::AllNd,
                 cooling::ActuatorStyle::Smooth, PlantVariant::Standard, 8),
        laneSpec(environment::NamedSite::Singapore, SystemId::AllNd,
                 cooling::ActuatorStyle::Smooth, PlantVariant::Standard, 8),
    };

    BatchedEngine engine(specs, 8);
    ASSERT_EQ(engine.lanes(), 3);
    std::vector<LaneResult> lanes = engine.run();
    EXPECT_EQ(engine.stats().raggedTailLanes, 3);
    EXPECT_GT(engine.stats().lanesStepped, 0);

    for (size_t i = 0; i < specs.size(); ++i) {
        ASSERT_TRUE(lanes[i].ok) << lanes[i].error;
        ExperimentSpec scalar = specs[i];
        scalar.batch = 0;
        ExperimentResult oracle = runExperiment(scalar);
        expectSummaryClose(lanes[i].result.system, oracle.system,
                           "ragged " + specs[i].location.name);
    }
}

namespace {

/**
 * Lane-set independence (DESIGN.md §10): a lane's result bytes do not
 * depend on how many lanes share its engine.  A 16-spec wave of one
 * shape, run as one 16-lane batch, must be reproduced byte for byte
 * when the same wave runs as consecutive chunks of every width 1-15 —
 * the property the serve scheduler relies on when it splits a
 * coalesced lane set across its workers (DESIGN.md §12).
 */
void
expectLaneBytesIndependentOfLaneSet(SystemId system, double physicsStepS)
{
    constexpr int kWave = 16;
    const std::vector<environment::NamedSite> &sites =
        environment::allNamedSites();
    std::vector<ExperimentSpec> wave;
    for (int i = 0; i < kWave; ++i) {
        ExperimentSpec spec;
        spec.location =
            environment::namedLocation(sites[size_t(i) % sites.size()]);
        spec.system = system;
        spec.workload = WorkloadKind::FacebookProfile;
        spec.runKind = RunKind::DayRange;
        spec.startDay = 150;
        spec.endDay = 152;
        spec.physicsStepS = physicsStepS;
        spec.batch = kWave;
        spec.seed = ExperimentRunner::deriveSeed(23, size_t(i),
                                                 spec.location.name);
        wave.push_back(spec);
    }

    auto laneTexts = [](const std::vector<ExperimentSpec> &specs) {
        std::vector<std::string> texts;
        for (LaneResult &lane :
             runBatchedGroup(specs, int(specs.size()))) {
            EXPECT_TRUE(lane.ok) << lane.error;
            texts.push_back(formatResult(lane.result));
        }
        return texts;
    };

    const std::vector<std::string> whole = laneTexts(wave);
    ASSERT_EQ(whole.size(), size_t(kWave));
    for (int width = 1; width < kWave; ++width) {
        std::string changed;
        for (int begin = 0; begin < kWave; begin += width) {
            const int end = std::min(begin + width, kWave);
            const std::vector<std::string> texts =
                laneTexts({wave.begin() + begin, wave.begin() + end});
            ASSERT_EQ(texts.size(), size_t(end - begin));
            for (int i = begin; i < end; ++i)
                if (texts[size_t(i - begin)] != whole[size_t(i)])
                    changed += " " + std::to_string(i);
        }
        EXPECT_TRUE(changed.empty())
            << "chunks of " << width << " changed the bytes of lanes"
            << changed;
    }
}

} // anonymous namespace

TEST(LaneSet, AllNdProfileAt120sKeepsLaneBytes)
{
    expectLaneBytesIndependentOfLaneSet(SystemId::AllNd, 120.0);
}

TEST(LaneSet, BaselineAt15sKeepsLaneBytes)
{
    expectLaneBytesIndependentOfLaneSet(SystemId::Baseline, 15.0);
}

/** batch=1 through the public runExperiment entry point routes through
    the batched engine and still honors the tolerance contract. */
TEST(BatchedEngine, SingleLaneViaRunExperiment)
{
    ExperimentSpec spec =
        laneSpec(environment::NamedSite::Santiago, SystemId::AllNd,
                 cooling::ActuatorStyle::Smooth, PlantVariant::Standard, 1);
    ExperimentResult batched = runExperiment(spec);
    spec.batch = 0;
    ExperimentResult oracle = runExperiment(spec);
    expectSummaryClose(batched.system, oracle.system, "single-lane");
}

/**
 * Batched sweeps are deterministic at any worker count: grouping and
 * chunking derive from spec order and shape keys, never scheduling, so
 * an 8-thread sweep reproduces a serial one bit for bit.
 */
TEST(BatchedSweep, ThreadCountDoesNotChangeResults)
{
    std::vector<ExperimentSpec> specs;
    for (environment::NamedSite site : environment::allNamedSites()) {
        specs.push_back(laneSpec(site, SystemId::Baseline,
                                 cooling::ActuatorStyle::Smooth,
                                 PlantVariant::Standard, 4));
        specs.push_back(laneSpec(site, SystemId::AllNd,
                                 cooling::ActuatorStyle::Smooth,
                                 PlantVariant::Standard, 4));
    }

    RunnerConfig serial_config;
    serial_config.threads = 1;
    SweepOutcome serial = ExperimentRunner(serial_config).run(specs);
    ASSERT_TRUE(serial.allOk());

    RunnerConfig parallel_config;
    parallel_config.threads = 8;
    SweepOutcome parallel = ExperimentRunner(parallel_config).run(specs);
    ASSERT_TRUE(parallel.allOk());

    ASSERT_EQ(serial.results.size(), parallel.results.size());
    for (size_t i = 0; i < specs.size(); ++i)
        EXPECT_EQ(serial.results[i], parallel.results[i]) << "spec " << i;
}

/**
 * Fault injection: a lane whose construction fails (trace output is
 * unsupported in the batched engine) is reported at its original spec
 * index while every other lane of its batch completes.  Failed lanes
 * are neither dropped nor do they shift the indexing of the rest.
 */
TEST(BatchedSweep, FailedLaneKeepsOthersAndIndices)
{
    std::vector<ExperimentSpec> specs;
    for (environment::NamedSite site : environment::allNamedSites())
        specs.push_back(laneSpec(site, SystemId::Baseline,
                                 cooling::ActuatorStyle::Smooth,
                                 PlantVariant::Standard, 3));
    ASSERT_EQ(specs.size(), 5u);
    specs[2].traceCsvPath = "/nonexistent-dir/should-not-open.csv";

    RunnerConfig config;
    config.threads = 2;
    SweepOutcome outcome = ExperimentRunner(config).run(specs);

    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].index, 2u);
    EXPECT_FALSE(outcome.failures[0].message.empty());
    EXPECT_EQ(outcome.failures[0].spec.location.name,
              specs[2].location.name);

    for (size_t i = 0; i < specs.size(); ++i) {
        if (i == 2) {
            EXPECT_FALSE(outcome.ok(i));
            continue;
        }
        EXPECT_TRUE(outcome.ok(i)) << "spec " << i;
        EXPECT_GT(outcome.results[i].system.days, 0u) << "spec " << i;
        // The surviving lanes' results are the same the spec produces
        // in a batch without the poisoned lane.
        ExperimentResult solo = runBatchedExperiment(specs[i]);
        EXPECT_EQ(outcome.results[i], solo) << "spec " << i;
    }
}

/** A whole-batch failure path: runBatchedExperiment on a failing lane
    throws instead of returning a default result. */
TEST(BatchedEngine, SingleLaneFailureThrows)
{
    ExperimentSpec spec =
        laneSpec(environment::NamedSite::Newark, SystemId::Baseline,
                 cooling::ActuatorStyle::Smooth, PlantVariant::Standard, 1);
    spec.traceCsvPath = "/nonexistent-dir/should-not-open.csv";
    EXPECT_THROW(runBatchedExperiment(spec), std::runtime_error);
}
