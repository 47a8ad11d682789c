/**
 * @file
 * Scenario-layer tests: the refactor contract (Scenario-built year runs
 * are bit-identical to the pre-refactor assembly), builder overrides,
 * run kinds, trace sinks, CSV dumping, spec-key exhaustiveness, and
 * strict parse errors.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "environment/location.hpp"
#include "obs/stats.hpp"
#include "sim/batch_engine.hpp"
#include "sim/engine.hpp"
#include "sim/scenario.hpp"
#include "sim/result_cache.hpp"
#include "sim/spec_io.hpp"
#include "sim/trace_csv.hpp"
#include "workload/cluster.hpp"
#include "workload/trace_gen.hpp"

using namespace coolair;

namespace {

/**
 * A verbatim copy of the pre-refactor runYearExperiment assembly (the
 * bespoke construction the scenario layer replaced).  The parity test
 * below locks the refactor to this behavior bit for bit.
 */
workload::Trace
legacyTraceFor(sim::WorkloadKind kind, sim::SystemId system, uint64_t seed)
{
    workload::TraceGenConfig tg;
    tg.seed = seed;
    workload::Trace trace;
    switch (kind) {
      case sim::WorkloadKind::Facebook:
      case sim::WorkloadKind::FacebookProfile:
        trace = workload::facebookTrace(tg);
        break;
      case sim::WorkloadKind::Nutch:
        trace = workload::nutchTrace(tg);
        break;
      case sim::WorkloadKind::SteadyHalf:
        trace = workload::steadyTrace(0.5, tg);
        break;
    }
    if (sim::systemIsDeferrable(system))
        trace.makeDeferrable(6.0);
    return trace;
}

sim::ExperimentResult
legacyRunYearExperiment(const sim::ExperimentSpec &spec)
{
    plant::PlantConfig pc = spec.style == cooling::ActuatorStyle::Abrupt
                                ? plant::PlantConfig::parasol()
                                : plant::PlantConfig::smoothParasol();
    if (spec.variant == sim::PlantVariant::Evaporative)
        pc = plant::PlantConfig::smoothParasolEvaporative();
    else if (spec.variant == sim::PlantVariant::Chiller)
        pc = plant::PlantConfig::smoothParasolChiller();
    plant::Plant plant(pc, spec.seed);

    environment::Climate climate = spec.location.makeClimate(spec.seed);
    environment::Forecaster forecaster(climate, spec.forecastError,
                                       spec.seed);

    std::unique_ptr<workload::WorkloadModel> workload;
    workload::ClusterConfig cc;
    if (spec.workload == sim::WorkloadKind::FacebookProfile) {
        workload = std::make_unique<workload::ProfileWorkload>(
            cc, sim::sharedFacebookProfile());
    } else {
        workload = std::make_unique<workload::ClusterSim>(
            cc, legacyTraceFor(spec.workload, spec.system, spec.seed));
    }

    std::unique_ptr<sim::Controller> controller;
    if (spec.system == sim::SystemId::Baseline) {
        cooling::TksConfig tks = cooling::TksConfig::extendedBaseline();
        tks.setpointC = spec.maxTempC;
        controller = std::make_unique<sim::BaselineController>(tks);
    } else {
        cooling::RegimeMenu menu =
            spec.style == cooling::ActuatorStyle::Abrupt
                ? cooling::RegimeMenu::parasol()
                : cooling::RegimeMenu::smooth();
        const model::LearnedBundle *bundle = &sim::sharedBundle();
        if (spec.variant == sim::PlantVariant::Evaporative) {
            menu = cooling::RegimeMenu::smoothWithEvaporative();
            bundle = &sim::sharedEvaporativeBundle();
        }
        core::CoolAirConfig config = core::CoolAirConfig::forVersion(
            sim::systemVersion(spec.system), menu, spec.maxTempC);
        controller = std::make_unique<sim::CoolAirController>(
            config, *bundle, &forecaster, sim::systemName(spec.system));
    }

    sim::MetricsConfig mc;
    mc.maxTempC = spec.maxTempC;
    sim::MetricsCollector metrics(mc, pc.numPods);

    sim::EngineConfig ec;
    ec.physicsStepS = spec.physicsStepS;
    ec.sampleIntervalS = std::max<int64_t>(60, int64_t(spec.physicsStepS));
    sim::Engine engine(plant, *workload, *controller, climate, ec);
    engine.setMetrics(&metrics);
    engine.runYearWeekly(spec.weeks);

    sim::ExperimentResult result;
    result.system = metrics.summary();
    result.outside = metrics.outsideSummary();
    return result;
}

void
expectSummaryEq(const sim::Summary &a, const sim::Summary &b)
{
    EXPECT_EQ(a.avgViolationC, b.avgViolationC);
    EXPECT_EQ(a.avgWorstDailyRangeC, b.avgWorstDailyRangeC);
    EXPECT_EQ(a.minWorstDailyRangeC, b.minWorstDailyRangeC);
    EXPECT_EQ(a.maxWorstDailyRangeC, b.maxWorstDailyRangeC);
    EXPECT_EQ(a.pue, b.pue);
    EXPECT_EQ(a.itKwh, b.itKwh);
    EXPECT_EQ(a.coolingKwh, b.coolingKwh);
    EXPECT_EQ(a.humidityViolationFrac, b.humidityViolationFrac);
    EXPECT_EQ(a.rateViolationFrac, b.rateViolationFrac);
    EXPECT_EQ(a.avgMaxInletC, b.avgMaxInletC);
    EXPECT_EQ(a.days, b.days);
}

sim::ExperimentSpec
newarkSpec()
{
    sim::ExperimentSpec spec;
    spec.location =
        environment::namedLocation(environment::NamedSite::Newark);
    return spec;
}

} // anonymous namespace

// ---------------------------------------------------------------------------
// Parity: the scenario layer reproduces the pre-refactor assembly
// bit for bit across actuator styles and system kinds.
// ---------------------------------------------------------------------------

struct ParityCase
{
    cooling::ActuatorStyle style;
    sim::SystemId system;
};

class ScenarioParity : public ::testing::TestWithParam<ParityCase>
{
};

TEST_P(ScenarioParity, MatchesLegacyAssembly)
{
    sim::ExperimentSpec spec = newarkSpec();
    spec.style = GetParam().style;
    spec.system = GetParam().system;
    spec.weeks = 2;

    sim::ExperimentResult legacy = legacyRunYearExperiment(spec);
    sim::ExperimentResult scenario = sim::runYearExperiment(spec);

    expectSummaryEq(legacy.system, scenario.system);
    expectSummaryEq(legacy.outside, scenario.outside);
}

INSTANTIATE_TEST_SUITE_P(
    StylesAndSystems, ScenarioParity,
    ::testing::Values(
        ParityCase{cooling::ActuatorStyle::Abrupt, sim::SystemId::Baseline},
        ParityCase{cooling::ActuatorStyle::Smooth, sim::SystemId::Baseline},
        ParityCase{cooling::ActuatorStyle::Abrupt, sim::SystemId::AllNd},
        ParityCase{cooling::ActuatorStyle::Smooth, sim::SystemId::AllNd}));

// Observability must never perturb the simulation: the same spec run
// with global stats collection enabled produces bit-identical metrics,
// and the harvested registry sees the run.
TEST_P(ScenarioParity, ObsEnabledDoesNotChangeMetrics)
{
    sim::ExperimentSpec spec = newarkSpec();
    spec.style = GetParam().style;
    spec.system = GetParam().system;
    spec.weeks = 2;

    sim::ExperimentResult off = sim::runYearExperiment(spec);

    obs::registry().clear();
    obs::setEnabled(true);
    sim::ExperimentResult on = sim::runYearExperiment(spec);
    obs::setEnabled(false);

    expectSummaryEq(off.system, on.system);
    expectSummaryEq(off.outside, on.outside);
    EXPECT_GT(obs::registry().counter("engine.steps").value(), 0);
    obs::registry().clear();
}

// ---------------------------------------------------------------------------
// Run kinds and entry points.
// ---------------------------------------------------------------------------

TEST(Scenario, SingleDayRunsOneDay)
{
    sim::ExperimentSpec spec = newarkSpec();
    spec.runKind = sim::RunKind::SingleDay;
    spec.day = 100;
    sim::ExperimentResult r = sim::runExperiment(spec);
    EXPECT_EQ(r.system.days, 1);
}

TEST(Scenario, DayRangeCoversRange)
{
    sim::ExperimentSpec spec = newarkSpec();
    spec.runKind = sim::RunKind::DayRange;
    spec.startDay = 40;
    spec.endDay = 43;
    sim::ExperimentResult r = sim::runExperiment(spec);
    EXPECT_EQ(r.system.days, 3);
}

TEST(Scenario, RunYearExperimentForcesYearProtocol)
{
    sim::ExperimentSpec spec = newarkSpec();
    spec.runKind = sim::RunKind::SingleDay;  // must be overridden
    spec.weeks = 1;
    sim::ExperimentResult forced = sim::runYearExperiment(spec);

    spec.runKind = sim::RunKind::YearWeekly;
    sim::ExperimentResult year = sim::runExperiment(spec);
    expectSummaryEq(forced.system, year.system);
}

TEST(Scenario, InvalidSpecsThrowWithLegacyMessages)
{
    sim::ExperimentSpec spec = newarkSpec();
    spec.weeks = 0;
    try {
        sim::runYearExperiment(spec);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ("ExperimentSpec: weeks must be positive", e.what());
    }

    spec = newarkSpec();
    spec.physicsStepS = 0.0;
    try {
        sim::runExperiment(spec);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ("ExperimentSpec: physics step must be positive",
                     e.what());
    }

    spec = newarkSpec();
    spec.runKind = sim::RunKind::DayRange;
    spec.startDay = 10;
    spec.endDay = 10;
    EXPECT_THROW(sim::runExperiment(spec), std::invalid_argument);

    // A step the engine cannot sample on (60 s is not a whole number of
    // 7 s steps) is refused up front, on both engines, instead of
    // stopping the process mid-run.
    spec = sim::parseSpec("run = day\nday = 10\nphysics_step = 7\n");
    EXPECT_THROW(sim::runExperiment(spec), std::invalid_argument);
    spec.batch = 1;
    EXPECT_THROW(sim::runBatchedExperiment(spec), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Builder overrides and trace sinks.
// ---------------------------------------------------------------------------

TEST(ScenarioBuilder, ControllerOverrideIsUsed)
{
    sim::ExperimentSpec spec = newarkSpec();
    spec.runKind = sim::RunKind::SingleDay;
    spec.day = 186;

    auto scenario =
        sim::ScenarioBuilder(spec)
            .withController(std::make_unique<sim::FixedRegimeController>(
                cooling::Regime::freeCooling(0.6)))
            .build();
    EXPECT_STREQ("Fixed-Regime", scenario->controller().name());
    sim::ExperimentResult r = scenario->run();
    EXPECT_EQ(r.system.days, 1);
}

// The scalar engine shares its loop with the batched one, which turns a
// lane's exception into that lane's failure; the scalar engine must
// instead let it reach the caller with its own type and message.
TEST(ScenarioBuilder, ControllerExceptionReachesCaller)
{
    struct FaultyController : sim::FixedRegimeController
    {
        FaultyController()
            : sim::FixedRegimeController(cooling::Regime::closed())
        {
        }
        sim::ControlDecision control(const plant::SensorReadings &,
                                     const workload::WorkloadStatus &,
                                     const plant::PodLoad &,
                                     util::SimTime) override
        {
            throw std::domain_error("controller fault");
        }
    };

    sim::ExperimentSpec spec = newarkSpec();
    spec.runKind = sim::RunKind::SingleDay;
    auto scenario = sim::ScenarioBuilder(spec)
                        .withController(std::make_unique<FaultyController>())
                        .build();
    try {
        scenario->run();
        FAIL() << "expected std::domain_error";
    } catch (const std::domain_error &e) {
        EXPECT_STREQ("controller fault", e.what());
    }
}

TEST(ScenarioBuilder, TraceSinksFanOut)
{
    sim::ExperimentSpec spec = newarkSpec();
    spec.runKind = sim::RunKind::SingleDay;
    spec.day = 50;

    int a = 0, b = 0;
    auto scenario =
        sim::ScenarioBuilder(spec)
            .withTraceSink([&](const sim::TraceRow &) { ++a; })
            .withTraceSink([&](const sim::TraceRow &) { ++b; })
            .build();
    scenario->run();
    EXPECT_GT(a, 0);
    EXPECT_EQ(a, b);
    // One row per sample interval over the measured day.
    EXPECT_EQ(a, 24 * 60);
}

TEST(ScenarioBuilder, TraceCsvPathWritesCanonicalCsv)
{
    std::string path = ::testing::TempDir() + "scenario_trace.csv";
    std::remove(path.c_str());

    sim::ExperimentSpec spec = newarkSpec();
    spec.runKind = sim::RunKind::SingleDay;
    spec.day = 10;
    spec.traceCsvPath = path;
    sim::runExperiment(spec);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    std::ostringstream expected;
    sim::writeTraceCsvHeader(expected);
    EXPECT_EQ(expected.str(), header + "\n");
    int rows = 0;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            ++rows;
    EXPECT_EQ(rows, 24 * 60);
    std::remove(path.c_str());
}

TEST(ScenarioBuilder, MetricsConfigOverride)
{
    sim::ExperimentSpec spec = newarkSpec();
    spec.runKind = sim::RunKind::SingleDay;
    spec.day = 200;

    sim::MetricsConfig mc;
    mc.maxTempC = 20.0;  // everything violates a 20 C ceiling in July
    auto strict = sim::ScenarioBuilder(spec).withMetricsConfig(mc).build();
    sim::Summary s = strict->run().system;

    sim::Summary normal = sim::runExperiment(spec).system;
    EXPECT_GT(s.avgViolationC, normal.avgViolationC);
}

// ---------------------------------------------------------------------------
// Factories.
// ---------------------------------------------------------------------------

TEST(ScenarioFactories, PlantConfigFollowsStyleAndVariant)
{
    sim::ExperimentSpec spec;
    spec.style = cooling::ActuatorStyle::Abrupt;
    EXPECT_EQ(sim::plantConfigFor(spec).actuators.style,
              cooling::ActuatorStyle::Abrupt);
    spec.style = cooling::ActuatorStyle::Smooth;
    EXPECT_EQ(sim::plantConfigFor(spec).actuators.style,
              cooling::ActuatorStyle::Smooth);
    spec.variant = sim::PlantVariant::Evaporative;
    EXPECT_TRUE(sim::plantConfigFor(spec).hasEvaporativeCooler);
}

TEST(ScenarioFactories, CoolairConfigAppliesOverrides)
{
    sim::ExperimentSpec spec;
    spec.system = sim::SystemId::AllNd;

    core::CoolAirConfig preset = sim::coolairConfigFor(spec);
    spec.bandWidthC = 2.5;
    spec.switchPenalty = 0.0;
    spec.horizonSteps = 3;
    core::CoolAirConfig tuned = sim::coolairConfigFor(spec);

    EXPECT_EQ(2.5, tuned.band.widthC);
    EXPECT_EQ(0.0, tuned.utility.switchPenalty);
    EXPECT_EQ(3, tuned.horizonSteps);
    // Untouched knobs keep the preset values.
    EXPECT_EQ(preset.band.offsetC, tuned.band.offsetC);
    EXPECT_EQ(preset.compute.sleepDecayPerEpoch,
              tuned.compute.sleepDecayPerEpoch);
}

TEST(ScenarioFactories, DeferrableSystemsGetDeferrableTraces)
{
    sim::ExperimentSpec spec;
    spec.workload = sim::WorkloadKind::Facebook;
    spec.system = sim::SystemId::AllDef;
    workload::Trace def = sim::traceForSpec(spec);
    spec.system = sim::SystemId::AllNd;
    workload::Trace nd = sim::traceForSpec(spec);

    ASSERT_FALSE(def.jobs.empty());
    ASSERT_EQ(def.jobs.size(), nd.jobs.size());
    bool any_slack = false;
    for (size_t i = 0; i < def.jobs.size(); ++i)
        any_slack |=
            def.jobs[i].startDeadlineS > nd.jobs[i].startDeadlineS;
    EXPECT_TRUE(any_slack);
}

// ---------------------------------------------------------------------------
// Spec keys: exhaustive enum round trips and strict parse errors.
// ---------------------------------------------------------------------------

TEST(SpecIo, EveryEnumKeyRoundTrips)
{
    for (sim::SystemId id : sim::allSystemIds()) {
        sim::ExperimentSpec spec;
        sim::applySpecAssignment(
            spec, std::string("system=") + sim::systemKey(id));
        EXPECT_EQ(id, spec.system);
    }
    for (sim::WorkloadKind kind :
         {sim::WorkloadKind::Facebook, sim::WorkloadKind::Nutch,
          sim::WorkloadKind::FacebookProfile, sim::WorkloadKind::SteadyHalf}) {
        sim::ExperimentSpec spec;
        sim::applySpecAssignment(
            spec, std::string("workload=") + sim::workloadKey(kind));
        EXPECT_EQ(kind, spec.workload);
    }
    for (sim::PlantVariant variant :
         {sim::PlantVariant::Standard, sim::PlantVariant::Evaporative,
          sim::PlantVariant::Chiller}) {
        sim::ExperimentSpec spec;
        sim::applySpecAssignment(
            spec, std::string("variant=") + sim::variantKey(variant));
        EXPECT_EQ(variant, spec.variant);
    }
    for (cooling::ActuatorStyle style : {cooling::ActuatorStyle::Abrupt,
                                         cooling::ActuatorStyle::Smooth}) {
        sim::ExperimentSpec spec;
        sim::applySpecAssignment(
            spec, std::string("style=") + sim::styleKey(style));
        EXPECT_EQ(style, spec.style);
    }
    for (sim::RunKind kind : {sim::RunKind::YearWeekly, sim::RunKind::SingleDay,
                              sim::RunKind::DayRange}) {
        sim::ExperimentSpec spec;
        sim::applySpecAssignment(
            spec, std::string("run=") + sim::runKindKey(kind));
        EXPECT_EQ(kind, spec.runKind);
    }
    for (environment::NamedSite site : environment::allNamedSites()) {
        sim::ExperimentSpec spec;
        sim::applySpecAssignment(spec,
                                 std::string("site=") + sim::siteKey(site));
        EXPECT_EQ(environment::namedLocation(site), spec.location);
    }
}

TEST(SpecIo, StrictParseErrors)
{
    sim::ExperimentSpec spec;
    EXPECT_THROW(sim::applySpecAssignment(spec, "no_such_key=1"),
                 std::invalid_argument);
    EXPECT_THROW(sim::applySpecAssignment(spec, "max_temp=warm"),
                 std::invalid_argument);
    EXPECT_THROW(sim::applySpecAssignment(spec, "system=coldair"),
                 std::invalid_argument);
    EXPECT_THROW(sim::applySpecAssignment(spec, "weeks=12.5"),
                 std::invalid_argument);
    EXPECT_THROW(sim::applySpecAssignment(spec, "seed=-1"),
                 std::invalid_argument);
    // Spec numbers are finite decimals; strtod alone would also take
    // NaN, infinities and hex.
    for (const char *bad : {"max_temp=nan", "max_temp=-inf",
                            "forecast_bias=0x10", "physics_step=infinity",
                            "switch_penalty=1e999"})
        EXPECT_THROW(sim::applySpecAssignment(spec, bad),
                     std::invalid_argument)
            << bad;
    EXPECT_THROW(sim::applySpecAssignment(spec, "just a sentence"),
                 std::invalid_argument);
    EXPECT_THROW(sim::applySpecText(spec, "weeks = 3\nbogus = 1\n"),
                 std::invalid_argument);
    EXPECT_EQ(3, spec.weeks);  // assignments before the error applied

    // Comments and blank lines are fine.
    sim::applySpecText(spec, "# comment\n\n  weeks = 7 \n");
    EXPECT_EQ(7, spec.weeks);
}

TEST(SpecIo, RunnableStepsAndSubnormalsStillRoundTrip)
{
    // The stricter number parse keeps every spec formatSpec writes: the
    // steps the engine runs, and a subnormal (which strtod flags with
    // ERANGE although it reads it exactly).
    for (double step : {15.0, 30.0, 60.0, 90.0, 120.0}) {
        sim::ExperimentSpec spec = newarkSpec();
        spec.physicsStepS = step;
        EXPECT_EQ(spec, sim::parseSpec(sim::formatSpec(spec))) << step;
        EXPECT_NO_THROW(sim::checkRunnable(spec)) << step;
    }
    sim::ExperimentSpec spec = newarkSpec();
    spec.switchPenalty = 1e-310;
    EXPECT_EQ(spec, sim::parseSpec(sim::formatSpec(spec)));
}

TEST(SpecIo, ParseErrorsNameKeyAndLine)
{
    sim::ExperimentSpec spec;
    try {
        sim::applySpecText(spec, "# header\nweeks = 3\nbogus = 1\n");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_STREQ("spec line 3: unknown key 'bogus'", e.what());
    }

    // Comments and blank lines still count toward the line number, and
    // the message names the offending key even for bad values.
    try {
        sim::applySpecText(spec, "weeks = 3\n\n# note\n  max_temp = warm\n");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        std::string what = e.what();
        EXPECT_NE(std::string::npos, what.find("spec line 4")) << what;
        EXPECT_NE(std::string::npos, what.find("max_temp")) << what;
        EXPECT_NE(std::string::npos, what.find("warm")) << what;
    }

    try {
        sim::applySpecText(spec, "weeks = 3\njust a sentence\n");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string::npos,
                  std::string(e.what()).find("spec line 2"))
            << e.what();
    }
}

TEST(SpecIo, CacheKeysRoundTrip)
{
    sim::ExperimentSpec spec = newarkSpec();
    spec.resultCache = false;
    spec.cacheDirPath = "/tmp/coolair-results";
    std::string text = sim::formatSpec(spec);
    EXPECT_NE(std::string::npos, text.find("result_cache = false"));
    EXPECT_NE(std::string::npos,
              text.find("cache_dir = /tmp/coolair-results"));
    EXPECT_EQ(spec, sim::parseSpec(text));

    // The defaults (cache on, no directory) are not emitted, so specs
    // written before the cache existed keep their canonical text.
    text = sim::formatSpec(newarkSpec());
    EXPECT_EQ(std::string::npos, text.find("result_cache"));
    EXPECT_EQ(std::string::npos, text.find("cache_dir"));
}

TEST(SpecIo, BatchKeyRoundTripsAndIsStrict)
{
    // batch=0 (the scalar path) is the default and omitted from the
    // canonical text; a batched spec round-trips exactly.
    sim::ExperimentSpec spec = newarkSpec();
    EXPECT_EQ(std::string::npos, sim::formatSpec(spec).find("batch"));

    spec.batch = 8;
    std::string text = sim::formatSpec(spec);
    EXPECT_NE(std::string::npos, text.find("batch = 8"));
    EXPECT_EQ(spec, sim::parseSpec(text));

    // Strict integer parsing: trailing junk, non-numbers, negatives and
    // absurd widths are rejected, never truncated or wrapped.
    sim::ExperimentSpec target;
    EXPECT_THROW(sim::applySpecAssignment(target, "batch=8x"),
                 std::invalid_argument);
    EXPECT_THROW(sim::applySpecAssignment(target, "batch=wide"),
                 std::invalid_argument);
    EXPECT_THROW(sim::applySpecAssignment(target, "batch=-1"),
                 std::invalid_argument);
    EXPECT_THROW(sim::applySpecAssignment(target, "batch=1025"),
                 std::invalid_argument);
    EXPECT_THROW(sim::applySpecAssignment(target, "batch=2.5"),
                 std::invalid_argument);
    sim::applySpecAssignment(target, "batch=16");
    EXPECT_EQ(16, target.batch);
}

TEST(SpecIo, BatchKeyGivesDistinctCacheIdentity)
{
    // A batched run honors a tolerance contract, not bit-identity, so
    // its results must never alias the scalar ones in the result store.
    sim::ExperimentSpec scalar = newarkSpec();
    scalar.cacheDirPath = "/tmp/coolair-results";
    sim::ExperimentSpec batched = scalar;
    batched.batch = 8;
    EXPECT_NE(sim::resultCacheId(scalar), sim::resultCacheId(batched));

    // Output paths still do not contribute to either identity.
    sim::ExperimentSpec batched_with_report = batched;
    batched_with_report.reportJsonPath = "/tmp/report.json";
    EXPECT_EQ(sim::resultCacheId(batched),
              sim::resultCacheId(batched_with_report));
}

// ---------------------------------------------------------------------------
// Result serialization (the persistent result store's payload form).
// ---------------------------------------------------------------------------

namespace {

sim::ExperimentResult
awkwardResult()
{
    // Values chosen to break lossy round trips: repeating binary
    // fractions, tiny magnitudes, and sums that differ from their
    // decimal spelling in the last ulp.
    sim::ExperimentResult r;
    r.system.avgViolationC = 1.0 / 3.0;
    r.system.avgWorstDailyRangeC = 0.1 + 0.2;
    r.system.minWorstDailyRangeC = -0.0;
    r.system.maxWorstDailyRangeC = 18.600000000000001;
    r.system.pue = 1.08;
    r.system.itKwh = 43.4999999999999964;
    r.system.coolingKwh = 1e-17;
    r.system.humidityViolationFrac = 2.0 / 7.0;
    r.system.rateViolationFrac = 1e300;
    r.system.avgMaxInletC = 30.000000000000004;
    r.system.days = 365;
    r.outside = r.system;
    r.outside.pue = 0.0;
    r.outside.days = 364;
    return r;
}

} // anonymous namespace

TEST(SpecIo, ResultRoundTripIsExact)
{
    sim::ExperimentResult r = awkwardResult();
    std::string text = sim::formatResult(r);
    sim::ExperimentResult parsed = sim::parseResult(text);
    EXPECT_EQ(r, parsed);
    // Formatting is deterministic, so format(parse(.)) is stable too.
    EXPECT_EQ(text, sim::formatResult(parsed));
}

TEST(SpecIo, ParseResultIsStrict)
{
    const std::string text = sim::formatResult(awkwardResult());
    EXPECT_NO_THROW(sim::parseResult(text));

    EXPECT_THROW(sim::parseResult(""), std::invalid_argument);
    EXPECT_THROW(sim::parseResult("result = 999\n"), std::invalid_argument);
    // A truncated payload is missing fields, not silently zero.
    EXPECT_THROW(sim::parseResult(text.substr(0, text.size() / 2)),
                 std::invalid_argument);
    // Unknown keys are rejected (a format drift must bump the version).
    EXPECT_THROW(sim::parseResult(text + "system.bogus = 1\n"),
                 std::invalid_argument);
    // A payload without the version header is rejected even if complete.
    std::string headerless = text.substr(text.find('\n') + 1);
    EXPECT_THROW(sim::parseResult(headerless), std::invalid_argument);
}

TEST(SpecIo, NamedSiteShortcutIsUsedWhenExact)
{
    sim::ExperimentSpec spec = newarkSpec();
    std::string text = sim::formatSpec(spec);
    EXPECT_NE(std::string::npos, text.find("site = newark"));
    EXPECT_EQ(std::string::npos, text.find("location.name"));

    spec.location.climate.annualMeanC += 1.0;  // no longer exactly Newark
    text = sim::formatSpec(spec);
    EXPECT_EQ(std::string::npos, text.find("site = "));
    EXPECT_NE(std::string::npos, text.find("location.name = Newark"));
    EXPECT_EQ(spec, sim::parseSpec(text));
}

// ---------------------------------------------------------------------------
// Model-sim assembly.
// ---------------------------------------------------------------------------

TEST(ModelSimScenario, BuildsRunnableStack)
{
    sim::ExperimentSpec spec = newarkSpec();
    spec.style = cooling::ActuatorStyle::Abrupt;
    spec.runKind = sim::RunKind::SingleDay;
    spec.day = 182;

    sim::ModelSimScenario ms = sim::buildModelSimScenario(spec);
    ASSERT_TRUE(ms.runner != nullptr);

    std::unique_ptr<plant::Plant> init = sim::makePlant(spec);
    init->initializeSteadyState(
        ms.climate->sample(util::SimTime::fromCalendar(spec.day, 0)), 6.0);
    ms.runner->runDay(spec.day, init->readSensors());
    sim::Summary s = ms.metrics->summary();
    EXPECT_EQ(1, s.days);
    EXPECT_GT(s.itKwh, 0.0);
}
