/**
 * @file
 * The DESIGN.md §10 tolerance contract over the whole world grid: all
 * 1520 world-sweep sites, Baseline and All-ND, in the world sweep's shape
 * (utilization-profile workload, 120 s physics step) at two sampled
 * weeks, each run on the scalar path and at batch=8 through
 * ExperimentRunner.  Every Summary metric of every scalar/batched pair
 * must agree within 2 % relative or 0.02 absolute.  The test also prints
 * the worst deviation and how many pairs differ by more than 1e-6
 * relative, so a drift inside the contract still shows.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "environment/world_grid.hpp"
#include "sim/runner.hpp"

using namespace coolair;
using namespace coolair::sim;

namespace {

constexpr size_t kSites = 1520;
constexpr double kRelTol = 0.02;
constexpr double kAbsTol = 0.02;
constexpr double kDriftRel = 1e-6;

/** The world sweep's specs (bench_world_sweep) at 2 weeks, run at
    @p batch lanes (0: the scalar path). */
std::vector<ExperimentSpec>
worldSpecs(int batch)
{
    const std::vector<environment::Location> sites =
        environment::worldGrid(kSites);
    std::vector<ExperimentSpec> specs;
    specs.reserve(2 * sites.size());
    for (size_t i = 0; i < sites.size(); ++i) {
        ExperimentSpec spec;
        spec.location = sites[i];
        spec.workload = WorkloadKind::FacebookProfile;
        spec.weeks = 2;
        spec.physicsStepS = 120.0;
        spec.seed = ExperimentRunner::deriveSeed(7, i, sites[i].name);
        spec.batch = batch;
        spec.system = SystemId::Baseline;
        specs.push_back(spec);
        spec.system = SystemId::AllNd;
        specs.push_back(spec);
    }
    return specs;
}

struct Metric
{
    const char *name;
    double Summary::*field;
};

const Metric kMetrics[] = {
    {"avgViolationC", &Summary::avgViolationC},
    {"avgWorstDailyRangeC", &Summary::avgWorstDailyRangeC},
    {"minWorstDailyRangeC", &Summary::minWorstDailyRangeC},
    {"maxWorstDailyRangeC", &Summary::maxWorstDailyRangeC},
    {"pue", &Summary::pue},
    {"itKwh", &Summary::itKwh},
    {"coolingKwh", &Summary::coolingKwh},
    {"humidityViolationFrac", &Summary::humidityViolationFrac},
    {"rateViolationFrac", &Summary::rateViolationFrac},
    {"avgMaxInletC", &Summary::avgMaxInletC},
};

/** The largest deviation seen, as a fraction of its tolerance. */
struct Worst
{
    double ofTolerance = 0.0;
    std::string where;
};

/**
 * Compares one pair's @p batched and @p scalar summaries metric by
 * metric: counts metrics outside the tolerance into @p failures, tracks
 * the worst one, and returns true when any differs by more than
 * kDriftRel relative.
 */
bool
comparePair(const Summary &batched, const Summary &scalar,
            const std::string &what, int &failures, Worst &worst)
{
    bool drifted = batched.days != scalar.days;
    if (batched.days != scalar.days) {
        ++failures;
        ADD_FAILURE() << what << ": days " << batched.days << " vs "
                      << scalar.days;
    }
    for (const Metric &m : kMetrics) {
        const double b = batched.*m.field;
        const double s = scalar.*m.field;
        const double gap = std::fabs(b - s);
        const double tol = std::max(kAbsTol, kRelTol * std::fabs(s));
        if (!(gap <= tol)) {
            if (failures++ < 10)
                ADD_FAILURE() << what << ": " << m.name << " batched " << b
                              << " vs scalar " << s;
        }
        if (!(gap / tol <= worst.ofTolerance)) {
            worst.ofTolerance = gap / tol;
            worst.where = what + " " + m.name + ": batched " +
                          std::to_string(b) + " vs scalar " +
                          std::to_string(s);
        }
        const double scale = std::max(std::fabs(b), std::fabs(s));
        drifted = drifted || gap > kDriftRel * scale;
    }
    return drifted;
}

} // anonymous namespace

TEST(WorldGridParity, BatchedMatchesScalarOnEverySite)
{
    const std::vector<ExperimentSpec> scalar_specs = worldSpecs(0);
    const std::vector<ExperimentSpec> batched_specs = worldSpecs(8);
    ExperimentRunner runner;
    const SweepOutcome scalar = runner.run(scalar_specs);
    const SweepOutcome batched = runner.run(batched_specs);
    for (const ExperimentFailure &f : scalar.failures)
        ADD_FAILURE() << "scalar " << f.spec.location.name << " / "
                      << systemName(f.spec.system) << ": " << f.message;
    for (const ExperimentFailure &f : batched.failures)
        ADD_FAILURE() << "batched " << f.spec.location.name << " / "
                      << systemName(f.spec.system) << ": " << f.message;
    ASSERT_TRUE(scalar.allOk() && batched.allOk());

    int failures = 0;
    size_t drifted = 0;
    Worst worst;
    for (size_t i = 0; i < scalar_specs.size(); ++i) {
        const std::string what = scalar_specs[i].location.name + " / " +
                                 systemName(scalar_specs[i].system);
        bool d = comparePair(batched.results[i].system,
                             scalar.results[i].system, what + " system",
                             failures, worst);
        d = comparePair(batched.results[i].outside,
                        scalar.results[i].outside, what + " outside",
                        failures, worst) ||
            d;
        drifted += d;
    }
    std::printf("world grid: %zu pairs, %d metrics outside tolerance, "
                "%zu pairs differ by more than %g relative; worst "
                "deviation %.3g of its tolerance (%s)\n",
                scalar_specs.size(), failures, drifted, kDriftRel,
                worst.ofTolerance,
                worst.where.empty() ? "none" : worst.where.c_str());
    EXPECT_EQ(failures, 0);
}
