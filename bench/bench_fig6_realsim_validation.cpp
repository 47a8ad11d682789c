/**
 * @file
 * Figure 6 reproduction: a baseline day on the physical plant ("real")
 * versus the same day on Real-Sim (the learned-model simulator).
 *
 * Paper (§5.1, Figure 6, 7/2/2013): for the baseline system, maximum
 * temperatures, temperature variations, and cooling energy are all
 * within 8 % of the real execution, and 89 % of real measurements fall
 * within 2 C of the simulation.
 *
 * Both stacks come from one ExperimentSpec: the physics run through
 * ScenarioBuilder, the Real-Sim run through buildModelSimScenario.
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "environment/location.hpp"
#include "sim/scenario.hpp"
#include "util/table.hpp"

using namespace coolair;

namespace {

struct DayResult
{
    sim::Summary summary;
    std::vector<double> maxInletByInterval;   // 10-min samples
};

sim::ExperimentSpec
validationSpec(int day)
{
    sim::ExperimentSpec spec;
    spec.location =
        environment::namedLocation(environment::NamedSite::Newark);
    spec.system = sim::SystemId::Baseline;
    spec.style = cooling::ActuatorStyle::Abrupt;
    spec.runKind = sim::RunKind::SingleDay;
    spec.day = day;
    return spec;
}

DayResult
runRealDay(const sim::ExperimentSpec &spec)
{
    DayResult out;
    int n = 0;
    auto scenario =
        sim::ScenarioBuilder(spec)
            .withTraceSink([&](const sim::TraceRow &r) {
                if (n++ % 10 == 0)
                    out.maxInletByInterval.push_back(r.inletMaxC);
            })
            .build();
    out.summary = scenario->run().system;
    return out;
}

DayResult
runRealSimDay(const sim::ExperimentSpec &spec)
{
    DayResult out;
    sim::ModelSimScenario ms = sim::buildModelSimScenario(spec);
    int step_idx = 0;
    ms.runner->setTraceSink([&](const sim::TraceRow &r) {
        if (step_idx++ % 5 == 0)  // every 10 minutes at the 2-min step
            out.maxInletByInterval.push_back(r.inletMaxC);
    });

    // Start Real-Sim from the physics plant's state at the same instant,
    // so both simulations begin identically.
    std::unique_ptr<plant::Plant> init = sim::makePlant(spec);
    init->initializeSteadyState(
        ms.climate->sample(util::SimTime::fromCalendar(spec.day, 0)), 6.0);
    ms.runner->runDay(spec.day, init->readSensors());
    out.summary = ms.metrics->summary();
    return out;
}

double
pctDiff(double sim, double real)
{
    return 100.0 * std::fabs(sim - real) / std::max(std::fabs(real), 1e-9);
}

} // anonymous namespace

int
main()
{
    std::printf("=== Figure 6: real vs Real-Sim baseline day ===\n");
    std::printf("(Newark, early July; extended-TKS baseline; Facebook "
                "workload)\n\n");

    const int kDay = 182;  // the paper's validation day was July 2nd
    sim::ExperimentSpec spec = validationSpec(kDay);

    DayResult real = runRealDay(spec);
    DayResult sim = runRealSimDay(spec);

    util::TextTable table(
        {"metric", "real", "Real-Sim", "diff [%]"});
    table.addRow({"avg max inlet [C]",
                  util::TextTable::fmt(real.summary.avgMaxInletC, 2),
                  util::TextTable::fmt(sim.summary.avgMaxInletC, 2),
                  util::TextTable::fmt(pctDiff(sim.summary.avgMaxInletC,
                                               real.summary.avgMaxInletC),
                                       1)});
    table.addRow({"worst daily range [C]",
                  util::TextTable::fmt(real.summary.maxWorstDailyRangeC, 2),
                  util::TextTable::fmt(sim.summary.maxWorstDailyRangeC, 2),
                  util::TextTable::fmt(
                      pctDiff(sim.summary.maxWorstDailyRangeC,
                              real.summary.maxWorstDailyRangeC),
                      1)});
    table.addRow({"cooling energy [kWh]",
                  util::TextTable::fmt(real.summary.coolingKwh, 2),
                  util::TextTable::fmt(sim.summary.coolingKwh, 2),
                  util::TextTable::fmt(pctDiff(sim.summary.coolingKwh,
                                               real.summary.coolingKwh),
                                       1)});
    table.addRow({"PUE", util::TextTable::fmt(real.summary.pue, 3),
                  util::TextTable::fmt(sim.summary.pue, 3),
                  util::TextTable::fmt(
                      pctDiff(sim.summary.pue, real.summary.pue), 1)});
    table.print(std::cout);

    // Point-wise agreement: fraction of 10-min samples within 2 C.
    size_t n = std::min(real.maxInletByInterval.size(),
                        sim.maxInletByInterval.size());
    size_t within = 0;
    for (size_t i = 0; i < n; ++i) {
        if (std::fabs(real.maxInletByInterval[i] -
                      sim.maxInletByInterval[i]) <= 2.0)
            ++within;
    }
    std::printf("\nPoint-wise: %.1f%% of samples within 2 C "
                "(paper: 89%% for the baseline)\n",
                100.0 * double(within) / double(std::max<size_t>(n, 1)));
    std::printf("Paper target: headline metrics within ~8%% for the "
                "baseline day.\n");
    return 0;
}
