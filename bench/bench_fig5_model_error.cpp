/**
 * @file
 * Figure 5 reproduction: CDFs of the Cooling Model's temperature
 * prediction error on held-out days.
 *
 * Paper protocol (§4.2): compare predicted to measured temperatures on
 * two entire days *not in the learning dataset*, for four cases —
 * 2-minute and 10-minute-ahead predictions, each with and without
 * cooling-regime transitions in the prediction window.
 *
 * Paper result (shape target): without transitions, 95 % of 2-minute and
 * 90 % of 10-minute predictions are within 1 °C; with transitions
 * included, over 90 % (2-min) and over 80 % (10-min) are within 1 °C.
 * Humidity: 97 % of predictions within 5 % RH (absolute).
 */

#include <cmath>
#include <cstdio>
#include <iostream>

#include "core/predictor.hpp"
#include "model/learner.hpp"
#include "physics/psychrometrics.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace coolair;

namespace {

struct ErrorCdfs
{
    util::EmpiricalCdf twoMin;
    util::EmpiricalCdf twoMinNoTransition;
    util::EmpiricalCdf tenMin;
    util::EmpiricalCdf tenMinNoTransition;
    util::EmpiricalCdf humidity;   // |RH error| in percentage points
};

/**
 * Run a held-out exploration day on the plant; at every model step,
 * predict 1 step (2 min) and 5 steps (10 min) ahead with the learned
 * model, then compare against what the plant actually did.
 */
ErrorCdfs
evaluateHeldOut(const sim::ExperimentSpec &spec)
{
    ErrorCdfs out;

    const model::LearnedBundle &bundle = sim::bundleFor(spec);
    const plant::PlantConfig pc = sim::plantConfigFor(spec);
    const uint64_t day_seed = spec.seed;

    std::unique_ptr<plant::Plant> plant_owner = sim::makePlant(spec);
    plant::Plant &plant = *plant_owner;
    model::CampaignWeather weather(-2.0, 33.0, day_seed);
    util::Rng rng(day_seed, "heldout");

    plant.initializeSteadyState(weather.at(util::SimTime(0)), 6.0);
    core::CoolingPredictor predictor(&bundle.model, 5);

    const int64_t step_s = int64_t(bundle.model.config().stepS);
    const int sub = 4;
    const double sub_dt = double(step_s) / sub;

    cooling::Regime regime = cooling::Regime::closed();
    int64_t hold_until = 0;
    plant::PodLoad load = plant::PodLoad::uniform(pc.numPods,
                                                  pc.serversPerPod, 0.5);

    plant::SensorReadings sensors = plant.readSensors();
    std::vector<double> prev_temp = sensors.podInletC;
    double prev_fan = 0.0;
    double prev_outside = weather.at(util::SimTime(0)).tempC;

    for (int64_t t = 0; t < util::kSecondsPerDay; t += step_s) {
        util::SimTime now(t);
        cooling::Regime prev_regime = regime;
        bool transition = false;
        if (t >= hold_until) {
            double r = rng.uniform();
            if (r < 0.45) {
                regime = cooling::Regime::freeCooling(
                    rng.uniform(0.15, 1.0));
            } else if (r < 0.7) {
                regime = cooling::Regime::closed();
            } else if (r < 0.85) {
                regime = cooling::Regime::acFanOnly();
            } else {
                regime = cooling::Regime::acCompressor(1.0);
            }
            hold_until = t + rng.uniformInt(900, 3600);
            transition = !(regime == prev_regime);
        }

        // Predict 5 model steps ahead from current readings.
        core::PredictorState state;
        state.fill(sensors, prev_temp, prev_fan, prev_outside, prev_regime,
                   &load);
        environment::WeatherSample outside = weather.at(now);
        state.outsideC = outside.tempC;
        state.outsideAbsHumidity = outside.absHumidity;
        core::Trajectory traj = predictor.predict(state, regime);

        // Advance the plant 5 model steps under the same regime,
        // comparing at +1 step (2 min) and +5 steps (10 min).
        plant::Plant scratch = plant;  // value copy: same trajectory
        for (int k = 0; k < 5; ++k) {
            for (int s = 0; s < sub; ++s) {
                scratch.step(sub_dt, weather.at(now + (k * step_s)), load,
                             regime);
            }
            if (k == 0 || k == 4) {
                for (int p = 0; p < pc.numPods; ++p) {
                    double err = std::fabs(traj.steps[size_t(k)]
                                               .podTempC[size_t(p)] -
                                           scratch.truePodInletC(p));
                    if (k == 0) {
                        out.twoMin.add(err);
                        if (!transition)
                            out.twoMinNoTransition.add(err);
                    } else {
                        out.tenMin.add(err);
                        if (!transition)
                            out.tenMinNoTransition.add(err);
                    }
                }
            }
            if (k == 0) {
                double rh_err = std::fabs(
                    traj.steps[0].rhPercent -
                    util::clamp(scratch.trueColdAisleRh(), 0.0, 100.0));
                out.humidity.add(rh_err);
            }
        }

        // Advance the real plant one model step.
        std::vector<double> inside_now = sensors.podInletC;
        for (int s = 0; s < sub; ++s)
            plant.step(sub_dt, outside, load, regime);
        sensors = plant.readSensors();
        prev_temp = inside_now;
        prev_fan = sensors.cooling.fcFanSpeed;
        prev_outside = outside.tempC;
    }
    return out;
}

void
printCdfRow(util::TextTable &table, const char *name,
            const util::EmpiricalCdf &cdf)
{
    table.addRow({name,
                  util::TextTable::fmt(100.0 * cdf.fractionAtOrBelow(0.5), 1),
                  util::TextTable::fmt(100.0 * cdf.fractionAtOrBelow(1.0), 1),
                  util::TextTable::fmt(100.0 * cdf.fractionAtOrBelow(2.0), 1),
                  util::TextTable::fmt(cdf.quantile(0.5), 2),
                  util::TextTable::fmt(cdf.quantile(0.95), 2)});
}

} // anonymous namespace

int
main()
{
    std::printf("=== Figure 5: Cooling Model prediction-error CDFs ===\n");
    std::printf("(held-out days; paper: >=90%% of no-transition 2-min "
                "errors within 1 C)\n\n");

    // Held-out days share the abrupt-plant spec; only the seed (which
    // day it is) differs.
    sim::ExperimentSpec spec;
    spec.system = sim::SystemId::AllNd;
    spec.style = cooling::ActuatorStyle::Abrupt;

    spec.seed = 501;                          // 5/1/13 stand-in
    ErrorCdfs a = evaluateHeldOut(spec);
    spec.seed = 620;                          // 6/20/13 stand-in
    ErrorCdfs b = evaluateHeldOut(spec);

    // Merge the two held-out days.
    ErrorCdfs all;
    for (const ErrorCdfs *day : {&a, &b}) {
        for (double e : day->twoMin.sorted()) all.twoMin.add(e);
        for (double e : day->twoMinNoTransition.sorted())
            all.twoMinNoTransition.add(e);
        for (double e : day->tenMin.sorted()) all.tenMin.add(e);
        for (double e : day->tenMinNoTransition.sorted())
            all.tenMinNoTransition.add(e);
        for (double e : day->humidity.sorted()) all.humidity.add(e);
    }

    util::TextTable table({"case", "<=0.5C [%]", "<=1C [%]", "<=2C [%]",
                           "p50 [C]", "p95 [C]"});
    printCdfRow(table, "2-minutes no-transition", all.twoMinNoTransition);
    printCdfRow(table, "10-minutes no-transition", all.tenMinNoTransition);
    printCdfRow(table, "2-minutes", all.twoMin);
    printCdfRow(table, "10-minutes", all.tenMin);
    table.print(std::cout);

    std::printf("\nHumidity: %.1f%% of predictions within 5%% RH "
                "(paper: 97%%)\n",
                100.0 * all.humidity.fractionAtOrBelow(5.0));

    std::printf("\nShape check vs paper:\n");
    std::printf("  2-min no-transition within 1C: %.1f%% (paper ~95%%)\n",
                100.0 * all.twoMinNoTransition.fractionAtOrBelow(1.0));
    std::printf("  10-min no-transition within 1C: %.1f%% (paper ~90%%)\n",
                100.0 * all.tenMinNoTransition.fractionAtOrBelow(1.0));
    std::printf("  2-min all within 1C: %.1f%% (paper >90%%)\n",
                100.0 * all.twoMin.fractionAtOrBelow(1.0));
    std::printf("  10-min all within 1C: %.1f%% (paper >80%%)\n",
                100.0 * all.tenMin.fractionAtOrBelow(1.0));
    return 0;
}
