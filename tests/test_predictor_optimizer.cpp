/**
 * @file
 * Tests for the Cooling Predictor's rollout and the Cooling Optimizer's
 * regime selection, using hand-built models with known dynamics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/optimizer.hpp"
#include "core/predictor.hpp"
#include "model/cooling_model.hpp"
#include "sim/experiment.hpp"
#include "util/rng.hpp"

using namespace coolair;
using namespace coolair::core;
using namespace coolair::model;
using cooling::Regime;
using cooling::RegimeClass;
using cooling::RegimeMenu;

namespace {

/**
 * An AR(1) model toward a fixed point: T' = (1-a)*target + a*T.
 * Expressed in the temperature feature layout (bias, Tin at index 1).
 */
LinearModel
towardModel(double target, double alpha)
{
    std::vector<double> w(TempFeatures::kCount, 0.0);
    w[0] = (1.0 - alpha) * target;
    w[1] = alpha;
    return LinearModel(std::move(w));
}

LinearModel
holdHumidity()
{
    std::vector<double> w(HumidityFeatures::kCount, 0.0);
    w[1] = 1.0;  // H' = H
    return LinearModel(std::move(w));
}

/**
 * Build a 2-pod model bank where "closed" drifts toward 35 C, free
 * cooling toward 18 C, and the AC toward 22 C.
 */
CoolingModel
syntheticModel()
{
    CoolingModelConfig cfg;
    cfg.numPods = 2;
    CoolingModel m(cfg);
    for (int pod = 0; pod < 2; ++pod) {
        for (RegimeClass c :
             {RegimeClass::Closed, RegimeClass::FcLow, RegimeClass::FcMid,
              RegimeClass::FcHigh, RegimeClass::AcFanOnly,
              RegimeClass::AcCompressor}) {
            double target = 35.0;
            if (c == RegimeClass::FcLow || c == RegimeClass::FcMid ||
                c == RegimeClass::FcHigh) {
                target = 18.0;
            } else if (c == RegimeClass::AcCompressor) {
                target = 22.0;
            } else if (c == RegimeClass::AcFanOnly) {
                target = 33.0;
            }
            m.setTempModel({c, c}, pod, towardModel(target, 0.6));
        }
    }
    for (RegimeClass c :
         {RegimeClass::Closed, RegimeClass::FcLow, RegimeClass::FcMid,
          RegimeClass::FcHigh, RegimeClass::AcFanOnly,
          RegimeClass::AcCompressor}) {
        m.setHumidityModel({c, c}, holdHumidity());
    }
    return m;
}

PredictorState
stateAt(double temp)
{
    PredictorState st;
    st.podTempC = {temp, temp};
    st.podTempPrevC = {temp, temp};
    st.coldAbsHumidity = 8.0;
    st.outsideC = 15.0;
    st.outsidePrevC = 15.0;
    st.outsideAbsHumidity = 6.0;
    st.currentRegime = Regime::closed();
    return st;
}

} // anonymous namespace

TEST(Predictor, RolloutConvergesTowardModelFixedPoint)
{
    CoolingModel m = syntheticModel();
    CoolingPredictor pred(&m, 5);
    Trajectory traj = pred.predict(stateAt(30.0), Regime::freeCooling(0.5));
    ASSERT_EQ(traj.steps.size(), 5u);
    // Monotone descent toward 18.
    double prev = 30.0;
    for (const auto &s : traj.steps) {
        EXPECT_LT(s.podTempC[0], prev);
        prev = s.podTempC[0];
    }
    // After 5 steps of alpha=0.6: 18 + 0.6^5 * 12 ~= 18.93.
    EXPECT_NEAR(traj.steps.back().podTempC[0], 18.93, 0.05);
}

TEST(Predictor, EnergyAccumulatesOverHorizon)
{
    CoolingModel m = syntheticModel();
    CoolingPredictor pred(&m, 5);
    Trajectory traj =
        pred.predict(stateAt(30.0), Regime::acCompressor(1.0));
    // 2.2 kW for 5 x 2 min = 1/6 h -> ~0.367 kWh.
    EXPECT_NEAR(traj.coolingEnergyKwh, 2.2 / 6.0, 0.01);

    Trajectory closed = pred.predict(stateAt(30.0), Regime::closed());
    EXPECT_DOUBLE_EQ(closed.coolingEnergyKwh, 0.0);
}

TEST(Predictor, HorizonLengthHonored)
{
    CoolingModel m = syntheticModel();
    CoolingPredictor pred(&m, 8);
    EXPECT_EQ(pred.predict(stateAt(25.0), Regime::closed()).steps.size(),
              8u);
}

TEST(Optimizer, PicksCoolingWhenHot)
{
    CoolingModel m = syntheticModel();
    CoolingPredictor pred(&m, 5);
    UtilityConfig ucfg;
    ucfg.penalizeRate = false;
    CoolingOptimizer opt(RegimeMenu::smooth(), ucfg);

    TemperatureBand band = TemperatureBand::fixed(25.0, 30.0);
    OptimizerDecision d =
        opt.choose(pred, stateAt(33.0), {0, 1}, band);
    // Hot inside: the optimizer must not stay closed (drifts to 35).
    EXPECT_NE(d.regime.mode, cooling::Mode::Closed);
}

TEST(Optimizer, StaysClosedWhenComfortable)
{
    CoolingModel m = syntheticModel();
    // Make closed drift gently around 27 (inside the band).
    for (int pod = 0; pod < 2; ++pod)
        m.setTempModel({RegimeClass::Closed, RegimeClass::Closed}, pod,
                       towardModel(27.0, 0.8));
    CoolingPredictor pred(&m, 5);
    UtilityConfig ucfg;
    CoolingOptimizer opt(RegimeMenu::smooth(), ucfg);

    TemperatureBand band = TemperatureBand::fixed(25.0, 30.0);
    PredictorState st = stateAt(27.0);
    OptimizerDecision d = opt.choose(pred, st, {0, 1}, band);
    // Everything in band; closed is free, so energy awareness picks it.
    EXPECT_EQ(d.regime.mode, cooling::Mode::Closed);
    EXPECT_DOUBLE_EQ(d.penalty, 0.0);
}

TEST(Optimizer, EnergyAwareAvoidsAcWhenFreeCoolingSuffices)
{
    CoolingModel m = syntheticModel();
    CoolingPredictor pred(&m, 5);
    UtilityConfig ucfg;
    ucfg.penalizeRate = false;
    CoolingOptimizer opt(RegimeMenu::smooth(), ucfg);

    TemperatureBand band = TemperatureBand::fixed(16.0, 21.0);
    OptimizerDecision d = opt.choose(pred, stateAt(26.0), {0, 1}, band);
    EXPECT_EQ(d.regime.mode, cooling::Mode::FreeCooling);
}

TEST(Optimizer, IncumbentWinsTies)
{
    // All closed-ish states equal: with zero penalties everywhere and
    // equal (zero) energy, the incumbent regime must be kept.
    CoolingModel m = syntheticModel();
    for (int pod = 0; pod < 2; ++pod) {
        for (RegimeClass c :
             {RegimeClass::Closed, RegimeClass::FcLow, RegimeClass::FcMid,
              RegimeClass::FcHigh, RegimeClass::AcFanOnly,
              RegimeClass::AcCompressor}) {
            m.setTempModel({c, c}, pod, towardModel(27.0, 0.9));
        }
    }
    CoolingPredictor pred(&m, 3);
    UtilityConfig ucfg;
    ucfg.energyAware = false;
    CoolingOptimizer opt(RegimeMenu::parasol(), ucfg);

    TemperatureBand band = TemperatureBand::fixed(20.0, 32.0);
    PredictorState st = stateAt(27.0);
    st.currentRegime = Regime::freeCooling(0.25);
    OptimizerDecision d = opt.choose(pred, st, {0, 1}, band);
    EXPECT_TRUE(d.regime == st.currentRegime);
}

TEST(Optimizer, DecisionReportsDiagnostics)
{
    CoolingModel m = syntheticModel();
    CoolingPredictor pred(&m, 5);
    UtilityConfig ucfg;
    CoolingOptimizer opt(RegimeMenu::smooth(), ucfg);
    TemperatureBand band = TemperatureBand::fixed(25.0, 30.0);
    OptimizerDecision d = opt.choose(pred, stateAt(40.0), {0, 1}, band);
    EXPECT_GT(d.penalty, 0.0);       // nothing avoids all violations
    EXPECT_GE(d.energyKwh, 0.0);
    EXPECT_GE(d.score, d.penalty - 1e-9);
}

// ---------------------------------------------------------------------------
// The batched scorer (CoolingPredictor::scoreCandidates) against the scalar
// rollouts: the same score, penalty and energy for every candidate, to 1e-10
// relative (floor 1), over deterministic random states.  The batched path
// reassociates the model arithmetic, so its scores may move in the last ulps
// but never by more.

namespace {

/**
 * A model with random stable weights on most transition keys.  Some keys
 * and some (key, pod) entries stay unfitted, so the fallback chain and the
 * persistence rows are exercised; AcFanOnly's steady model is never fitted,
 * so every key into it falls through to persistence for unfitted pods.
 */
CoolingModel
randomModel(int pods, uint64_t seed)
{
    CoolingModelConfig cfg;
    cfg.numPods = pods;
    CoolingModel m(cfg);
    util::Rng rng(seed);
    for (int from = 0; from < cooling::kNumRegimeClasses; ++from) {
        for (int to = 0; to < cooling::kNumRegimeClasses; ++to) {
            const cooling::TransitionKey key{RegimeClass(from),
                                             RegimeClass(to)};
            const bool steady = from == to;
            if (steady && RegimeClass(to) == RegimeClass::AcFanOnly)
                continue;
            if (!steady && !rng.bernoulli(0.7))
                continue;
            for (int pod = 0; pod < pods; ++pod) {
                if (!rng.bernoulli(0.9))
                    continue;
                m.setTempModel(
                    key, pod,
                    LinearModel({rng.uniform(-2.0, 4.0),
                                 rng.uniform(0.3, 0.8),
                                 rng.uniform(0.0, 0.15),
                                 rng.uniform(0.0, 0.1),
                                 rng.uniform(-0.05, 0.05),
                                 rng.uniform(-3.0, 0.0),
                                 rng.uniform(-0.5, 0.5),
                                 rng.uniform(0.0, 2.0),
                                 rng.uniform(-0.3, 0.0),
                                 rng.uniform(0.0, 0.3),
                                 rng.uniform(0.0, 2.0)}));
            }
            if (rng.bernoulli(0.8)) {
                m.setHumidityModel(
                    key, LinearModel({rng.uniform(0.0, 1.0),
                                      rng.uniform(0.5, 0.95),
                                      rng.uniform(0.0, 0.2),
                                      rng.uniform(-1.0, 1.0),
                                      rng.uniform(-0.1, 0.1),
                                      rng.uniform(0.0, 0.1)}));
            }
        }
    }
    return m;
}

PredictorState
randomState(util::Rng &rng, int pods, const RegimeMenu &menu)
{
    PredictorState st;
    for (int p = 0; p < pods; ++p) {
        const double t = rng.uniform(12.0, 42.0);
        st.podTempC.push_back(t);
        st.podTempPrevC.push_back(t + rng.uniform(-2.0, 2.0));
    }
    st.coldAbsHumidity = rng.uniform(2.0, 18.0);
    st.outsideC = rng.uniform(-15.0, 42.0);
    st.outsidePrevC = st.outsideC + rng.uniform(-1.5, 1.5);
    st.outsideAbsHumidity = rng.uniform(1.0, 22.0);
    st.fanSpeedPrev = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 1.0);
    st.dcUtilization = rng.uniform(0.05, 1.0);
    if (rng.bernoulli(0.75)) {
        for (int p = 0; p < pods; ++p)
            st.podPowerFraction.push_back(rng.uniform(0.0, 1.0));
    }
    st.currentRegime = menu.candidates[size_t(
        rng.uniformInt(0, int64_t(menu.candidates.size()) - 1))];
    return st;
}

double
relativeGap(double a, double b)
{
    return std::fabs(a - b) / std::max({1.0, std::fabs(a), std::fabs(b)});
}

/** Worst batched-vs-scalar deviation seen, and where it happened. */
struct PinReport
{
    double worst = 0.0;
    std::string where;
    int clearWinners = 0;      ///< states whose runner-up trails > 1e-6
    int selectionMismatches = 0;
    std::string firstMismatch;
};

/**
 * Score @p states random states on @p model with @p pods pods per state,
 * cycling the menus, horizons and the energy / centering / humidity
 * switches, and compare every candidate's batched score, penalty and
 * energy with predictScoredInto (abandonment off, same switch term).
 * Also checks that chooseBatched() picks choose()'s regime whenever the
 * scalar runner-up trails the winner by more than 1e-6.
 */
PinReport
pinBatchedToScalar(const CoolingModel &model, int pods, int states,
                   uint64_t seed)
{
    const RegimeMenu menus[] = {RegimeMenu::parasol(), RegimeMenu::smooth(),
                                RegimeMenu::smoothWithEvaporative()};
    const int horizons[] = {8, 5, 1};
    util::Rng rng(seed);
    PinReport report;
    Trajectory traj;
    std::vector<CandidateScore> batched;
    std::vector<double> switch_terms;
    std::vector<double> scalar_scores;

    for (int i = 0; i < states; ++i) {
        const RegimeMenu &menu = menus[i % 3];
        const int horizon = horizons[(i / 3) % 3];
        CoolingPredictor pred(&model, horizon);

        UtilityConfig cfg;
        cfg.energyAware = (i & 8) != 0;
        cfg.centeringWeightPerC = (i & 16) ? rng.uniform(0.01, 0.5) : 0.0;
        cfg.penalizeHumidity = (i & 32) != 0;
        cfg.penalizeMaxTemp = rng.bernoulli(0.9);
        cfg.penalizeBand = rng.bernoulli(0.9);
        cfg.penalizeRate = rng.bernoulli(0.9);
        cfg.penalizeAcFull = rng.bernoulli(0.8);
        cfg.maxTempC = rng.uniform(24.0, 34.0);
        cfg.maxRateCPerHour = rng.uniform(5.0, 30.0);
        cfg.energyWeightPerKwh = rng.uniform(0.5, 10.0);
        cfg.switchPenalty = rng.uniform(0.0, 2.0);
        const double lo = rng.uniform(15.0, 27.0);
        const TemperatureBand band =
            TemperatureBand::fixed(lo, lo + rng.uniform(1.0, 8.0));

        const PredictorState st = randomState(rng, pods, menu);
        std::vector<int> active;
        for (int p = 0; p < pods; ++p)
            if (rng.bernoulli(0.7))
                active.push_back(p);

        EpochOutlook outlook;
        outlook.materialize(st, horizon, model.config().evapEffectiveness);
        const RegimeClass cur = cooling::classify(st.currentRegime);
        switch_terms.clear();
        for (const Regime &cand : menu.candidates)
            switch_terms.push_back(
                cooling::classify(cand) != cur ? cfg.switchPenalty : 0.0);

        pred.scoreCandidates(st, menu, outlook, active, band, cfg,
                             switch_terms, batched);
        if (batched.size() != menu.candidates.size()) {
            report.worst = INFINITY;
            report.where = "wrong number of scores";
            return report;
        }

        ScoreContext sc;
        sc.activePods = &active;
        sc.band = &band;
        sc.utility = &cfg;
        scalar_scores.clear();
        for (size_t c = 0; c < menu.candidates.size(); ++c) {
            sc.switchTerm = switch_terms[c];
            double penalty = 0.0;
            pred.predictScoredInto(st, menu.candidates[c], outlook, sc, traj,
                                   penalty);
            double score = penalty;
            if (cfg.energyAware)
                score += cfg.energyWeightPerKwh * traj.coolingEnergyKwh;
            score += sc.switchTerm;
            scalar_scores.push_back(score);

            const double gaps[] = {
                relativeGap(batched[c].score, score),
                relativeGap(batched[c].penalty, penalty),
                relativeGap(batched[c].energyKwh, traj.coolingEnergyKwh)};
            const char *names[] = {"score", "penalty", "energy"};
            const double scalar[] = {score, penalty, traj.coolingEnergyKwh};
            const double batch[] = {batched[c].score, batched[c].penalty,
                                    batched[c].energyKwh};
            for (int k = 0; k < 3; ++k) {
                if (!(gaps[k] <= report.worst)) {
                    report.worst = gaps[k];
                    std::ostringstream os;
                    os.precision(17);
                    os << names[k] << " of " << menu.candidates[c].str()
                       << " at state " << i << " (horizon " << horizon
                       << ", " << active.size() << " active pods): batched "
                       << batch[k] << " vs scalar " << scalar[k];
                    report.where = os.str();
                }
            }
        }

        std::vector<double> sorted = scalar_scores;
        std::sort(sorted.begin(), sorted.end());
        if (sorted.size() < 2 || sorted[1] - sorted[0] <= 1e-6)
            continue;
        ++report.clearWinners;
        CoolingOptimizer opt(menu, cfg);
        const Regime scalar_pick =
            opt.choose(pred, st, outlook, active, band, traj).regime;
        const Regime batched_pick =
            opt.chooseBatched(pred, st, outlook, active, band).regime;
        if (!(scalar_pick == batched_pick)) {
            if (report.selectionMismatches++ == 0)
                report.firstMismatch = "state " + std::to_string(i) +
                                       ": choose " + scalar_pick.str() +
                                       " vs chooseBatched " +
                                       batched_pick.str();
        }
    }
    return report;
}

void
expectPinned(const PinReport &r, int states)
{
    EXPECT_LE(r.worst, 1e-10) << "worst deviation: " << r.where;
    EXPECT_EQ(r.selectionMismatches, 0) << r.firstMismatch;
    // The selection check must not be vacuous.
    EXPECT_GT(r.clearWinners, states / 2);
}

} // anonymous namespace

TEST(BatchedScorer, MatchesScalarRolloutsOnSharedBundle)
{
    constexpr int kStates = 6000;
    const PinReport r =
        pinBatchedToScalar(sim::sharedBundle().model, 8, kStates, 17);
    expectPinned(r, kStates);
}

TEST(BatchedScorer, MatchesScalarRolloutsOnTestModel)
{
    constexpr int kStates = 6000;
    const CoolingModel m = randomModel(2, 29);
    const PinReport r = pinBatchedToScalar(m, 2, kStates, 31);
    expectPinned(r, kStates);
}

TEST(BatchedScorer, ReadsBanksAtTheModelsPodStride)
{
    // A state with fewer pods than the model: the resolved weight banks
    // keep the model's pod count as their row stride.
    constexpr int kStates = 700;
    const CoolingModel &model = sim::sharedBundle().model;
    for (int pods = 1; pods < model.config().numPods; ++pods) {
        SCOPED_TRACE(std::to_string(pods) + " of " +
                     std::to_string(model.config().numPods) + " pods");
        const PinReport r =
            pinBatchedToScalar(model, pods, kStates, 41 + uint64_t(pods));
        expectPinned(r, kStates);
    }
}
