/**
 * @file
 * Tests for the Cooling Predictor's rollout and the Cooling Optimizer's
 * regime selection, using hand-built models with known dynamics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
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
// The lane scorer (CoolingPredictor::scoreLane) against the scalar rollouts:
// the same score, penalty and energy for every candidate, to 1e-10 relative
// (floor 1), over deterministic random states.  The lane path reassociates
// the model arithmetic, so its scores may move in the last ulps but never by
// more.  Both choose() instances are also pinned to the selection rule over
// every candidate's full score.

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
    int ruleFailures = 0;      ///< decisions or drops the rule disowns
    std::string firstRuleFailure;
    int screened = 0;          ///< lane candidates the floor drops
    int abandoned = 0;         ///< lane candidates the bound drops
    int strictScreened = 0;    ///< strict candidates the floor drops
    int strictAbandoned = 0;   ///< strict candidates the bound drops
    int penaltyMismatches = 0; ///< strict penalties off the reference
    std::string firstPenaltyMismatch;
};

/**
 * choose()'s selection rule over fully-scored candidates, written out
 * independently: menu order, the first candidate wins outright, then
 * strictly better by 1e-9, then the tie window preferring the incumbent
 * and the cheaper rollout.  Returns the winner's index; @p thresholds[c]
 * receives the incumbent's score + 1e-9 when candidate c comes up (+inf
 * for the first).
 */
size_t
selectByRule(const RegimeMenu &menu, const Regime &current,
             const std::vector<CandidateScore> &full,
             std::vector<double> &thresholds)
{
    size_t best = 0;
    thresholds.assign(full.size(), INFINITY);
    for (size_t c = 1; c < full.size(); ++c) {
        const CandidateScore &b = full[best];
        thresholds[c] = b.score + 1e-9;
        const bool cand_inc = menu.candidates[c] == current;
        const bool best_inc = menu.candidates[best] == current;
        if (full[c].score < b.score - 1e-9 ||
            (full[c].score < b.score + 1e-9 &&
             ((cand_inc && !best_inc) ||
              (cand_inc == best_inc &&
               full[c].energyKwh < b.energyKwh - 1e-12))))
            best = c;
    }
    return best;
}

/**
 * The §3.2 trajectory penalty written out as the tests' reference: per
 * step, each active pod's max-temp, band and rate terms (one unit per
 * 0.5 °C, per °C/h beyond the limit pro-rated by the step), then the
 * humidity term per 5 % and the AC-full unit; after the last step the
 * centering pull.  The strict rollout must produce exactly these bits.
 */
double
referencePenalty(const std::vector<PredictedStep> &steps,
                 const std::vector<double> &initialTempC,
                 const std::vector<int> &activePods,
                 const TemperatureBand &band, const Regime &regime,
                 const UtilityConfig &config, double stepHours)
{
    double penalty = 0.0;
    const std::vector<double> *prev = &initialTempC;
    for (const PredictedStep &step : steps) {
        for (int pod : activePods) {
            const double t = step.podTempC[size_t(pod)];
            if (config.penalizeMaxTemp && t > config.maxTempC)
                penalty += (t - config.maxTempC) / 0.5;
            if (config.penalizeBand)
                penalty += band.violation(t) / 0.5;
            if (config.penalizeRate && pod < int(prev->size())) {
                const double rate = std::fabs(t - (*prev)[size_t(pod)]) /
                                    std::max(stepHours, 1e-9);
                if (rate > config.maxRateCPerHour)
                    penalty += (rate - config.maxRateCPerHour) * stepHours;
            }
        }
        if (config.penalizeHumidity) {
            if (step.rhPercent > config.humidityMaxPercent)
                penalty += (step.rhPercent - config.humidityMaxPercent) / 5.0;
            else if (step.rhPercent < config.humidityMinPercent)
                penalty += (config.humidityMinPercent - step.rhPercent) / 5.0;
        }
        if (config.penalizeAcFull &&
            regime.mode == cooling::Mode::AirConditioning &&
            regime.compressorOn && regime.compressorSpeed >= 1.0 - 1e-9)
            penalty += 1.0;
        prev = &step.podTempC;
    }
    if (config.penalizeBand && config.centeringWeightPerC > 0.0 &&
        !steps.empty()) {
        for (int pod : activePods)
            penalty += config.centeringWeightPerC *
                       std::fabs(steps.back().podTempC[size_t(pod)] -
                                 band.center());
    }
    return penalty;
}

/** True when @p d is candidate @p k of @p menu with @p cs's numbers, bit
    for bit. */
bool
decidedExactly(const OptimizerDecision &d, const RegimeMenu &menu, size_t k,
               const CandidateScore &cs)
{
    return d.regime == menu.candidates[k] && d.score == cs.score &&
           d.penalty == cs.penalty && d.energyKwh == cs.energyKwh;
}

void
ruleFailure(PinReport &report, int state, const std::string &what)
{
    if (report.ruleFailures++ == 0)
        report.firstRuleFailure = "state " + std::to_string(state) + ": " +
                                  what;
}

/** True when @p a and @p b hold the same score, penalty and energy, bit
    for bit. */
bool
sameBits(const CandidateScore &a, const CandidateScore &b)
{
    return std::bit_cast<uint64_t>(a.score) ==
               std::bit_cast<uint64_t>(b.score) &&
           std::bit_cast<uint64_t>(a.penalty) ==
               std::bit_cast<uint64_t>(b.penalty) &&
           std::bit_cast<uint64_t>(a.energyKwh) ==
               std::bit_cast<uint64_t>(b.energyKwh);
}

/** The strict score's parts in its own association: the penalty, plus
    the energy term when energy-aware, plus the switch term. */
double
strictParts(const UtilityConfig &cfg, double penalty, double energyKwh,
            double switchTerm)
{
    double score = penalty;
    if (cfg.energyAware)
        score += cfg.energyWeightPerKwh * energyKwh;
    score += switchTerm;
    return score;
}

/**
 * Score @p states random states on @p model with @p pods pods per state,
 * cycling the menus, horizons and the energy / centering / humidity
 * switches, and compare every candidate's full lane score, penalty and
 * energy (threshold +inf) with the strict instance's (abandonment off,
 * same switch term), whose penalty must equal referencePenalty() over
 * its finished trajectory bit for bit and whose score must equal its
 * parts (strictParts()) bit for bit.  On every state, both choose()
 * instances must return exactly what the selection rule picks over their
 * own full scores, and in each instance every candidate the floor
 * screens or the bound abandons at the rule's threshold must have a full
 * score at least that threshold, and every one kept must score what it
 * scores at +inf, bit for bit.  Also checks that chooseBatched() picks
 * choose()'s regime whenever the scalar runner-up trails the winner by
 * more than 1e-6.
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
    std::vector<PlannedCandidate> plan;
    std::vector<CandidateScore> lane;
    std::vector<CandidateScore> scalar;
    std::vector<double> floors;
    std::vector<double> thresholds;

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
        const PenaltyWeights weights =
            penaltyWeights(cfg, band, model.config().stepS / 3600.0);

        const PredictorState st = randomState(rng, pods, menu);
        std::vector<int> active;
        for (int p = 0; p < pods; ++p)
            if (rng.bernoulli(0.7))
                active.push_back(p);

        EpochOutlook outlook;
        outlook.materialize(st, horizon, model.config().evapEffectiveness);
        const RegimeClass cur = cooling::classify(st.currentRegime);
        pred.planCandidates(menu, cfg, plan);
        if (plan.size() != menu.candidates.size()) {
            report.worst = INFINITY;
            report.where = "wrong number of planned candidates";
            return report;
        }

        // Every candidate's full lane score (threshold +inf).
        pred.beginEpoch(st, outlook, active, &cfg, &weights);
        lane.assign(plan.size(), CandidateScore{});
        floors.clear();
        for (size_t c = 0; c < plan.size(); ++c) {
            double floor = 0.0;
            if (cfg.energyAware)
                floor += cfg.energyWeightPerKwh * plan[c].laneEnergyKwh;
            floor += cooling::classify(menu.candidates[c]) != cur
                         ? cfg.switchPenalty
                         : 0.0;
            floors.push_back(floor);
            if (!pred.scoreLane(plan[c], floor, INFINITY, lane[c]))
                ruleFailure(report, i, "lane candidate abandoned at +inf");
        }

        // The strict instance's score of candidate c, abandoned once its
        // bound reaches @p at, with select()'s switch term.
        auto switchTerm = [&](size_t c) {
            return cooling::classify(menu.candidates[c]) != cur
                       ? cfg.switchPenalty
                       : 0.0;
        };
        auto strict = [&](size_t c, double at, CandidateScore &cs) {
            return pred.scoreStrict(plan[c], switchTerm(c), at, traj, cs);
        };
        scalar.assign(plan.size(), CandidateScore{});
        for (size_t c = 0; c < menu.candidates.size(); ++c) {
            if (!strict(c, INFINITY, scalar[c]))
                ruleFailure(report, i, "strict candidate abandoned at +inf");
            const double penalty = scalar[c].penalty;
            const double score = scalar[c].score;
            if (std::bit_cast<uint64_t>(score) !=
                std::bit_cast<uint64_t>(strictParts(cfg, penalty,
                                                    scalar[c].energyKwh,
                                                    switchTerm(c))))
                ruleFailure(report, i,
                            "strict score is not its parts for " +
                                menu.candidates[c].str());

            const double ref_penalty = referencePenalty(
                traj.steps, st.podTempC, active, band, menu.candidates[c],
                cfg, model.config().stepS / 3600.0);
            if (std::bit_cast<uint64_t>(penalty) !=
                    std::bit_cast<uint64_t>(ref_penalty) &&
                report.penaltyMismatches++ == 0) {
                std::ostringstream os;
                os.precision(17);
                os << "state " << i << ", " << menu.candidates[c].str()
                   << ": strict " << penalty << " vs reference "
                   << ref_penalty;
                report.firstPenaltyMismatch = os.str();
            }

            const char *names[] = {"score", "penalty", "energy"};
            const double ref[] = {score, penalty, scalar[c].energyKwh};
            const double got[] = {lane[c].score, lane[c].penalty,
                                  lane[c].energyKwh};
            for (int k = 0; k < 3; ++k) {
                const double gap = relativeGap(got[k], ref[k]);
                if (!(gap <= report.worst)) {
                    report.worst = gap;
                    std::ostringstream os;
                    os.precision(17);
                    os << names[k] << " of " << menu.candidates[c].str()
                       << " at state " << i << " (horizon " << horizon
                       << ", " << active.size() << " active pods): batched "
                       << got[k] << " vs scalar " << ref[k];
                    report.where = os.str();
                }
            }
        }

        // (a) The lane instance: the rule's decision over the full lane
        // scores, and every drop justified by the full score.
        CoolingOptimizer opt(menu, cfg);
        size_t k = selectByRule(menu, st.currentRegime, lane, thresholds);
        const OptimizerDecision lane_pick =
            opt.chooseBatched(pred, st, outlook, active, band);
        if (!decidedExactly(lane_pick, menu, k, lane[k]))
            ruleFailure(report, i,
                        "chooseBatched " + lane_pick.regime.str() +
                            " vs the rule's " + menu.candidates[k].str());
        pred.beginEpoch(st, outlook, active, &cfg, &weights);
        for (size_t c = 0; c < plan.size(); ++c) {
            CandidateScore bounded;
            const bool screened = floors[c] >= thresholds[c];
            const bool kept =
                !screened &&
                pred.scoreLane(plan[c], floors[c], thresholds[c], bounded);
            report.screened += screened;
            report.abandoned += !screened && !kept;
            if (kept ? !(bounded.score == lane[c].score)
                     : !(lane[c].score >= thresholds[c]))
                ruleFailure(report, i,
                            (kept ? "bounded score differs for "
                                  : "dropped below its threshold: ") +
                                menu.candidates[c].str());
        }

        // (b) The strict instance: the rule's decision over the full
        // strict scores, bit for bit, and every drop justified by the
        // full score.
        k = selectByRule(menu, st.currentRegime, scalar, thresholds);
        const OptimizerDecision scalar_pick =
            opt.choose(pred, st, outlook, active, band, traj);
        if (!decidedExactly(scalar_pick, menu, k, scalar[k]))
            ruleFailure(report, i,
                        "choose " + scalar_pick.regime.str() +
                            " vs the rule's " + menu.candidates[k].str());
        pred.beginEpoch(st, outlook, active, &cfg, &weights);
        if (std::bit_cast<uint64_t>(scalar_pick.score) !=
            std::bit_cast<uint64_t>(strictParts(cfg, scalar_pick.penalty,
                                                scalar_pick.energyKwh,
                                                switchTerm(k))))
            ruleFailure(report, i, "choose's score is not its parts");
        for (size_t c = 0; c < plan.size(); ++c) {
            double floor = 0.0;
            if (cfg.energyAware)
                floor += cfg.energyWeightPerKwh * plan[c].energyKwh;
            floor += switchTerm(c);
            CandidateScore bounded;
            const bool screened = floor >= thresholds[c];
            const bool kept = !screened && strict(c, thresholds[c], bounded);
            report.strictScreened += screened;
            report.strictAbandoned += !screened && !kept;
            if (kept ? !sameBits(bounded, scalar[c])
                     : !(scalar[c].score >= thresholds[c]))
                ruleFailure(report, i,
                            (kept ? "bounded strict score differs for "
                                  : "strict drop below its threshold: ") +
                                menu.candidates[c].str());
        }

        std::vector<double> sorted;
        for (const CandidateScore &cs : scalar)
            sorted.push_back(cs.score);
        std::sort(sorted.begin(), sorted.end());
        if (sorted.size() < 2 || sorted[1] - sorted[0] <= 1e-6)
            continue;
        ++report.clearWinners;
        if (!(scalar_pick.regime == lane_pick.regime)) {
            if (report.selectionMismatches++ == 0)
                report.firstMismatch = "state " + std::to_string(i) +
                                       ": choose " +
                                       scalar_pick.regime.str() +
                                       " vs chooseBatched " +
                                       lane_pick.regime.str();
        }
    }
    return report;
}

void
expectPinned(const PinReport &r, int states)
{
    EXPECT_LE(r.worst, 1e-10) << "worst deviation: " << r.where;
    EXPECT_EQ(r.selectionMismatches, 0) << r.firstMismatch;
    EXPECT_EQ(r.ruleFailures, 0) << r.firstRuleFailure;
    EXPECT_EQ(r.penaltyMismatches, 0) << r.firstPenaltyMismatch;
    // The selection and drop checks must not be vacuous.
    EXPECT_GT(r.clearWinners, states / 2);
    EXPECT_GT(r.screened, 0);
    EXPECT_GT(r.abandoned, 0);
    EXPECT_GT(r.strictScreened, 0);
    EXPECT_GT(r.strictAbandoned, 0);
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

TEST(BatchedScorer, MatchesScalarRolloutsAcrossPodBlocks)
{
    // 12 pods run as two padded blocks of 8, so the bound is checked
    // with the first block's penalty already in the lanes.
    constexpr int kStates = 1500;
    const CoolingModel m = randomModel(12, 37);
    const PinReport r = pinBatchedToScalar(m, 12, kStates, 43);
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

// ---------------------------------------------------------------------------
// The seeded walk (walkMenu) against the selection rule, on synthetic
// scores built to sit on the rule's edges: near ties chained across the
// 1e-9 window, energies within a few 1e-12, lower bounds up to the score
// itself.

TEST(SelectionRule, SeededCapMatchesMenuOrder)
{
    const Regime current = Regime::closed();
    util::Rng rng(2015);
    std::vector<CandidateScore> full;
    std::vector<double> lower;
    std::vector<double> thresholds;
    std::vector<int> calls;
    int capped = 0;  // candidates dropped only because of the cap
    constexpr int kMenus = 1000000;
    for (int i = 0; i < kMenus; ++i) {
        const size_t n = size_t(rng.uniformInt(2, 20));
        // Scores on a few levels 0.2-1.5e-9 apart, so tie chains cross
        // the window; some sit up to 40e-9 higher, on both sides of the
        // cap.  Most bases are realistic magnitudes; some are large
        // enough that an ulp reaches the window, where the cap must
        // stand down.
        const int scale = rng.bernoulli(0.9) ? int(rng.uniformInt(-4, 12))
                                             : int(rng.uniformInt(13, 40));
        const double sign = rng.bernoulli(0.1) ? -1.0 : 1.0;
        const double base = sign * std::ldexp(rng.uniform(1.0, 2.0), scale);
        std::vector<double> levels{base};
        for (int l = 1; l < 6; ++l)
            levels.push_back(levels.back() + rng.uniform(0.2e-9, 1.5e-9));
        const double incumbent_p = rng.uniform(0.0, 0.6);
        const bool exact_bounds = rng.bernoulli(0.5);

        RegimeMenu menu;
        full.assign(n, CandidateScore{});
        lower.assign(n, 0.0);
        for (size_t c = 0; c < n; ++c) {
            menu.candidates.push_back(
                rng.bernoulli(incumbent_p)
                    ? current
                    : Regime::freeCooling(0.02 + 0.04 * double(c)));
            double s = levels[size_t(rng.uniformInt(0, 5))];
            if (rng.bernoulli(0.4))
                s += rng.uniform(0.0, 40e-9);
            full[c].score = s;
            full[c].energyKwh =
                1.0 + double(rng.uniformInt(-3, 3)) * 0.7e-12;
            lower[c] = exact_bounds || rng.bernoulli(0.3)
                           ? s
                           : s - rng.uniform(0.0, 3e-9);
        }
        // Production seeds with the first incumbent; the argument holds
        // for any seed, so half the menus seed anywhere (n: no seed).
        size_t seed = 0;
        while (seed < n && !(menu.candidates[seed] == current))
            ++seed;
        if (rng.bernoulli(0.5))
            seed = size_t(rng.uniformInt(0, int64_t(n)));

        const size_t k = selectByRule(menu, current, full, thresholds);
        calls.assign(n, 0);
        CandidateScore best;
        const size_t win = walkMenu(
            n, seed,
            [&](size_t c) { return menu.candidates[c] == current; },
            [&](size_t c, double at, CandidateScore &cs) {
                ++calls[c];
                if (lower[c] >= at) {
                    capped += lower[c] < thresholds[c];
                    return false;
                }
                cs = full[c];
                return true;
            },
            best);
        bool once = true;
        for (int count : calls)
            once = once && count <= 1;
        if (win != k || !(best.score == full[k].score) || !once) {
            std::ostringstream os;
            os.precision(17);
            os << "menu " << i << " (seed " << seed << "): walk picked "
               << win << ", the rule " << k << ";";
            for (size_t c = 0; c < n; ++c)
                os << " [" << full[c].score << ", e "
                   << full[c].energyKwh << ", lb " << lower[c]
                   << (menu.candidates[c] == current ? ", inc" : "")
                   << ", calls " << calls[c] << "]";
            FAIL() << os.str();
        }
    }
    // The cap must have dropped candidates the plain bound keeps.
    EXPECT_GT(capped, kMenus / 10);
}

TEST(Predictor, BankRolloutMatchesModelPredict)
{
    // The strict rollout reads each pod's weights from the transposed
    // bank; every temperature must equal CoolingModel::predictTemp's
    // (LinearModel::predict over TempFeatures) bit for bit, persistence
    // pods, interpolated AC, evaporative intake and fewer pods than the
    // model included.  Some states carry an infinite or negative-zero
    // temperature, which only a persistence pod passes through intact.
    const RegimeMenu menu = RegimeMenu::smoothWithEvaporative();
    util::Rng rng(53);
    for (int pods : {8, 5}) {
        const CoolingModel m = randomModel(8, 59 + uint64_t(pods));
        for (int horizon : {5, 8}) {
            CoolingPredictor pred(&m, horizon);
            for (int i = 0; i < 200; ++i) {
                PredictorState st = randomState(rng, pods, menu);
                if (i % 10 == 0) {
                    const size_t p = size_t(rng.uniformInt(0, pods - 1));
                    st.podTempPrevC[p] = INFINITY;
                    st.podTempC[size_t(pods - 1) - p] = -0.0;
                }
                EpochOutlook outlook;
                outlook.materialize(st, horizon,
                                    m.config().evapEffectiveness);
                for (const Regime &cand : menu.candidates) {
                    const Trajectory traj = pred.predict(st, cand);
                    const bool fc =
                        cand.mode == cooling::Mode::FreeCooling;
                    const bool evap = fc && cand.evaporative;
                    std::vector<double> t = st.podTempC;
                    std::vector<double> tp = st.podTempPrevC;
                    TempInputs in;
                    in.fanSpeed = fc ? cand.fanSpeed : 0.0;
                    in.fanSpeedPrev = st.fanSpeedPrev;
                    in.dcUtilization = st.dcUtilization;
                    for (int step = 0; step < horizon; ++step) {
                        in.outsideC = evap ? outlook.evapOutletC
                                           : outlook.outsideC[size_t(step)];
                        in.outsidePrevC =
                            evap ? outlook.evapOutletC
                                 : (step == 0
                                        ? outlook.outsidePrevC
                                        : outlook.outsideC[size_t(step - 1)]);
                        std::vector<double> next(t.size());
                        for (int p = 0; p < pods; ++p) {
                            in.insideC = t[size_t(p)];
                            in.insidePrevC = tp[size_t(p)];
                            in.podPowerFraction =
                                st.podPowerFraction.empty()
                                    ? 0.5
                                    : st.podPowerFraction[size_t(p)];
                            next[size_t(p)] = m.predictTemp(
                                step == 0 ? st.currentRegime : cand, cand,
                                p, in);
                            const double got =
                                traj.steps[size_t(step)].podTempC[size_t(p)];
                            ASSERT_TRUE(
                                std::bit_cast<uint64_t>(got) ==
                                    std::bit_cast<uint64_t>(next[size_t(p)]) ||
                                (std::isnan(got) &&
                                 std::isnan(next[size_t(p)])))
                                << cand.str() << " step " << step << " pod "
                                << p << ": " << got << " vs "
                                << next[size_t(p)];
                        }
                        tp = t;
                        t = next;
                        in.fanSpeedPrev = in.fanSpeed;
                    }
                }
            }
        }
    }
}
