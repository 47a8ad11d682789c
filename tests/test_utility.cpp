/**
 * @file
 * Tests for the utility (penalty) function of §3.2 through both of its
 * production instances: the strict rollout (scoreStrict) and the lane
 * scorer (scoreLane).  Each case rolls a hand-built model out onto
 * its temperatures, and both instances must charge the hand-computed
 * penalty.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/predictor.hpp"
#include "physics/psychrometrics.hpp"

using namespace coolair;
using namespace coolair::core;
using namespace coolair::model;
using cooling::Regime;
using cooling::RegimeClass;

namespace {

const TemperatureBand kBand = TemperatureBand::fixed(25.0, 30.0);

/**
 * A model whose every transition takes pod p to @p temps[p] in one step
 * and holds it there (T' = temps[p]), and holds the cold-aisle absolute
 * humidity at @p absHumidity.
 */
CoolingModel
holdingModel(const std::vector<double> &temps, double absHumidity)
{
    CoolingModelConfig cfg;
    cfg.numPods = int(temps.size());
    CoolingModel m(cfg);
    for (int from = 0; from < cooling::kNumRegimeClasses; ++from) {
        for (int to = 0; to < cooling::kNumRegimeClasses; ++to) {
            const cooling::TransitionKey key{RegimeClass(from),
                                             RegimeClass(to)};
            for (size_t p = 0; p < temps.size(); ++p) {
                std::vector<double> w(TempFeatures::kCount, 0.0);
                w[0] = temps[p];
                m.setTempModel(key, int(p), LinearModel(std::move(w)));
            }
            std::vector<double> h(HumidityFeatures::kCount, 0.0);
            h[0] = absHumidity;
            m.setHumidityModel(key, LinearModel(std::move(h)));
        }
    }
    return m;
}

/** One trajectory's penalty as each instance charges it. */
struct Penalties
{
    double strict = -1.0;
    double lane = -1.0;
};

/**
 * The penalty of @p regime (also the regime in effect) from pod
 * temperatures @p init, over @p steps 2-minute model steps that each land
 * on @p temps at relative humidity @p rh (taken at the pod average).
 * The strict instance scores with abandonment off, the lane instance at
 * threshold +inf.
 */
Penalties
penalties(const std::vector<double> &temps, const std::vector<double> &init,
          const std::vector<int> &active, const UtilityConfig &cfg,
          const Regime &regime, int steps = 1, double rh = 50.0)
{
    double avg = 0.0;
    for (double t : temps)
        avg += t;
    avg /= double(temps.size());
    const CoolingModel model =
        holdingModel(temps, physics::absoluteHumidity(avg, rh));
    CoolingPredictor pred(&model, steps);

    PredictorState st;
    st.podTempC = init;
    st.podTempPrevC = init;
    st.currentRegime = regime;
    EpochOutlook outlook;
    outlook.materialize(st, steps, model.config().evapEffectiveness);
    const PenaltyWeights w =
        penaltyWeights(cfg, kBand, model.config().stepS / 3600.0);

    Penalties out;
    const PlannedCandidate pc = pred.planCandidate(regime, cfg);
    pred.beginEpoch(st, outlook, active, &cfg, &w);
    Trajectory traj;
    CandidateScore cs;
    EXPECT_TRUE(pred.scoreStrict(pc, 0.0, INFINITY, traj, cs));
    out.strict = cs.penalty;
    EXPECT_TRUE(pred.scoreLane(pc, 0.0, INFINITY, cs));
    out.lane = cs.penalty;
    return out;
}

void
expectBoth(const Penalties &p, double expected, double tol = 1e-9)
{
    EXPECT_NEAR(p.strict, expected, tol) << "strict instance";
    EXPECT_NEAR(p.lane, expected, tol) << "lane instance";
}

UtilityConfig
onlyMaxTemp()
{
    UtilityConfig c;
    c.penalizeBand = false;
    c.penalizeRate = false;
    c.penalizeHumidity = false;
    c.penalizeAcFull = false;
    c.energyAware = false;
    return c;
}

} // anonymous namespace

TEST(Utility, MaxTempPenaltyPerHalfDegree)
{
    UtilityConfig cfg = onlyMaxTemp();  // max 30
    // Pod 0 is 1.0 C over: 2 units.  Pod 1 within limits: 0.
    expectBoth(penalties({31.0, 29.0}, {30.0, 29.0}, {0, 1}, cfg,
                         Regime::closed()),
               2.0);
}

TEST(Utility, BandPenaltyBothSides)
{
    UtilityConfig cfg = onlyMaxTemp();
    cfg.penalizeMaxTemp = false;
    cfg.penalizeBand = true;
    // 1 C below band: 2 units; 1 C above: 2 units.
    expectBoth(penalties({24.0, 31.0}, {25.0, 30.0}, {0, 1}, cfg,
                         Regime::closed()),
               4.0);
}

TEST(Utility, OnlyActivePodsCharged)
{
    UtilityConfig cfg = onlyMaxTemp();
    cfg.penalizeMaxTemp = false;
    cfg.penalizeBand = true;
    // Pod 1 inactive, not charged.
    expectBoth(penalties({24.0, 31.0}, {25.0, 30.0}, {0}, cfg,
                         Regime::closed()),
               2.0);
}

TEST(Utility, RatePenaltyProRatedByDuration)
{
    UtilityConfig cfg = onlyMaxTemp();
    cfg.penalizeMaxTemp = false;
    cfg.penalizeRate = true;
    // 2 C drop in 2 minutes = 60 C/h; excess 40 C/h over 1/30 h
    // charges 40/30 units.
    expectBoth(penalties({26.0}, {28.0}, {0}, cfg, Regime::closed()),
               40.0 / 30.0);
}

TEST(Utility, RateWithinLimitFree)
{
    UtilityConfig cfg = onlyMaxTemp();
    cfg.penalizeMaxTemp = false;
    cfg.penalizeRate = true;
    // 0.5 C in 2 min = 15 C/h: within the 20 C/h limit.
    expectBoth(penalties({27.5}, {28.0}, {0}, cfg, Regime::closed()), 0.0,
               0.0);
}

TEST(Utility, HumidityPenaltyPerFivePercent)
{
    UtilityConfig cfg = onlyMaxTemp();
    cfg.penalizeMaxTemp = false;
    cfg.penalizeHumidity = true;  // ceiling 80 %
    // 10 % over / 5.
    expectBoth(penalties({27.0}, {27.0}, {0}, cfg, Regime::closed(), 1, 90.0),
               2.0);
}

TEST(Utility, AcFullPenaltyPerStep)
{
    UtilityConfig cfg = onlyMaxTemp();
    cfg.penalizeMaxTemp = false;
    cfg.penalizeAcFull = true;
    expectBoth(penalties({27.0}, {27.0}, {0}, cfg, Regime::acCompressor(1.0),
                         3),
               3.0);
    // Partial compressor speed is not "full blast".
    expectBoth(penalties({27.0}, {27.0}, {0}, cfg, Regime::acCompressor(0.5),
                         3),
               0.0, 0.0);
    expectBoth(penalties({27.0}, {27.0}, {0}, cfg, Regime::acFanOnly(), 3),
               0.0, 0.0);
}

TEST(Utility, ViolationsAccumulateAcrossStepsAndPods)
{
    UtilityConfig cfg = onlyMaxTemp();
    // 2 pods x 2 steps x (1.0 / 0.5) = 8 units.
    expectBoth(penalties({31.0, 31.0}, {31.0, 31.0}, {0, 1}, cfg,
                         Regime::closed(), 2),
               8.0);
}

TEST(Utility, CenteringTermOptIn)
{
    UtilityConfig cfg = onlyMaxTemp();
    cfg.penalizeMaxTemp = false;
    cfg.penalizeBand = true;
    // In band but off center on either side: free until centering is
    // opted into, then the centering term only.
    expectBoth(penalties({29.0, 26.0}, {29.0, 26.0}, {0, 1}, cfg,
                         Regime::closed()),
               0.0, 0.0);
    cfg.centeringWeightPerC = 0.1;
    expectBoth(penalties({29.0, 26.0}, {29.0, 26.0}, {0, 1}, cfg,
                         Regime::closed()),
               0.1 * (29.0 - 27.5) + 0.1 * (27.5 - 26.0));
}
