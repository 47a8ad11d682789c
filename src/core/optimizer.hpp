#ifndef COOLAIR_CORE_OPTIMIZER_HPP
#define COOLAIR_CORE_OPTIMIZER_HPP

/**
 * @file
 * The Cooling Optimizer (paper §3.2): every 10 minutes, roll out each
 * candidate cooling regime over the horizon with the Cooling Predictor,
 * score it with the utility function, and pick the cheapest.  Energy-
 * aware versions weigh predicted cooling energy into the score; ties
 * prefer the incumbent regime to avoid churn.
 */

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "cooling/regime.hpp"
#include "core/predictor.hpp"
#include "core/utility.hpp"

namespace coolair {
namespace core {

/** The optimizer's choice and its diagnostics. */
struct OptimizerDecision
{
    cooling::Regime regime;
    double penalty = 0.0;          ///< Violation units along the horizon.
    double energyKwh = 0.0;        ///< Predicted cooling energy.
    double score = 0.0;            ///< penalty + energy term.
};

/**
 * The selection rule's walk over a menu of @p n candidates, shared by
 * both choose() instances (DESIGN.md §10 "Selection").  In menu order
 * the first kept candidate wins; a later one replaces the winner when it
 * scores more than 1e-9 below it, or within 1e-9 when it is the
 * incumbent (@p incumbent(c)) and the winner is not, or both or neither
 * are and it is cheaper by more than 1e-12.  @p score(c, at, cs) scores
 * candidate c into @p cs, or returns false once its score provably
 * reaches @p at.  Candidate @p seed (@p n: none) is scored first, at
 * +inf, and caps the threshold of every candidate before it at its
 * score + (n + 3) * 1e-9.  Returns the winner, its score in @p best, or
 * @p n when no candidate was kept.
 */
template <class Incumbent, class Score>
size_t
walkMenu(size_t n, size_t seed, Incumbent &&incumbent, Score &&score,
         CandidateScore &best)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    CandidateScore seed_cs;
    const bool seed_kept = seed < n && score(seed, kInf, seed_cs);
    double cap = kInf;
    if (seed_kept) {
        // The margin absorbs the rounding of winner +/- 1e-9 while n + 1
        // ulps of the scores near S stay under 6e-9; an ulp there is at
        // most a * 2^-52.  The test also fails for NaN and inf scores.
        const double t = seed_cs.score + double(n + 3) * 1e-9;
        const double a = std::max(std::fabs(seed_cs.score), std::fabs(t));
        if (double(n + 1) * a * 0x1p-52 < 6e-9)
            cap = t;
    }

    size_t win = n;
    for (size_t c = 0; c < n; ++c) {
        const double at = win < n ? best.score + 1e-9 : kInf;
        CandidateScore cs;
        if (c == seed) {
            if (!seed_kept)
                continue;
            cs = seed_cs;
        } else if (!score(c, c < seed ? std::min(at, cap) : at, cs)) {
            continue;
        }

        bool better;
        if (win == n) {
            better = true;
        } else if (cs.score < best.score - 1e-9) {
            better = true;
        } else if (cs.score < best.score + 1e-9) {
            // Tie: prefer the incumbent regime (stability), then the
            // cheaper candidate.
            const bool cand_incumbent = incumbent(c);
            const bool best_incumbent = incumbent(win);
            better = (cand_incumbent && !best_incumbent) ||
                     (cand_incumbent == best_incumbent &&
                      cs.energyKwh < best.energyKwh - 1e-12);
        } else {
            better = false;
        }
        if (better) {
            best = cs;
            win = c;
        }
    }
    return win;
}

/** Selects cooling regimes. */
class CoolingOptimizer
{
  public:
    CoolingOptimizer(const cooling::RegimeMenu &menu,
                     const UtilityConfig &utility);

    /**
     * Choose the regime for the next period.
     *
     * @param predictor  rollout engine over the learned model
     * @param state      current predictor inputs
     * @param activePods pods whose sensors are charged penalties
     * @param band       today's temperature band
     */
    OptimizerDecision choose(const CoolingPredictor &predictor,
                             const PredictorState &state,
                             const std::vector<int> &activePods,
                             const TemperatureBand &band) const;

    /**
     * choose() with caller-provided buffers: @p outlook is the epoch's
     * shared weather context (materialize once, every candidate reads
     * it) and @p traj_scratch holds each rollout without reallocating.
     * Bit-identical to the plain overload.
     */
    OptimizerDecision choose(const CoolingPredictor &predictor,
                             const PredictorState &state,
                             const EpochOutlook &outlook,
                             const std::vector<int> &activePods,
                             const TemperatureBand &band,
                             Trajectory &traj_scratch) const;

    /**
     * choose() through the lane scorer (CoolingPredictor::scoreLane), the
     * lane-batched engine's rollout instance: the same selection loop,
     * static-floor screen and incumbent bound over the epoch's shared
     * @p outlook.  Scores can differ from the scalar path in the last
     * ulps (the lane scorer reassociates the model arithmetic), so a
     * near-tie may resolve differently — covered by the batched engine's
     * tolerance contract, DESIGN.md §10.
     */
    OptimizerDecision chooseBatched(const CoolingPredictor &predictor,
                                    const PredictorState &state,
                                    const EpochOutlook &outlook,
                                    const std::vector<int> &activePods,
                                    const TemperatureBand &band) const;

    /** The candidate menu. */
    const cooling::RegimeMenu &menu() const { return _menu; }

    /** The utility configuration. */
    const UtilityConfig &utility() const { return _utility; }

    /** Lifetime decision counters (plain increments on the
        thread-private optimizer; harvested once per run). */
    struct OptimizerStats
    {
        int64_t epochs = 0;      ///< choose() decisions made
        int64_t candidates = 0;  ///< candidate regimes considered
    };

    OptimizerStats stats() const { return _stats; }

  private:
    /**
     * The selection loop of both choose() instances: walkMenu() seeded
     * with the first incumbent candidate.  A candidate whose static
     * floor (its score with a zero penalty) reaches its threshold is
     * skipped, the rest roll out with that bound, by scoreStrict() into
     * @p traj or by scoreLane() when @p traj is null.  Both instances
     * score the menu's one plan in the one epoch that beginEpoch()
     * starts, and charge its one penaltyWeights().
     */
    OptimizerDecision select(const CoolingPredictor &predictor,
                             const PredictorState &state,
                             const EpochOutlook &outlook,
                             const std::vector<int> &activePods,
                             const TemperatureBand &band,
                             Trajectory *traj) const;

    cooling::RegimeMenu _menu;
    UtilityConfig _utility;
    mutable OptimizerStats _stats;

    // The menu's plan and the model state and horizon it is for (one
    // optimizer per controller; never shared across threads).
    mutable std::vector<PlannedCandidate> _plan;
    mutable const model::CoolingModel *_planModel = nullptr;
    mutable uint64_t _planRevision = 0;
    mutable int _planHorizon = 0;
};

} // namespace core
} // namespace coolair

#endif // COOLAIR_CORE_OPTIMIZER_HPP
