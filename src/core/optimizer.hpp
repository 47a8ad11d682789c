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
     * The selection loop of both choose() instances: menu order, a
     * candidate whose static floor (its score with a zero penalty)
     * reaches the incumbent's score + 1e-9 is skipped, the rest roll out
     * with that bound, by predictScoredInto() into @p traj or by the
     * lane scorer when @p traj is null.
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
