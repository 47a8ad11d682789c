#include "core/optimizer.hpp"

#include "util/logging.hpp"

namespace coolair {
namespace core {

CoolingOptimizer::CoolingOptimizer(const cooling::RegimeMenu &menu,
                                   const UtilityConfig &utility)
    : _menu(menu), _utility(utility)
{
    if (_menu.candidates.empty())
        util::fatal("CoolingOptimizer: empty regime menu");
}

OptimizerDecision
CoolingOptimizer::choose(const CoolingPredictor &predictor,
                         const PredictorState &state,
                         const std::vector<int> &activePods,
                         const TemperatureBand &band) const
{
    EpochOutlook outlook;
    outlook.materialize(state, predictor.horizonSteps(),
                        predictor.model().config().evapEffectiveness);
    Trajectory traj;
    return choose(predictor, state, outlook, activePods, band, traj);
}

OptimizerDecision
CoolingOptimizer::choose(const CoolingPredictor &predictor,
                         const PredictorState &state,
                         const EpochOutlook &outlook,
                         const std::vector<int> &activePods,
                         const TemperatureBand &band,
                         Trajectory &traj_scratch) const
{
    return select(predictor, state, outlook, activePods, band,
                  &traj_scratch);
}

OptimizerDecision
CoolingOptimizer::chooseBatched(const CoolingPredictor &predictor,
                                const PredictorState &state,
                                const EpochOutlook &outlook,
                                const std::vector<int> &activePods,
                                const TemperatureBand &band) const
{
    return select(predictor, state, outlook, activePods, band, nullptr);
}

OptimizerDecision
CoolingOptimizer::select(const CoolingPredictor &predictor,
                         const PredictorState &state,
                         const EpochOutlook &outlook,
                         const std::vector<int> &activePods,
                         const TemperatureBand &band,
                         Trajectory *traj) const
{
    ++_stats.epochs;
    _stats.candidates += int64_t(_menu.candidates.size());

    const model::CoolingModel &model = predictor.model();
    if (_planModel != &model || _planRevision != model.revision() ||
        _planHorizon != predictor.horizonSteps()) {
        predictor.planCandidates(_menu, _utility, _plan);
        _planModel = &model;
        _planRevision = model.revision();
        _planHorizon = predictor.horizonSteps();
    }

    const cooling::RegimeClass current_cls =
        cooling::classify(state.currentRegime);

    // One epoch, with one set of penalty weights, for both instances.
    const PenaltyWeights weights =
        penaltyWeights(_utility, band, model.config().stepS / 3600.0);
    predictor.beginEpoch(state, outlook, activePods, &_utility, &weights);

    auto score = [&](size_t c, double at, CandidateScore &cs) {
        const PlannedCandidate &pc = _plan[c];
        const double switch_term =
            pc.cls != current_cls ? _utility.switchPenalty : 0.0;
        // The static floor: the score with a zero penalty, in the
        // score's own association.  The penalty is non-negative and
        // rounding is monotone, so the floor never exceeds the score.
        double floor = 0.0;
        if (_utility.energyAware)
            floor += _utility.energyWeightPerKwh *
                     (traj ? pc.energyKwh : pc.laneEnergyKwh);
        floor += switch_term;
        if (floor >= at) {
            predictor.noteScreened();
            return false;
        }
        return traj ? predictor.scoreStrict(pc, switch_term, at, *traj, cs)
                    : predictor.scoreLane(pc, floor, at, cs);
    };
    auto incumbent = [&](size_t c) {
        return _menu.candidates[c] == state.currentRegime;
    };

    const size_t n = _plan.size();
    size_t seed = 0;
    while (seed < n && !incumbent(seed))
        ++seed;
    CandidateScore cs;
    const size_t win = walkMenu(n, seed, incumbent, score, cs);

    OptimizerDecision best;
    if (win < n) {
        best.regime = _menu.candidates[win];
        best.penalty = cs.penalty;
        best.energyKwh = cs.energyKwh;
        best.score = cs.score;
    }
    return best;
}

} // namespace core
} // namespace coolair
