#include "core/optimizer.hpp"

#include <limits>

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
    predictor.beginLanes(state, outlook, activePods, band, _utility);
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

    OptimizerDecision best;
    bool have_best = false;

    const cooling::RegimeClass current_cls =
        cooling::classify(state.currentRegime);

    ScoreContext sc;
    sc.activePods = &activePods;
    sc.band = &band;
    sc.utility = &_utility;

    for (size_t c = 0; c < _plan.size(); ++c) {
        const cooling::Regime &candidate = _menu.candidates[c];
        const PlannedCandidate &pc = _plan[c];
        sc.switchTerm =
            pc.cls != current_cls ? _utility.switchPenalty : 0.0;
        // A candidate only beats (or ties) the incumbent when its score
        // is below best.score + 1e-9, so one whose score provably
        // reaches that can be dropped without changing the decision.
        sc.abandonAtScore =
            have_best ? best.score + 1e-9
                      : std::numeric_limits<double>::infinity();
        // The static floor: the score with a zero penalty, in the
        // score's own association.  The penalty is non-negative and
        // rounding is monotone, so the floor never exceeds the score.
        double floor = 0.0;
        if (_utility.energyAware)
            floor += _utility.energyWeightPerKwh *
                     (traj ? pc.energyKwh : pc.laneEnergyKwh);
        floor += sc.switchTerm;
        if (floor >= sc.abandonAtScore) {
            predictor.noteScreened();
            continue;
        }

        CandidateScore cs;
        if (traj) {
            if (!predictor.predictScoredInto(state, candidate, outlook, sc,
                                             *traj, cs.penalty))
                continue;
            cs.energyKwh = traj->coolingEnergyKwh;
            cs.score = cs.penalty;
            if (_utility.energyAware)
                cs.score += _utility.energyWeightPerKwh * cs.energyKwh;
            cs.score += sc.switchTerm;
        } else if (!predictor.scoreLane(pc, floor, sc.abandonAtScore, cs)) {
            continue;
        }

        bool better;
        if (!have_best) {
            better = true;
        } else if (cs.score < best.score - 1e-9) {
            better = true;
        } else if (cs.score < best.score + 1e-9) {
            // Tie: prefer the incumbent regime (stability), then the
            // cheaper candidate.
            bool cand_incumbent = candidate == state.currentRegime;
            bool best_incumbent = best.regime == state.currentRegime;
            if (cand_incumbent && !best_incumbent)
                better = true;
            else if (cand_incumbent == best_incumbent &&
                     cs.energyKwh < best.energyKwh - 1e-12)
                better = true;
            else
                better = false;
        } else {
            better = false;
        }

        if (better) {
            best.regime = candidate;
            best.penalty = cs.penalty;
            best.energyKwh = cs.energyKwh;
            best.score = cs.score;
            have_best = true;
        }
    }
    return best;
}

} // namespace core
} // namespace coolair
