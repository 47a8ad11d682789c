#ifndef COOLAIR_CORE_PREDICTOR_HPP
#define COOLAIR_CORE_PREDICTOR_HPP

/**
 * @file
 * The Cooling Predictor (paper §3.2): the Cooling Model predicts only
 * one short model step ahead, so the Predictor chains it — each
 * prediction's outputs become the next prediction's inputs — to cover
 * the Optimizer's 10-minute decision horizon.
 */

#include <array>
#include <cstdint>
#include <vector>

#include "cooling/regime.hpp"
#include "core/predictor_kernels.hpp"
#include "core/utility.hpp"
#include "model/cooling_model.hpp"
#include "plant/parasol.hpp"

namespace coolair {
namespace core {

/** One evaluated step of a predicted trajectory. */
struct PredictedStep
{
    std::vector<double> podTempC;
    double rhPercent = 50.0;
};

/** A rolled-out prediction over the decision horizon. */
struct Trajectory
{
    std::vector<PredictedStep> steps;

    /** Predicted cooling energy over the horizon [kWh]. */
    double coolingEnergyKwh = 0.0;
};

/** The state the predictor starts a rollout from. */
struct PredictorState
{
    std::vector<double> podTempC;       ///< Current pod inlet temps.
    std::vector<double> podTempPrevC;   ///< One model step ago.
    double coldAbsHumidity = 8.0;
    double outsideC = 15.0;
    double outsidePrevC = 15.0;
    double outsideAbsHumidity = 8.0;
    double fanSpeedPrev = 0.0;
    double dcUtilization = 1.0;

    /** Per-pod power fractions [0..1]; empty means 0.5 everywhere. */
    std::vector<double> podPowerFraction;

    cooling::Regime currentRegime;      ///< Regime in effect right now.

    /**
     * Fill from current sensor readings and controller memory, reusing
     * this object's vector storage.  Every field is (re)assigned, so a
     * stale state may be refilled freely.
     */
    void fill(const plant::SensorReadings &sensors,
              const std::vector<double> &prev_temp, double prev_fan,
              double prev_outside, const cooling::Regime &current,
              const plant::PodLoad *load = nullptr);
};

/**
 * The weather context shared by every candidate rollout of one control
 * epoch (paper §3.2 holds outside conditions at the current observation
 * over the 10-minute horizon).  Materialized once per epoch so the
 * psychrometric conversions — relative humidity of the observation and
 * the evaporative-cooler outlet temperature — are computed once instead
 * of once per evaporative candidate.
 */
struct EpochOutlook
{
    /** Outside dry-bulb per horizon step [°C]. */
    std::vector<double> outsideC;

    /** Dry-bulb one model step before the horizon starts [°C]. */
    double outsidePrevC = 15.0;

    /** Relative humidity of the current observation [%]. */
    double outsideRhPercent = 50.0;

    /** Evaporative-cooler outlet temp for the observation [°C]. */
    double evapOutletC = 15.0;

    /**
     * Fill the horizon from @p state: @p steps copies of the current
     * observation (the §3.2 hold), plus the derived psychrometrics.
     */
    void materialize(const PredictorState &state, int steps,
                     double evap_effectiveness);
};

/** One candidate's fully-evaluated score. */
struct CandidateScore
{
    double penalty = 0.0;    ///< Violation units along the horizon.
    double energyKwh = 0.0;  ///< Predicted cooling energy.
    double score = 0.0;      ///< penalty + energy term + switch term.
};

/** One candidate as both scorers see it, derived once per menu, model
    revision, horizon and utility (planCandidate()). */
struct PlannedCandidate
{
    cooling::RegimeClass cls = cooling::RegimeClass::Closed;
    std::array<int, 4> slots{};  ///< Bank slots: first on/off, steady on/off
    double fan = 0.0;            ///< Fan speed (0 unless free cooling).
    double s = 0.0;              ///< Interpolated AC's compressor blend.
    bool acFull = false;         ///< Charged one unit per step.
    double stepKwh = 0.0;        ///< Cooling energy of one model step.
    double energyKwh = 0.0;      ///< stepKwh summed step by step.
    double laneEnergyKwh = 0.0;  ///< stepKwh * horizon, the lane's term.
};

/** Chains the Cooling Model over the optimizer horizon. */
class CoolingPredictor
{
  public:
    /**
     * @param model         the learned cooling model
     * @param horizon_steps model steps per rollout (5 x 2 min = 10 min)
     */
    CoolingPredictor(const model::CoolingModel *model, int horizon_steps = 5);

    /** Roll out @p candidate from @p state (an unscored epoch over the
        held outlook of materialize()). */
    Trajectory predict(const PredictorState &state,
                       const cooling::Regime &candidate) const;

    /** @p candidate as both scorers see it under @p utility. */
    PlannedCandidate planCandidate(const cooling::Regime &candidate,
                                   const UtilityConfig &utility) const;

    /** Fill @p plan with planCandidate() of each candidate of @p menu. */
    void planCandidates(const cooling::RegimeMenu &menu,
                        const UtilityConfig &utility,
                        std::vector<PlannedCandidate> &plan) const;

    /**
     * Start an epoch of both scorers: checks the pod count, the outlook's
     * length and @p activePods once, and pads the pod inputs both
     * instances read.  @p utility and @p weights are both null for an
     * unscored epoch (predict()), or both set.  The arguments must
     * outlive the epoch's scoreStrict() and scoreLane() calls.
     */
    void beginEpoch(const PredictorState &state, const EpochOutlook &outlook,
                    const std::vector<int> &activePods,
                    const UtilityConfig *utility,
                    const PenaltyWeights *weights) const;

    /**
     * The strict instance (the scalar oracle's): roll @p cand out into
     * @p traj, reusing its storage, with the models of
     * CoolingModel::predictTemp read from the transposed banks, and
     * charge the §3.2 utility as it runs: each step adds every active
     * pod's podTerms() that fire (not +0.0) in activePods order, then
     * humidityTerm() when enabled and the AC-full unit; the last step's
     * centeringTerm()s follow the loop.  The score is the penalty, plus
     * the energy term when energy-aware, plus @p switchTerm.  The rollout
     * is abandoned (false; @p traj and @p out unspecified) as soon as a
     * lower bound on that score, built in the same order from the
     * penalty and energy so far, reaches @p abandonAtScore.  Every
     * penalty and energy increment is non-negative and floating-point
     * accumulation of non-negative terms is monotone, so an abandoned
     * candidate's full score reaches the threshold too, and a completed
     * one scores the same at any threshold.  A negative energy weight
     * turns the bound off.  An unscored epoch charges nothing.
     */
    bool scoreStrict(const PlannedCandidate &cand, double switchTerm,
                     double abandonAtScore, Trajectory &traj,
                     CandidateScore &out) const;

    /**
     * The lane instance (the lane-batched engine's): each transition
     * bank is collapsed, the first time the epoch needs it, into per-pod
     * affine terms `T' = a*T + b*Tprev + c`, and @p cand runs one fused
     * pass over its pods, charging the strict instance's utility.hpp
     * terms, each pod's summed in its own lane.  It is abandoned (false)
     * once its penalty so far plus @p floor, its score with a zero
     * penalty, reaches @p abandonAtScore; a completed candidate scores
     * penalty + @p floor at any threshold.  Scores can differ from the
     * strict instance's in the last ulps (DESIGN.md §10's tolerance
     * contract).
     */
    bool scoreLane(const PlannedCandidate &cand, double floor,
                   double abandonAtScore, CandidateScore &out) const;

    /** Count a candidate screened by its floor as rollout abandoned. */
    void noteScreened() const
    {
        ++_stats.rollouts;
        ++_stats.rolloutsAbandoned;
    }

    /** Number of steps per rollout. */
    int horizonSteps() const { return _horizonSteps; }

    /** The model driving predictions. */
    const model::CoolingModel &model() const { return *_model; }

    /** Lifetime rollout / resolved-cache counters (plain increments on
        the thread-private predictor; harvested once per run). */
    struct PredictorStats
    {
        int64_t rollouts = 0;           ///< candidate rollouts started
        int64_t rolloutsAbandoned = 0;  ///< screened or bound hit
        int64_t resolveHits = 0;        ///< resolved() served from cache
        int64_t resolveMisses = 0;      ///< resolved() filled an entry
    };

    PredictorStats stats() const { return _stats; }

  private:
    const model::CoolingModel *_model;
    int _horizonSteps;

    /** Resolved per-pod temperature models + humidity model for one
        transition key, with the fallback chain already applied. */
    struct ResolvedModels
    {
        bool valid = false;
        std::vector<const model::LinearModel *> temp;
        const model::LinearModel *humidity = nullptr;

        /**
         * The same models flattened for both scorers: tempW holds the
         * temperature weights transposed (feature-major,
         * [feature * temp.size() + pod], so the row stride is the
         * model's pod count, not the state's) so the strict pod loop and
         * the lane collapse kernel read contiguous lanes, and humW the
         * humidity weights.  Persistence (null) entries are encoded as
         * identity rows (weight 1 on the inside-state feature) so the
         * collapse runs branch-free; the strict rollout writes T itself.
         */
        std::vector<double> tempW;
        std::array<double, model::HumidityFeatures::kCount> humW{};
    };

    /**
     * The resolved models for @p key, from a cache invalidated whenever
     * CoolingModel::revision() changes.  Resolution is a pure lookup, so
     * a cache hit returns exactly the pointers a fresh resolve would —
     * this just stops every candidate rollout from re-walking the
     * fallback chain for keys the epoch (or the whole run, absent
     * recalibration) has already seen.
     */
    const ResolvedModels &resolved(const cooling::TransitionKey &key) const;

    /** Bank slots: the first step's map into each class, each class's
        steady map, and AcCompressor -> AcFanOnly. */
    static constexpr int kOffRest = 2 * cooling::kNumRegimeClasses;

    /** The transition key of bank @p slot in this epoch. */
    cooling::TransitionKey slotKey(int slot) const;

    /** Lane bank @p slot's models, collapsed on the epoch's first use. */
    const ResolvedModels &laneBank(int slot) const;

    // The epoch (beginEpoch; the scorers are logically const, one
    // predictor per controller, controllers are never shared across
    // threads): its inputs, the current regime's class, the utility and
    // penalty weights (null: unscored) and the lane banks collapsed so
    // far.  Then the scratch: the padded pod inputs (temps, previous
    // temps, power fractions, mask), the strict instance's
    // compressor-off temperatures, and the lane instance's banks
    // ([slot][row][pod]), lane sums, and per-step pod averages and
    // absolute humidities.
    mutable const PredictorState *_epochState = nullptr;
    mutable const EpochOutlook *_epochOutlook = nullptr;
    mutable const std::vector<int> *_epochActive = nullptr;
    mutable cooling::RegimeClass _epochFrom = cooling::RegimeClass::Closed;
    mutable const UtilityConfig *_epochUtility = nullptr;
    mutable const PenaltyWeights *_epochWeights = nullptr;
    mutable std::array<const ResolvedModels *, kOffRest + 1> _laneBanks{};
    mutable std::vector<double> _cPods;
    mutable std::vector<double> _tOff;
    mutable std::vector<double> _cBanks;
    mutable std::vector<double> _cLaneSum;
    mutable std::vector<double> _cSteps;

    mutable std::vector<ResolvedModels> _resolveCache;
    mutable uint64_t _resolveRevision = 0;
    mutable bool _resolveCacheReady = false;
    mutable PredictorStats _stats;
};

} // namespace core
} // namespace coolair

#endif // COOLAIR_CORE_PREDICTOR_HPP
