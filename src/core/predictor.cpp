#include "core/predictor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "physics/psychrometrics.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace coolair {
namespace core {

namespace {

/**
 * Every pod's LinearModel::predict over TempFeatures::build's features,
 * read from the transposed bank @p W (row stride @p S): the same
 * products summed in the same order, so the same bits.  The pods are
 * independent, so the loop vectorizes without reassociating a sum.
 */
void
bankTemps(size_t pods, size_t S, const double *__restrict W,
          const double *__restrict T, const double *__restrict Tp,
          const double *__restrict ppf, double out_c, double out_prev,
          double fan, double fan_prev, double dc_u, double *__restrict dst)
{
    const double fan_out = fan * out_c;
    for (size_t p = 0; p < pods; ++p) {
        double t = 0.0;
        t += W[p] * 1.0;
        t += W[S + p] * T[p];
        t += W[2 * S + p] * Tp[p];
        t += W[3 * S + p] * out_c;
        t += W[4 * S + p] * out_prev;
        t += W[5 * S + p] * fan;
        t += W[6 * S + p] * fan_prev;
        t += W[7 * S + p] * dc_u;
        t += W[8 * S + p] * (fan * T[p]);
        t += W[9 * S + p] * fan_out;
        t += W[10 * S + p] * ppf[p];
        dst[p] = t;
    }
}

} // anonymous namespace

void
PredictorState::fill(const plant::SensorReadings &sensors,
                     const std::vector<double> &prev_temp, double prev_fan,
                     double prev_outside, const cooling::Regime &current,
                     const plant::PodLoad *load)
{
    if (load && !load->activeServers.empty()) {
        int pods = int(load->activeServers.size());
        podPowerFraction.resize(size_t(pods));
        for (int p = 0; p < pods; ++p)
            podPowerFraction[size_t(p)] = load->podPowerFraction(p);
    } else {
        podPowerFraction.clear();
    }
    podTempC.assign(sensors.podInletC.begin(), sensors.podInletC.end());
    if (prev_temp.size() == sensors.podInletC.size())
        podTempPrevC.assign(prev_temp.begin(), prev_temp.end());
    else
        podTempPrevC.assign(sensors.podInletC.begin(),
                            sensors.podInletC.end());
    coldAbsHumidity = sensors.coldAisleAbsHumidity;
    outsideC = sensors.outsideC;
    outsidePrevC = prev_outside;
    outsideAbsHumidity = sensors.outsideAbsHumidity;
    fanSpeedPrev = prev_fan;
    dcUtilization = sensors.dcUtilization;
    currentRegime = current;
}

void
EpochOutlook::materialize(const PredictorState &state, int steps,
                          double evap_effectiveness)
{
    // Outside conditions held at the current observation across the
    // short horizon — they change far slower than that (§3.2).
    outsideC.assign(size_t(std::max(steps, 0)), state.outsideC);
    outsidePrevC = state.outsidePrevC;
    outsideRhPercent = physics::relativeHumidity(state.outsideC,
                                                 state.outsideAbsHumidity);
    evapOutletC = physics::evaporativeOutletTemp(
        state.outsideC, outsideRhPercent, evap_effectiveness);
}

CoolingPredictor::CoolingPredictor(const model::CoolingModel *model,
                                   int horizon_steps)
    : _model(model), _horizonSteps(horizon_steps)
{
    if (!model)
        util::panic("CoolingPredictor: null model");
    if (horizon_steps <= 0)
        util::fatal("CoolingPredictor: horizon must be positive");
}

const CoolingPredictor::ResolvedModels &
CoolingPredictor::resolved(const cooling::TransitionKey &key) const
{
    if (!_resolveCacheReady || _model->revision() != _resolveRevision) {
        _resolveCache.assign(size_t(cooling::TransitionKey::count()),
                             ResolvedModels{});
        _resolveRevision = _model->revision();
        _resolveCacheReady = true;
    }
    ResolvedModels &entry = _resolveCache[size_t(key.index())];
    if (!entry.valid) {
        _model->resolveTempModels(key, entry.temp);
        entry.humidity = _model->resolveHumidityModel(key);

        // Flatten for the batched scorer: transposed (feature-major)
        // weight banks, persistence encoded as an identity row so the
        // collapse kernel needs no null checks.
        constexpr size_t kT = model::TempFeatures::kCount;
        const size_t pods = entry.temp.size();
        entry.tempW.assign(pods * kT, 0.0);
        for (size_t p = 0; p < pods; ++p) {
            if (const model::LinearModel *m = entry.temp[p]) {
                const std::vector<double> &w = m->weights();
                if (w.size() != kT)
                    util::panic(
                        "CoolingPredictor: temp-model arity mismatch");
                for (size_t f = 0; f < kT; ++f)
                    entry.tempW[f * pods + p] = w[f];
            } else {
                entry.tempW[1 * pods + p] = 1.0;  // persistence: T' = T
            }
        }
        entry.humW.fill(0.0);
        if (entry.humidity) {
            const std::vector<double> &w = entry.humidity->weights();
            if (w.size() != entry.humW.size())
                util::panic(
                    "CoolingPredictor: humidity-model arity mismatch");
            std::copy(w.begin(), w.end(), entry.humW.begin());
        } else {
            entry.humW[1] = 1.0;  // persistence: h' = h
        }

        entry.valid = true;
        ++_stats.resolveMisses;
    } else {
        ++_stats.resolveHits;
    }
    return entry;
}

Trajectory
CoolingPredictor::predict(const PredictorState &state,
                          const cooling::Regime &candidate) const
{
    EpochOutlook outlook;
    outlook.materialize(state, _horizonSteps,
                        _model->config().evapEffectiveness);
    const std::vector<int> none;
    beginEpoch(state, outlook, none, nullptr, nullptr);
    Trajectory traj;
    CandidateScore cs;
    (void)scoreStrict(planCandidate(candidate, UtilityConfig{}), 0.0,
                      std::numeric_limits<double>::infinity(), traj, cs);
    traj.coolingEnergyKwh = cs.energyKwh;
    return traj;
}

PlannedCandidate
CoolingPredictor::planCandidate(const cooling::Regime &candidate,
                                const UtilityConfig &cfg) const
{
    constexpr int kCls = cooling::kNumRegimeClasses;
    PlannedCandidate pc;
    pc.cls = cooling::classify(candidate);
    const bool ac_on = candidate.mode == cooling::Mode::AirConditioning &&
                       candidate.compressorOn;
    // Variable-speed AC blends the compressor-on and -off maps by
    // compressor speed; its fan is zero like every AC candidate's.
    const bool ac_interp = ac_on && candidate.compressorSpeed < 1.0 - 1e-9;
    const int first = int(pc.cls);
    const int rest = kCls + int(pc.cls);
    pc.slots = {first,
                ac_interp ? int(cooling::RegimeClass::AcFanOnly) : first,
                rest, ac_interp ? kOffRest : rest};
    pc.fan = candidate.mode == cooling::Mode::FreeCooling ? candidate.fanSpeed
                                                          : 0.0;
    pc.s = ac_interp ? util::clamp(candidate.compressorSpeed, 0.0, 1.0) : 0.0;
    pc.acFull = cfg.penalizeAcFull && ac_on && !ac_interp;
    // Cooling power depends only on the candidate, not the step.
    const double step_h = _model->config().stepS / 3600.0;
    pc.stepKwh = _model->predictCoolingPower(candidate) * step_h / 1000.0;
    for (int step = 0; step < _horizonSteps; ++step)
        pc.energyKwh += pc.stepKwh;
    pc.laneEnergyKwh = pc.stepKwh * double(_horizonSteps);
    return pc;
}

void
CoolingPredictor::planCandidates(const cooling::RegimeMenu &menu,
                                 const UtilityConfig &cfg,
                                 std::vector<PlannedCandidate> &plan) const
{
    plan.clear();
    for (const cooling::Regime &candidate : menu.candidates)
        plan.push_back(planCandidate(candidate, cfg));
}

void
CoolingPredictor::beginEpoch(const PredictorState &state,
                             const EpochOutlook &outlook,
                             const std::vector<int> &activePods,
                             const UtilityConfig *utility,
                             const PenaltyWeights *weights) const
{
    const int pods = int(state.podTempC.size());
    if (pods > _model->config().numPods)
        util::panic("CoolingPredictor: pod out of range");
    if (int(outlook.outsideC.size()) < _horizonSteps)
        util::panic("CoolingPredictor: outlook shorter than the horizon");
    for (int pod : activePods)
        if (pod < 0 || pod >= pods)
            util::panic("beginEpoch: pod index out of range");
    if (!utility != !weights)
        util::panic("beginEpoch: utility and weights go together");

    _epochState = &state;
    _epochOutlook = &outlook;
    _epochActive = &activePods;
    _epochFrom = cooling::classify(state.currentRegime);
    _epochUtility = utility;
    _epochWeights = weights;
    _laneBanks.fill(nullptr);

    const size_t P = size_t(kernels::paddedPods(pods));
    _tOff.resize(size_t(pods));
    _cBanks.resize(_laneBanks.size() * kernels::kBankRows * P);
    _cLaneSum.resize(size_t(_horizonSteps) * kernels::kPodBlock);
    _cSteps.resize(2 * size_t(_horizonSteps));

    // Padded pod inputs, the power fraction 0.5 where the state has
    // none; the padding stays zero (mask included).
    _cPods.assign(4 * P, 0.0);
    double *t0 = _cPods.data();
    for (int p = 0; p < pods; ++p) {
        t0[p] = state.podTempC[size_t(p)];
        t0[P + size_t(p)] = state.podTempPrevC[size_t(p)];
        t0[2 * P + size_t(p)] = p < int(state.podPowerFraction.size())
                                    ? state.podPowerFraction[size_t(p)]
                                    : 0.5;
    }
    for (int pod : activePods)
        t0[3 * P + size_t(pod)] = 1.0;
}

cooling::TransitionKey
CoolingPredictor::slotKey(int slot) const
{
    using cooling::RegimeClass;
    constexpr int kCls = cooling::kNumRegimeClasses;
    const RegimeClass to = slot == kOffRest ? RegimeClass::AcFanOnly
                                            : RegimeClass(slot % kCls);
    const RegimeClass from = slot < kCls         ? _epochFrom
                             : slot == kOffRest ? RegimeClass::AcCompressor
                                                : to;
    return {from, to};
}

const CoolingPredictor::ResolvedModels &
CoolingPredictor::laneBank(int slot) const
{
    const ResolvedModels *&res = _laneBanks[size_t(slot)];
    if (res)
        return *res;
    const PredictorState &state = *_epochState;
    const EpochOutlook &outlook = *_epochOutlook;
    const cooling::TransitionKey key = slotKey(slot);
    res = &resolved(key);

    // The outlook holds every non-state feature constant, so the bank
    // reduces to per-pod affine terms `T' = a*T + b*Tprev + c` in which
    // only the candidate's fan varies.  Evaporative candidates are
    // driven by the pre-cooled intake.
    const bool first = slot < cooling::kNumRegimeClasses;
    const bool evap = key.to == cooling::RegimeClass::FcEvap;
    const double out_c = evap ? outlook.evapOutletC : outlook.outsideC[0];
    const double out_prev = first && !evap ? outlook.outsidePrevC : out_c;
    const int pods = int(state.podTempC.size());
    const int pods8 = kernels::paddedPods(pods);
    kernels::collapseBankN(
        pods, int(res->temp.size()), res->tempW.data(), out_c, out_prev,
        first ? state.fanSpeedPrev : 0.0, first ? 0.0 : 1.0,
        state.dcUtilization, _cPods.data() + 2 * size_t(pods8), pods8,
        _cBanks.data() + size_t(slot) * kernels::kBankRows * size_t(pods8));
    return *res;
}

bool
CoolingPredictor::scoreLane(const PlannedCandidate &cand, double floor,
                            double abandonAtScore, CandidateScore &out) const
{
    ++_stats.rollouts;
    const PredictorState &state = *_epochState;
    const PenaltyWeights &w = *_epochWeights;
    const int pods = int(state.podTempC.size());
    const int pods8 = kernels::paddedPods(pods);
    const size_t P = size_t(pods8);
    const int horizon = _horizonSteps;

    const ResolvedModels *res[4];
    const double *coef[4];
    for (int k = 0; k < 4; ++k) {
        res[k] = &laneBank(cand.slots[size_t(k)]);
        coef[k] = _cBanks.data() +
                  size_t(cand.slots[size_t(k)]) * kernels::kBankRows * P;
    }
    const kernels::CandidateMaps maps{coef[0], coef[1], coef[2],
                                      coef[3], cand.s,  cand.fan};

    const double *t0 = _cPods.data();
    double *avg_t = _cSteps.data();
    double penalty = 0.0;
    if (!kernels::rolloutPenaltyN(pods8, horizon, maps, t0, t0 + P, t0 + 3 * P,
                                  w, pods > 0 ? 1.0 / pods : 0.0, floor,
                                  abandonAtScore, _cLaneSum.data(), avg_t,
                                  penalty)) {
        ++_stats.rolloutsAbandoned;
        return false;
    }
    if (pods == 0)
        std::fill(avg_t, avg_t + horizon, 20.0);

    if (w.humidity) {
        // Humidity: h' = alpha*h + beta, constant across the horizon
        // except the step-0 transition model.
        double hum[4];
        for (int k = 0; k < 2; ++k) {
            const auto &on = res[2 * k]->humW;
            const auto &off = res[2 * k + 1]->humW;
            const double fan = cand.fan;
            const double oa = state.outsideAbsHumidity;
            const double al_on = on[1] + on[4] * fan;
            const double al_off = off[1] + off[4] * fan;
            const double be_on = on[0] + (on[2] + on[5] * fan) * oa +
                                 on[3] * fan;
            const double be_off = off[0] + (off[2] + off[5] * fan) * oa +
                                  off[3] * fan;
            hum[2 * k] = al_off + (al_on - al_off) * cand.s;
            hum[2 * k + 1] = be_off + (be_on - be_off) * cand.s;
        }
        penalty = kernels::humidityPenalty(horizon, hum,
                                           state.coldAbsHumidity, avg_t, w,
                                           avg_t + horizon, penalty);
    }
    if (cand.acFull)
        penalty += double(horizon);
    out.penalty = penalty;
    out.energyKwh = cand.laneEnergyKwh;
    out.score = penalty + floor;
    return true;
}

bool
CoolingPredictor::scoreStrict(const PlannedCandidate &cand,
                              double switchTerm, double abandonAtScore,
                              Trajectory &traj, CandidateScore &out) const
{
    ++_stats.rollouts;
    const PredictorState &state = *_epochState;
    const EpochOutlook &outlook = *_epochOutlook;
    const UtilityConfig *cfg = _epochUtility;
    const PenaltyWeights *w = _epochWeights;
    const int pods = int(state.podTempC.size());
    const size_t P = size_t(kernels::paddedPods(pods));
    const double *t0 = _cPods.data();
    const double *ppf = t0 + 2 * P;
    double *t_off = _tOff.data();

    traj.steps.resize(size_t(_horizonSteps));

    // Variable-speed AC interpolates its compressor-on and -off models,
    // so it resolves four transition keys; every other candidate
    // resolves its first step's and its steady key.
    const bool blend = cand.slots[1] != cand.slots[0];
    const ResolvedModels &first_on = resolved(slotKey(cand.slots[0]));
    const ResolvedModels &rest_on = resolved(slotKey(cand.slots[2]));
    const ResolvedModels &first_off =
        blend ? resolved(slotKey(cand.slots[1])) : first_on;
    const ResolvedModels &rest_off =
        blend ? resolved(slotKey(cand.slots[3])) : rest_on;
    // Evaporative candidates are driven by the pre-cooled intake.
    const bool evap = cand.cls == cooling::RegimeClass::FcEvap;

    // The penalty and energy add up in locals, so no store through the
    // out-parameters stalls the sums.  A negative energy weight would
    // make the partial energy term an upper bound on the final one,
    // breaking the lower-bound argument, so it never abandons then.
    double pen = 0.0;
    double energy = 0.0;
    const bool can_prune =
        cfg && (!cfg->energyAware || cfg->energyWeightPerKwh >= 0.0);
    double abs_h = state.coldAbsHumidity;
    double fan_prev = state.fanSpeedPrev;

    for (int step = 0; step < _horizonSteps; ++step) {
        const bool first = step == 0;
        PredictedStep &out_step = traj.steps[size_t(step)];
        out_step.podTempC.resize(size_t(pods));

        // The rollout's state: the last prediction and the one before
        // (the state's temperatures until there are two).
        const double *T =
            first ? t0 : traj.steps[size_t(step - 1)].podTempC.data();
        const double *Tp = step > 1
                               ? traj.steps[size_t(step - 2)].podTempC.data()
                               : (first ? t0 + P : t0);
        const double out_c = evap ? outlook.evapOutletC
                                  : outlook.outsideC[size_t(step)];
        const double out_prev =
            evap ? outlook.evapOutletC
                 : (first ? outlook.outsidePrevC
                          : outlook.outsideC[size_t(step - 1)]);
        const ResolvedModels &on = first ? first_on : rest_on;
        const ResolvedModels &off = first ? first_off : rest_off;
        double *dst = out_step.podTempC.data();
        bankTemps(size_t(pods), on.temp.size(), on.tempW.data(), T, Tp, ppf,
                  out_c, out_prev, cand.fan, fan_prev, state.dcUtilization,
                  dst);
        if (blend)
            bankTemps(size_t(pods), off.temp.size(), off.tempW.data(), T, Tp,
                      ppf, out_c, out_prev, cand.fan, fan_prev,
                      state.dcUtilization, t_off);
        for (size_t p = 0; p < size_t(pods); ++p) {
            // A null model is persistence, T' = T, as in predictTempWith.
            if (!on.temp[p])
                dst[p] = T[p];
            if (blend) {
                const double t_lo = off.temp[p] ? t_off[p] : T[p];
                dst[p] = t_lo + (dst[p] - t_lo) * cand.s;
            }
        }

        model::HumidityInputs hin;
        hin.insideAbs = abs_h;
        hin.outsideAbs = state.outsideAbsHumidity;
        hin.fanSpeed = cand.fan;
        double next_abs =
            model::CoolingModel::predictHumidityWith(on.humidity, hin);
        if (blend) {
            const double h_off =
                model::CoolingModel::predictHumidityWith(off.humidity, hin);
            next_abs = h_off + (next_abs - h_off) * cand.s;
        }

        // Relative humidity at the (predicted) cold-aisle temperature.
        double avg_t = 0.0;
        for (double t : out_step.podTempC)
            avg_t += t;
        avg_t = pods > 0 ? avg_t / pods : 20.0;
        out_step.rhPercent = physics::relativeHumidity(avg_t, next_abs);

        energy += cand.stepKwh;

        if (w) {
            for (int pod : *_epochActive) {
                // A term that does not fire is +0.0 and would leave the
                // sum as it is; skipping it keeps the chain of adds short.
                const PodTerms p = podTerms(*w, dst[pod], T[pod]);
                for (double term : {p.maxTemp, p.band, p.rate})
                    if (term != 0.0)
                        pen += term;
            }
            if (w->humidity)
                pen += humidityTerm(*w, out_step.rhPercent);
            if (cand.acFull)
                pen += 1.0;

            if (can_prune) {
                // Lower bound on the final score, in the score's own
                // association.  All remaining increments are
                // non-negative and FP accumulation of non-negative terms
                // is monotone, so reaching the threshold here proves the
                // full score would too.
                double bound = pen;
                if (cfg->energyAware)
                    bound += cfg->energyWeightPerKwh * energy;
                bound += switchTerm;
                if (bound >= abandonAtScore) {
                    ++_stats.rolloutsAbandoned;
                    return false;
                }
            }
        }

        abs_h = next_abs;
        fan_prev = cand.fan;
    }

    if (w) {
        const double *last = traj.steps.back().podTempC.data();
        for (int pod : *_epochActive)
            pen += centeringTerm(*w, last[pod]);
    }
    out.penalty = pen;
    out.energyKwh = energy;
    out.score = pen;
    if (cfg && cfg->energyAware)
        out.score += cfg->energyWeightPerKwh * energy;
    out.score += switchTerm;
    return true;
}

} // namespace core
} // namespace coolair
