#include "core/predictor.hpp"

#include <algorithm>
#include <cmath>

#include "core/predictor_kernels.hpp"
#include "physics/psychrometrics.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace coolair {
namespace core {

PredictorState
PredictorState::fromSensors(const plant::SensorReadings &sensors,
                            const std::vector<double> &prev_temp,
                            double prev_fan, double prev_outside,
                            const cooling::Regime &current,
                            const plant::PodLoad *load)
{
    PredictorState st;
    st.fill(sensors, prev_temp, prev_fan, prev_outside, current, load);
    return st;
}

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
    Trajectory traj;
    predictInto(state, candidate, outlook, traj);
    return traj;
}

void
CoolingPredictor::predictInto(const PredictorState &state,
                              const cooling::Regime &candidate,
                              const EpochOutlook &outlook,
                              Trajectory &traj) const
{
    ScoreContext none;  // utility == nullptr: roll out without scoring
    double penalty = 0.0;
    (void)predictScoredInto(state, candidate, outlook, none, traj, penalty);
}

void
CoolingPredictor::scoreCandidates(const PredictorState &state,
                                  const cooling::RegimeMenu &menu,
                                  const EpochOutlook &outlook,
                                  const std::vector<int> &activePods,
                                  const TemperatureBand &band,
                                  const UtilityConfig &cfg,
                                  const std::vector<double> &switch_terms,
                                  std::vector<CandidateScore> &out) const
{
    using cooling::RegimeClass;
    using kernels::kBankRows;

    const int pods = int(state.podTempC.size());
    const int cands = int(menu.candidates.size());
    const int horizon = _horizonSteps;
    if (pods > _model->config().numPods)
        util::panic("CoolingPredictor: pod out of range");
    if (int(outlook.outsideC.size()) < horizon)
        util::panic("CoolingPredictor: outlook shorter than the horizon");
    if (int(switch_terms.size()) != cands)
        util::panic("scoreCandidates: switch_terms arity mismatch");
    for (int pod : activePods)
        if (pod < 0 || pod >= pods)
            util::panic("scoreCandidates: pod index out of range");
    _stats.rollouts += cands;

    // Bank slots: the first step's map into each class (current class
    // -> class), each class's steady map, and interpolated AC's
    // compressor-off steady map (AcCompressor -> AcFanOnly).
    constexpr int kCls = cooling::kNumRegimeClasses;
    constexpr int kOffRest = 2 * kCls;
    const int pods8 = kernels::paddedPods(pods);
    const size_t P = size_t(pods8);
    const size_t C = size_t(cands);
    if (_cCand.size() != 6 * C || _cPods.size() != 4 * P) {
        _cBanks.resize(size_t(kOffRest + 1) * kBankRows * P);
        _cPods.resize(4 * P);
        _cLaneSum.resize(size_t(horizon) * kernels::kPodBlock);
        _cAvgT.resize(size_t(horizon) * C);
        _cCand.resize(6 * C);
    }
    out.resize(C);

    // Padded pod inputs; the padding stays zero (mask included).
    double *t0 = _cPods.data();
    double *tprev0 = t0 + P;
    double *pf = t0 + 2 * P;
    double *mask = t0 + 3 * P;
    std::fill(_cPods.begin(), _cPods.end(), 0.0);
    for (int p = 0; p < pods; ++p) {
        t0[p] = state.podTempC[size_t(p)];
        tprev0[p] = state.podTempPrevC[size_t(p)];
        pf[p] = p < int(state.podPowerFraction.size())
                    ? state.podPowerFraction[size_t(p)]
                    : 0.5;
    }
    for (int pod : activePods)
        mask[pod] = 1.0;

    // --- Collapse each transition bank the menu uses once per epoch:
    // the outlook holds every non-state feature constant, so a bank
    // reduces to per-pod affine terms `T' = a*T + b*Tprev + c` in which
    // only the candidate's fan varies (kernels::collapseBankN).
    const RegimeClass cur_cls = cooling::classify(state.currentRegime);
    std::array<const ResolvedModels *, kOffRest + 1> banks{};
    auto bank = [&](int slot) -> const ResolvedModels & {
        const ResolvedModels *&res = banks[size_t(slot)];
        if (res)
            return *res;
        const bool first = slot < kCls;
        const RegimeClass to = slot == kOffRest ? RegimeClass::AcFanOnly
                                                : RegimeClass(slot % kCls);
        const RegimeClass from = first ? cur_cls
                                 : slot == kOffRest
                                     ? RegimeClass::AcCompressor
                                     : to;
        res = &resolved({from, to});
        // Evaporative candidates are driven by the pre-cooled intake.
        const bool evap = to == RegimeClass::FcEvap;
        const double out_c = evap ? outlook.evapOutletC : outlook.outsideC[0];
        const double out_prev =
            first && !evap ? outlook.outsidePrevC : out_c;
        kernels::collapseBankN(
            pods, int(res->temp.size()), res->tempW.data(), out_c, out_prev,
            first ? state.fanSpeedPrev : 0.0, first ? 0.0 : 1.0,
            state.dcUtilization, pf, pods8,
            _cBanks.data() + size_t(slot) * kBankRows * P);
        return *res;
    };
    auto coef = [&](int slot) {
        return _cBanks.data() + size_t(slot) * kBankRows * P;
    };

    const double step_h = _model->config().stepS / 3600.0;
    kernels::TempPenalty tw;
    tw.wMaxTemp = cfg.penalizeMaxTemp ? 2.0 : 0.0;  // one unit per 0.5 C
    tw.maxTempC = cfg.maxTempC;
    tw.wBand = cfg.penalizeBand ? 2.0 : 0.0;
    tw.bandLowC = band.lowC;
    tw.bandHighC = band.highC;
    tw.wRate = cfg.penalizeRate ? 1.0 : 0.0;
    tw.invStepH = 1.0 / std::max(step_h, 1e-9);
    tw.stepH = step_h;
    tw.maxRateCPerHour = cfg.maxRateCPerHour;
    tw.wCenter = cfg.penalizeBand && cfg.centeringWeightPerC > 0.0
                     ? cfg.centeringWeightPerC
                     : 0.0;
    tw.centerC = band.center();
    const double inv_pods = pods > 0 ? 1.0 / pods : 0.0;

    // Per-candidate rows: temperature penalty, the humidity maps
    // (step-0 alpha and beta, steady alpha and beta), humidity scratch.
    double *pen = _cCand.data();
    double *hum = pen + C;
    double *h = pen + 5 * C;

    // --- One fused pass per candidate: rollout and temperature penalty
    // in registers, writing only the per-step pod averages RH needs.
    for (int c = 0; c < cands; ++c) {
        const cooling::Regime &candidate = menu.candidates[size_t(c)];
        const RegimeClass cls = cooling::classify(candidate);
        // Variable-speed AC blends the compressor-on and -off maps by
        // compressor speed; its fan is zero like every AC candidate's.
        const bool ac_interp =
            candidate.mode == cooling::Mode::AirConditioning &&
            candidate.compressorOn &&
            candidate.compressorSpeed < 1.0 - 1e-9;
        const int first_on = int(cls);
        const int rest_on = kCls + int(cls);
        const int first_off =
            ac_interp ? int(RegimeClass::AcFanOnly) : first_on;
        const int rest_off = ac_interp ? kOffRest : rest_on;

        kernels::CandidateMaps maps;
        maps.s = ac_interp ? util::clamp(candidate.compressorSpeed, 0.0, 1.0)
                           : 0.0;
        maps.fan = candidate.mode == cooling::Mode::FreeCooling
                       ? candidate.fanSpeed
                       : 0.0;
        const ResolvedModels *res[] = {&bank(first_on), &bank(first_off),
                                       &bank(rest_on), &bank(rest_off)};
        maps.firstOn = coef(first_on);
        maps.firstOff = coef(first_off);
        maps.restOn = coef(rest_on);
        maps.restOff = coef(rest_off);

        double *avg_t = _cAvgT.data() + c;
        pen[c] = kernels::rolloutPenaltyN(pods8, horizon, maps, t0, tprev0,
                                          mask, tw, inv_pods,
                                          _cLaneSum.data(), avg_t, cands);
        if (pods == 0)
            for (int step = 0; step < horizon; ++step)
                avg_t[size_t(step) * C] = 20.0;

        // Humidity: h' = alpha*h + beta, constant across the horizon
        // except the step-0 transition model.
        for (int k = 0; k < 2; ++k) {
            const auto &on = res[2 * k]->humW;
            const auto &off = res[2 * k + 1]->humW;
            const double fan = maps.fan;
            const double oa = state.outsideAbsHumidity;
            const double al_on = on[1] + on[4] * fan;
            const double al_off = off[1] + off[4] * fan;
            const double be_on = on[0] + (on[2] + on[5] * fan) * oa +
                                 on[3] * fan;
            const double be_off = off[0] + (off[2] + off[5] * fan) * oa +
                                  off[3] * fan;
            hum[size_t(2 * k) * C + size_t(c)] =
                al_off + (al_on - al_off) * maps.s;
            hum[size_t(2 * k + 1) * C + size_t(c)] =
                be_off + (be_on - be_off) * maps.s;
        }
        out[size_t(c)].energyKwh = _model->predictCoolingPower(candidate) *
                                   step_h / 1000.0 * double(horizon);
    }

    // --- Humidity terms in one pass over candidates x steps, then the
    // AC-full, energy and switch terms per candidate.
    if (cfg.penalizeHumidity)
        kernels::humidityPenaltyN(cands, horizon, hum, state.coldAbsHumidity,
                                  _cAvgT.data(), cfg.humidityMaxPercent,
                                  cfg.humidityMinPercent, h, pen);
    for (int c = 0; c < cands; ++c) {
        const cooling::Regime &candidate = menu.candidates[size_t(c)];
        CandidateScore &cs = out[size_t(c)];
        cs.penalty = pen[c];
        const bool ac_full =
            cfg.penalizeAcFull &&
            candidate.mode == cooling::Mode::AirConditioning &&
            candidate.compressorOn &&
            candidate.compressorSpeed >= 1.0 - 1e-9;
        if (ac_full)
            cs.penalty += double(horizon);
        cs.score = cs.penalty;
        if (cfg.energyAware)
            cs.score += cfg.energyWeightPerKwh * cs.energyKwh;
        cs.score += switch_terms[size_t(c)];
    }
}

bool
CoolingPredictor::predictScoredInto(const PredictorState &state,
                                    const cooling::Regime &candidate,
                                    const EpochOutlook &outlook,
                                    const ScoreContext &score,
                                    Trajectory &traj, double &penalty) const
{
    using cooling::RegimeClass;
    using cooling::TransitionKey;

    ++_stats.rollouts;

    const int pods = int(state.podTempC.size());
    if (pods > _model->config().numPods)
        util::panic("CoolingPredictor: pod out of range");
    if (int(outlook.outsideC.size()) < _horizonSteps)
        util::panic("CoolingPredictor: outlook shorter than the horizon");

    const double step_h = _model->config().stepS / 3600.0;

    traj.coolingEnergyKwh = 0.0;
    traj.steps.resize(size_t(_horizonSteps));

    _temp.assign(state.podTempC.begin(), state.podTempC.end());
    _tempPrev.assign(state.podTempPrevC.begin(), state.podTempPrevC.end());
    double abs_h = state.coldAbsHumidity;
    double fan_prev = state.fanSpeedPrev;

    const double candidate_fan =
        candidate.mode == cooling::Mode::FreeCooling ? candidate.fanSpeed
                                                     : 0.0;
    // Evaporative candidates are driven by the pre-cooled intake.
    const bool evap = candidate.mode == cooling::Mode::FreeCooling &&
                      candidate.evaporative;

    // Only two transition keys appear in a rollout — (current ->
    // candidate) at step 0 and (candidate -> candidate) after — so the
    // per-pod model lookup + fallback chain runs twice per rollout
    // instead of per pod per step.  Variable-speed AC candidates
    // interpolate compressor-on and -off models, needing both sets.
    const RegimeClass cur_cls = cooling::classify(state.currentRegime);
    const RegimeClass cand_cls = cooling::classify(candidate);
    const bool ac_interp =
        candidate.mode == cooling::Mode::AirConditioning &&
        candidate.compressorOn && candidate.compressorSpeed < 1.0 - 1e-9;
    const double interp_s =
        util::clamp(candidate.compressorSpeed, 0.0, 1.0);

    const ResolvedModels *res_first = nullptr;
    const ResolvedModels *res_rest = nullptr;
    const ResolvedModels *res_first_off = nullptr;
    const ResolvedModels *res_rest_off = nullptr;
    if (ac_interp) {
        res_first = &resolved({cur_cls, RegimeClass::AcCompressor});
        res_rest = &resolved({cand_cls, RegimeClass::AcCompressor});
        res_first_off = &resolved({cur_cls, RegimeClass::AcFanOnly});
        res_rest_off = &resolved({cand_cls, RegimeClass::AcFanOnly});
    } else {
        res_first = &resolved({cur_cls, cand_cls});
        res_rest = &resolved({cand_cls, cand_cls});
    }

    // Cooling power depends only on the candidate, not the step.
    const double power_w = _model->predictCoolingPower(candidate);

    // Everything about the §3.2 penalty that doesn't vary per step.
    penalty = 0.0;
    const bool scoring = score.utility != nullptr;
    bool ac_full = false;
    bool can_prune = false;
    if (scoring) {
        const UtilityConfig &cfg = *score.utility;
        for (int pod : *score.activePods)
            if (pod < 0 || pod >= pods)
                util::panic("trajectoryPenalty: pod index out of range");
        ac_full = cfg.penalizeAcFull &&
                  candidate.mode == cooling::Mode::AirConditioning &&
                  candidate.compressorOn &&
                  candidate.compressorSpeed >= 1.0 - 1e-9;
        // A negative energy weight would make the partial energy term an
        // upper bound on the final one, breaking the lower-bound
        // argument — never abandon in that configuration.
        can_prune = !cfg.energyAware || cfg.energyWeightPerKwh >= 0.0;
    }

    for (int step = 0; step < _horizonSteps; ++step) {
        const bool first = step == 0;
        PredictedStep &out = traj.steps[size_t(step)];
        out.stepHours = step_h;
        out.podTempC.resize(size_t(pods));

        model::TempInputs tin;
        tin.outsideC = evap ? outlook.evapOutletC
                            : outlook.outsideC[size_t(step)];
        tin.outsidePrevC =
            evap ? outlook.evapOutletC
                 : (first ? outlook.outsidePrevC
                          : outlook.outsideC[size_t(step - 1)]);
        // Interpolated-AC rollouts query with fan speed forced to zero,
        // matching CoolingModel::predictTemp's in_ac construction (the
        // candidate fan is already zero for AC modes).
        tin.fanSpeed = ac_interp ? 0.0 : candidate_fan;
        tin.fanSpeedPrev = fan_prev;
        tin.dcUtilization = state.dcUtilization;

        const auto &m_on = (first ? res_first : res_rest)->temp;
        const auto &m_off =
            ac_interp ? (first ? res_first_off : res_rest_off)->temp
                      : (first ? res_first : res_rest)->temp;
        for (int p = 0; p < pods; ++p) {
            tin.insideC = _temp[size_t(p)];
            tin.insidePrevC = _tempPrev[size_t(p)];
            tin.podPowerFraction =
                p < int(state.podPowerFraction.size())
                    ? state.podPowerFraction[size_t(p)]
                    : 0.5;
            double predicted;
            if (ac_interp) {
                double t_on = model::CoolingModel::predictTempWith(
                    m_on[size_t(p)], tin);
                double t_off = model::CoolingModel::predictTempWith(
                    m_off[size_t(p)], tin);
                predicted = t_off + (t_on - t_off) * interp_s;
            } else {
                predicted = model::CoolingModel::predictTempWith(
                    m_on[size_t(p)], tin);
            }
            out.podTempC[size_t(p)] = predicted;
        }

        model::HumidityInputs hin;
        hin.insideAbs = abs_h;
        hin.outsideAbs = state.outsideAbsHumidity;
        hin.fanSpeed = ac_interp ? 0.0 : candidate_fan;
        double next_abs;
        if (ac_interp) {
            double h_on = model::CoolingModel::predictHumidityWith(
                (first ? res_first : res_rest)->humidity, hin);
            double h_off = model::CoolingModel::predictHumidityWith(
                (first ? res_first_off : res_rest_off)->humidity, hin);
            next_abs = h_off + (h_on - h_off) * interp_s;
        } else {
            next_abs = model::CoolingModel::predictHumidityWith(
                (first ? res_first : res_rest)->humidity, hin);
        }

        // Relative humidity at the (predicted) cold-aisle temperature.
        double avg_t = 0.0;
        for (double t : out.podTempC)
            avg_t += t;
        avg_t = pods > 0 ? avg_t / pods : 20.0;
        out.rhPercent = physics::relativeHumidity(avg_t, next_abs);

        traj.coolingEnergyKwh += power_w * step_h / 1000.0;

        if (scoring) {
            // Accumulate this step's penalty terms in exactly
            // trajectoryPenalty()'s order so surviving candidates score
            // bit-identically to the unfused path.
            const UtilityConfig &cfg = *score.utility;
            const std::vector<double> &prevT =
                first ? state.podTempC
                      : traj.steps[size_t(step - 1)].podTempC;
            for (int pod : *score.activePods) {
                double t = out.podTempC[size_t(pod)];

                if (cfg.penalizeMaxTemp && t > cfg.maxTempC)
                    penalty += (t - cfg.maxTempC) / 0.5;

                if (cfg.penalizeBand)
                    penalty += score.band->violation(t) / 0.5;

                if (cfg.penalizeRate && pod < int(prevT.size())) {
                    double rate = std::fabs(t - prevT[size_t(pod)]) /
                                  std::max(out.stepHours, 1e-9);
                    if (rate > cfg.maxRateCPerHour) {
                        penalty += (rate - cfg.maxRateCPerHour) *
                                   out.stepHours;
                    }
                }
            }
            if (cfg.penalizeHumidity) {
                if (out.rhPercent > cfg.humidityMaxPercent) {
                    penalty +=
                        (out.rhPercent - cfg.humidityMaxPercent) / 5.0;
                } else if (out.rhPercent < cfg.humidityMinPercent) {
                    penalty +=
                        (cfg.humidityMinPercent - out.rhPercent) / 5.0;
                }
            }
            if (ac_full)
                penalty += 1.0;

            if (can_prune) {
                // Lower bound on the final score, built in the
                // optimizer's exact operation order.  All remaining
                // increments are non-negative and FP accumulation of
                // non-negative terms is monotone, so reaching the
                // abandonment threshold here proves the full score
                // would too.
                double bound = penalty;
                if (cfg.energyAware)
                    bound +=
                        cfg.energyWeightPerKwh * traj.coolingEnergyKwh;
                bound += score.switchTerm;
                if (bound >= score.abandonAtScore) {
                    ++_stats.rolloutsAbandoned;
                    return false;
                }
            }
        }

        std::swap(_temp, _tempPrev);
        _temp.assign(out.podTempC.begin(), out.podTempC.end());
        abs_h = next_abs;
        fan_prev = candidate_fan;
    }

    if (scoring) {
        const UtilityConfig &cfg = *score.utility;
        if (cfg.penalizeBand && cfg.centeringWeightPerC > 0.0 &&
            !traj.steps.empty()) {
            const PredictedStep &last = traj.steps.back();
            double center = score.band->center();
            for (int pod : *score.activePods) {
                penalty += cfg.centeringWeightPerC *
                           std::fabs(last.podTempC[size_t(pod)] - center);
            }
        }
    }
    return true;
}

} // namespace core
} // namespace coolair
