/**
 * @file
 * Fast-math TU of the batched plant: flat-array math kernels plus the
 * lockstep physics step of BatchedPlant.
 *
 * Built with COOLAIR_KERNEL_OPTIONS (-O3 -ffast-math, optionally
 * -march=native) so the lane-inner loops vectorize and exp/log/sin/cos
 * go through libmvec.  Only pure array arithmetic lives here — no
 * util::Rng, no scalar-plant code — so the fast-math flags cannot leak
 * into functions the strict scalar path also instantiates.
 *
 * Three idioms keep the vectorizer engaged (verify with
 * -DCOOLAIR_VEC_REPORT=ON):
 *
 *  - the hot loops live in standalone noinline functions whose
 *    parameters are raw __restrict pointers — GCC 12 reliably
 *    vectorizes that shape, but not the same loop inlined into a
 *    member function that also stores through this-reachable state;
 *  - every std::vector is lowered to .data() before the call, so no
 *    control-block access appears inside a loop;
 *  - sin and cos of the same angle run in *separate* loops, because a
 *    fused sincos() call has no libmvec vector variant.
 *
 * Every equation transliterates plant/parasol.cpp; keep the two in sync
 * (the oracle tests in tests/test_batch_engine.cpp bound the drift).
 */

#include "plant/parasol_kernels.hpp"

#include <algorithm>
#include <cmath>

#include "plant/parasol_batch.hpp"

namespace coolair {
namespace plant {

namespace kernels {

void
expN(const double *x, double *out, int n)
{
    for (int i = 0; i < n; ++i)
        out[i] = std::exp(x[i]);
}

void
boxMullerN(double *u1, double *u2, double *zc, double *zs, int npairs)
{
    constexpr double kTwoPi = 2.0 * M_PI;
    // Pass 1: magnitude and angle in place (log vectorizes).
    for (int k = 0; k < npairs; ++k) {
        u1[k] = std::sqrt(-2.0 * std::log(u1[k]));
        u2[k] = kTwoPi * u2[k];
    }
    // Passes 2/3: separate loops so cos and sin each hit libmvec.
    for (int k = 0; k < npairs; ++k)
        zc[k] = u1[k] * std::cos(u2[k]);
    for (int k = 0; k < npairs; ++k)
        zs[k] = u1[k] * std::sin(u2[k]);
}

} // namespace kernels

namespace {

// noinline: keeps the __restrict parameter contracts (and with them the
// vectorizer) intact instead of dissolving into the caller.
#define COOLAIR_KERNEL __attribute__((noinline)) static void

/** The pods x lanes inlet-node balance: per-node mixed-flow target and
    relaxation exponent, plus lane sums of old pod temps and awake
    counts. */
COOLAIR_KERNEL
podNodesKernel(int pods, int L, const double *__restrict qfc,
               const double *__restrict qac,
               const double *__restrict recirc_total,
               const double *__restrict local_sup,
               const double *__restrict ac_supply,
               const double *__restrict hot_aisle,
               const double *__restrict out_temp,
               const double *__restrict mass_t,
               const double *__restrict intake_c,
               const int *__restrict pod_awake,
               const double *__restrict pod_power,
               const double *__restrict pod_t,
               const double *__restrict pod_recirc_w, double rwsum,
               double srv_airflow, double spp, double local_frac,
               double inv_pods, double q_wall_i, double k_mass_i,
               double pod_vol, double rho_cp, double dt_s,
               double *__restrict target, double *__restrict exp_arg,
               double *__restrict pod_t_sum,
               double *__restrict awake_sum)
{
    for (int i = 0; i < pods; ++i) {
        const double recirc_frac = pod_recirc_w[i] / rwsum;
        const double pod_recirc = pod_recirc_w[i];
        const size_t row = size_t(i) * size_t(L);
        for (int l = 0; l < L; ++l) {
            const size_t idx = row + size_t(l);
            double q_fc_i = qfc[l] * inv_pods;
            double q_ac_i = qac[l] * inv_pods;
            double q_rec_i = recirc_total[l] * recirc_frac;

            double awake = double(pod_awake[idx]);
            double q_srv_i = srv_airflow * (awake + 0.2 * (spp - awake));
            q_srv_i = std::max(q_srv_i, 0.002);
            double exhaust_dT = pod_power[idx] / (rho_cp * q_srv_i);
            exhaust_dT = std::min(exhaust_dT, 30.0);
            double q_loc_i =
                local_frac * q_srv_i * pod_recirc * local_sup[l];
            double exhaust_c = pod_t[idx] + exhaust_dT;

            double g = q_fc_i + q_ac_i + q_rec_i + q_loc_i + q_wall_i +
                       k_mass_i;
            double tgt = (q_fc_i * intake_c[l] + q_ac_i * ac_supply[l] +
                          q_rec_i * hot_aisle[l] + q_loc_i * exhaust_c +
                          q_wall_i * out_temp[l] + k_mass_i * mass_t[l]) /
                         std::max(g, 1e-12);

            target[idx] = tgt;
            exp_arg[idx] = -g * dt_s / pod_vol;
            pod_t_sum[l] += pod_t[idx];
            awake_sum[l] += awake;
        }
    }
}

/** Per-lane hot-aisle and humidity targets with relaxation exponents
    (scalar stepHotAisle + stepHumidity), branch-free. */
COOLAIR_KERNEL
hotHumidityKernel(int L, const double *__restrict awake_sum,
                  const double *__restrict cold_avg,
                  const double *__restrict out_temp,
                  const double *__restrict out_abs,
                  const double *__restrict mass_t,
                  const double *__restrict it_power,
                  const double *__restrict qfc,
                  const double *__restrict qac,
                  const double *__restrict ucomp,
                  const double *__restrict intake_abs,
                  const double *__restrict cold_abs, double srv_airflow,
                  double total_servers, double q_wall_hot,
                  double k_mass_hot, double rho_cp, double hot_vol,
                  double hum_vol, double leak, double coil_abs,
                  double dt_s, double *__restrict hot_target,
                  double *__restrict hot_exp_arg,
                  double *__restrict hum_target,
                  double *__restrict hum_exp_arg)
{
    for (int l = 0; l < L; ++l) {
        double awake_total = awake_sum[l];
        double q_srv = srv_airflow *
                       (awake_total + 0.2 * (total_servers - awake_total));
        q_srv = std::max(q_srv, 0.01);
        double g_hot = q_srv + q_wall_hot + k_mass_hot;
        double heat_rise = it_power[l] / (rho_cp * g_hot);
        heat_rise = std::min(heat_rise, 45.0);
        hot_target[l] = (q_srv * cold_avg[l] + q_wall_hot * out_temp[l] +
                         k_mass_hot * mass_t[l]) /
                            g_hot +
                        heat_rise;
        hot_exp_arg[l] = -g_hot * dt_s / hot_vol;

        double q_fc = qfc[l];
        double comp = ucomp[l];
        bool dehum = comp > 0.0 && cold_abs[l] > coil_abs;
        double dehum_g = dehum ? qac[l] * comp : 0.0;
        double g = q_fc + leak + dehum_g;
        double tgt = g > 0.0 ? (q_fc * intake_abs[l] + leak * out_abs[l] +
                                dehum_g * coil_abs) /
                                   std::max(g, 1e-30)
                             : cold_abs[l];
        hum_target[l] = tgt;
        hum_exp_arg[l] = g > 0.0 ? -g * dt_s / hum_vol : 0.0;
    }
}

/** Relax x toward target with per-element decay factors. */
COOLAIR_KERNEL
relaxKernel(size_t n, const double *__restrict target,
            const double *__restrict decay, const double *__restrict x,
            double *__restrict out)
{
    for (size_t i = 0; i < n; ++i) {
        double t = target[i];
        out[i] = t + (x[i] - t) * decay[i];
    }
}

/** Per-lane hot/mass/humidity state update after the exp pass. */
COOLAIR_KERNEL
applyLanesKernel(int L, const double *__restrict hot_target,
                 const double *__restrict hot_decay,
                 const double *__restrict hum_target,
                 const double *__restrict hum_decay,
                 const double *__restrict cold_avg, double mass_alpha,
                 double *__restrict hot_aisle, double *__restrict mass_t,
                 double *__restrict cold_abs)
{
    for (int l = 0; l < L; ++l) {
        double ht = hot_target[l];
        double hot = ht + (hot_aisle[l] - ht) * hot_decay[l];
        hot_aisle[l] = hot;

        double air_avg = 0.5 * (cold_avg[l] + hot);
        mass_t[l] = air_avg + (mass_t[l] - air_avg) * mass_alpha;

        double hu = hum_target[l];
        cold_abs[l] = hu + (cold_abs[l] - hu) * hum_decay[l];
    }
}

/** Disk temperatures against the NEW pod temperatures. */
COOLAIR_KERNEL
diskKernel(size_t n, const double *__restrict pod_t,
           const int *__restrict pod_awake,
           const double *__restrict pod_util, double off_idle,
           double off_span, double disk_alpha,
           double *__restrict disk_t)
{
    for (size_t idx = 0; idx < n; ++idx) {
        double offset = pod_awake[idx] > 0
                            ? off_idle + off_span * pod_util[idx]
                            : 1.0;
        double tgt = pod_t[idx] + offset;
        disk_t[idx] = tgt + (disk_t[idx] - tgt) * disk_alpha;
    }
}

#undef COOLAIR_KERNEL

} // namespace

void
BatchedPlant::stepPhysics(double dt_s,
                          const environment::WeatherSample *outside,
                          const PodLoad *loads)
{
    (void)loads;  // disk inputs pre-gathered into _podUtil/_podAwake
    const int L = _lanes;
    const int pods = _pods;
    const double rho_cp =
        physics::kAirDensity * physics::kAirSpecificHeat;
    const double wall_flow = _config.wallUaWPerK / rho_cp;
    const double mass_flow = _config.massCouplingWPerK / rho_cp;

    double *exp_arg = _expArg.data();
    double *suppress = _suppress.data();

    // De-interleave the per-lane weather the lane loops consume.
    for (int l = 0; l < L; ++l) {
        _outTempC[size_t(l)] = outside[l].tempC;
        _outAbsHumidity[size_t(l)] = outside[l].absHumidity;
    }

    // --- Recirculation suppression: one exp pass over the lanes -------
    // Both exp passes run over whole vectors (kernels::paddedLength)
    // with zero padded arguments.  This pass's padding overlaps last
    // step's pod arguments, so it is zeroed here; the second pass's
    // padding lies past every argument and stays zero from construction.
    const double max_fc = std::max(_config.maxFcAirflow, 1e-9);
    const int n_sup = kernels::paddedLength(L);
    for (int l = 0; l < L; ++l)
        exp_arg[l] =
            -6.0 * (_qFc[size_t(l)] + _qAc[size_t(l)]) / max_fc;
    std::fill(exp_arg + L, exp_arg + n_sup, 0.0);
    kernels::expN(exp_arg, suppress, n_sup);

    const double ac_cap = _config.acCapacityW;
    const double ac_floor = _config.acSupplyFloorC;
    for (int l = 0; l < L; ++l) {
        double sup = suppress[l];
        _recircTotal[size_t(l)] =
            _config.recircFlowOpen +
            (_config.recircFlowClosed - _config.recircFlowOpen) * sup;
        _localSup[size_t(l)] = _config.localRecircFloor +
                               (1.0 - _config.localRecircFloor) * sup;
        // AC supply: hot-aisle intake cooled by the compressor;
        // fan-only operation circulates hot-aisle air unchanged.
        double hot = _hotAisleC[size_t(l)];
        double q_ac = _qAc[size_t(l)];
        double comp = _uComp[size_t(l)];
        double dT = ac_cap * comp / (rho_cp * std::max(q_ac, 1e-30));
        double cooled = std::max(hot - dT, ac_floor);
        _acSupply[size_t(l)] = (comp > 0.0 && q_ac > 0.0) ? cooled : hot;
        _podTempSum[size_t(l)] = 0.0;
        _awakeSum[size_t(l)] = 0.0;
    }

    double recirc_weight_sum = 0.0;
    for (int i = 0; i < pods; ++i)
        recirc_weight_sum += _config.podRecirc[size_t(i)];

    // --- Pod inlet nodes --------------------------------------------
    const double inv_pods = 1.0 / double(pods);
    podNodesKernel(pods, L, _qFc.data(), _qAc.data(),
                   _recircTotal.data(), _localSup.data(),
                   _acSupply.data(), _hotAisleC.data(), _outTempC.data(),
                   _massTempC.data(), _intakeC.data(), _podAwake.data(),
                   _podPowerW.data(), _podTempC.data(),
                   _config.podRecirc.data(), recirc_weight_sum,
                   _config.serverAirflow, double(_config.serversPerPod),
                   _config.localRecircFraction, inv_pods,
                   wall_flow * 0.5 * inv_pods, mass_flow * 0.5 * inv_pods,
                   _config.podEffectiveVolume, rho_cp, dt_s,
                   _target.data(), exp_arg, _podTempSum.data(),
                   _awakeSum.data());
    for (int l = 0; l < L; ++l)
        _coldAvg[size_t(l)] = _podTempSum[size_t(l)] * inv_pods;

    // --- Hot aisle + humidity per-lane targets ------------------------
    const size_t hot_base = size_t(pods) * size_t(L);
    const size_t hum_base = hot_base + size_t(L);
    hotHumidityKernel(
        L, _awakeSum.data(), _coldAvg.data(), _outTempC.data(),
        _outAbsHumidity.data(), _massTempC.data(), _itPowerW.data(),
        _qFc.data(), _qAc.data(), _uComp.data(), _intakeAbs.data(),
        _coldAbsHumidity.data(), _config.serverAirflow,
        double(_config.totalServers()), wall_flow * 0.5, mass_flow * 0.5,
        rho_cp, _config.hotAisleEffectiveVolume, _config.humidityVolume,
        _config.leakageFlow, _acCoilAbsHumidity, dt_s,
        _hotTarget.data(), exp_arg + hot_base, _humTarget.data(),
        exp_arg + hum_base);

    // --- One exp pass for every relaxation of this step ---------------
    const int n_exp = kernels::paddedLength(pods * L + 2 * L);
    kernels::expN(exp_arg, _expVal.data(), n_exp);
    const double *exp_val = _expVal.data();

    // Apply pod relaxations into the scratch buffer, then swap.
    const size_t n_pod = size_t(pods) * size_t(L);
    relaxKernel(n_pod, _target.data(), exp_val, _podTempC.data(),
                _podTempScratchC.data());
    std::swap(_podTempC, _podTempScratchC);

    applyLanesKernel(L, _hotTarget.data(), exp_val + hot_base,
                     _humTarget.data(), exp_val + hum_base,
                     _coldAvg.data(), _massAlpha, _hotAisleC.data(),
                     _massTempC.data(), _coldAbsHumidity.data());

    // --- Disks: pods x lanes against the NEW pod temperatures ---------
    diskKernel(n_pod, _podTempC.data(), _podAwake.data(),
               _podUtil.data(), _config.diskOffsetIdleC,
               _config.diskOffsetBusySpanC, _diskAlpha,
               _diskTempC.data());
}

} // namespace plant
} // namespace coolair
