#ifndef COOLAIR_PLANT_PARASOL_EQUATIONS_HPP
#define COOLAIR_PLANT_PARASOL_EQUATIONS_HPP

/**
 * @file
 * The Parasol plant's equations, written once over the lanes of a
 * PlantLanes state and compiled twice (DESIGN.md §10):
 *
 *  - plant/parasol.cpp builds them with the project's strict IEEE flags
 *    at one lane, as plant::Plant, the bit-exact oracle;
 *  - plant/parasol_kernels.cpp builds them with COOLAIR_KERNEL_OPTIONS
 *    (-O3 -ffast-math, optionally -march=native) at N lanes, as
 *    plant::BatchedPlant.
 *
 * Include this header from those two translation units only.  All of it
 * has internal linkage, so each TU keeps the code its own flags
 * produced; an external inline definition would let the linker hand
 * the strict plant the fast-math copy.  The including TU supplies a
 * Mode with what its instance does its own way:
 *
 *  - Mode::padded(n): the length a transcendental pass runs over.  The
 *    fast instance rounds up to whole vectors (the lane-set guarantee);
 *    the strict one runs exactly n, so one lane pays for no filler.
 *  - Mode::exp(x, out, n, memo): out[i] = exp(x[i]).  The strict
 *    instance keeps one ExpMemo per element, that is per exp call site
 *    of its single lane; the fast one runs a libmvec pass.
 *  - Mode::lanes(n): the lane count, a compile-time 1 for the strict
 *    instance so its loops over lanes fold away.
 *  - Mode::kSplitSinCos: run sin and cos of the Box-Muller angles in
 *    separate loops, so each vectorizes through libmvec (fused sincos()
 *    has no vector variant); the strict instance keeps them in one loop,
 *    where the compiler fuses each pair into one sincos() call.
 *
 * Branches on actuator and evaporative state stay in the O(lanes)
 * prologue; the O(pods x lanes) loops are branch-free.  The hot loops
 * are noinline functions over raw __restrict pointers (GCC 12 reliably
 * vectorizes that shape, but not the same loop inlined into a caller
 * that also stores through the state), and every std::vector is lowered
 * to .data() before the call.  Check the fast instance with
 * -DCOOLAIR_VEC_REPORT=ON.
 */

#include <algorithm>
#include <cmath>

#include "physics/psychrometrics.hpp"
#include "plant/parasol.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace coolair {
namespace plant {
namespace {

#define COOLAIR_KERNEL template <class Mode> __attribute__((noinline)) void

/** exp(x) through a one-entry memo (see ExpMemo). */
inline double
memoExp(ExpMemo &memo, double x)
{
    if (x != memo.arg) {
        memo.arg = x;
        memo.val = std::exp(x);
    }
    return memo.val;
}

/** The pods x lanes inlet-node balance: each node's mixed-flow target,
    total conductance and relaxation exponent, plus per-lane sums of the
    old pod temperatures and awake counts. */
COOLAIR_KERNEL
podNodesKernel(int pods, int lanes, const double *__restrict q_fc_pod,
               const double *__restrict q_ac_pod,
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
               double q_wall_i, double k_mass_i, double pod_vol,
               double rho_cp, double dt_s, double *__restrict target,
               double *__restrict conductance, double *__restrict exp_arg,
               double *__restrict pod_t_sum, double *__restrict awake_sum)
{
    const int L = Mode::lanes(lanes);
    for (int i = 0; i < pods; ++i) {
        const double pod_recirc = pod_recirc_w[i];
        const size_t row = size_t(i) * size_t(L);
        for (int l = 0; l < L; ++l) {
            const size_t idx = row + size_t(l);
            double q_fc_i = q_fc_pod[l];
            double q_ac_i = q_ac_pod[l];
            double q_rec_i = recirc_total[l] * pod_recirc / rwsum;

            // Pod-local recirculation: part of this pod's own exhaust
            // returns to its inlet.  The exhaust temperature rides a
            // load-dependent delta above the inlet; sleeping servers
            // still pass some leakage airflow.
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
            conductance[idx] = g;
            exp_arg[idx] = -g * dt_s / pod_vol;
            pod_t_sum[l] += pod_t[idx];
            awake_sum[l] += awake;
        }
    }
}

/** Per-lane hot-aisle and cold-aisle humidity targets with their
    relaxation exponents, branch-free. */
COOLAIR_KERNEL
hotHumidityKernel(int lanes, const double *__restrict awake_sum,
                  const double *__restrict cold_avg,
                  const double *__restrict out_temp,
                  const double *__restrict out_abs,
                  const double *__restrict mass_t,
                  const double *__restrict hot_aisle,
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
    const int L = Mode::lanes(lanes);
    for (int l = 0; l < L; ++l) {
        // Hot aisle: server exhaust plus envelope and mass exchange.
        double awake_total = awake_sum[l];
        double q_srv = srv_airflow *
                       (awake_total + 0.2 * (total_servers - awake_total));
        q_srv = std::max(q_srv, 0.01);
        double g_hot = q_srv + q_wall_hot + k_mass_hot;
        double heat_rise = it_power[l] / (rho_cp * g_hot);
        heat_rise = std::min(heat_rise, 45.0);  // physical cap (choked flow)
        double hot_tgt = (q_srv * cold_avg[l] + q_wall_hot * out_temp[l] +
                          k_mass_hot * mass_t[l]) /
                             g_hot +
                         heat_rise;
        const bool hot_frozen = g_hot <= 0.0 || hot_vol <= 0.0;
        hot_target[l] = hot_frozen ? hot_aisle[l] : hot_tgt;
        hot_exp_arg[l] = hot_frozen ? 0.0 : -g_hot * dt_s / hot_vol;

        // Humidity: outside-air exchange, and AC dehumidification when
        // the coil runs below the air's dew point (supply air leaves
        // saturated at the coil temperature).
        double q_fc = qfc[l];
        double comp = ucomp[l];
        bool dehum = comp > 0.0 && cold_abs[l] > coil_abs;
        double dehum_g = dehum ? qac[l] * comp : 0.0;
        double g = q_fc + leak + dehum_g;
        const bool hum_frozen = g <= 0.0 || hum_vol <= 0.0;
        double hum_tgt = (q_fc * intake_abs[l] + leak * out_abs[l] +
                          dehum_g * coil_abs) /
                         (hum_frozen ? 1.0 : g);
        hum_target[l] = hum_frozen ? cold_abs[l] : hum_tgt;
        hum_exp_arg[l] = hum_frozen ? 0.0 : -g * dt_s / hum_vol;
    }
}

/** Relax x toward target with per-element decay factors.  A node with
    no conductance or no volume keeps its value. */
COOLAIR_KERNEL
relaxKernel(size_t n, const double *__restrict target,
            const double *__restrict conductance, double volume,
            const double *__restrict decay, const double *__restrict x,
            double *__restrict out)
{
    for (size_t i = 0; i < n; ++i) {
        double t = target[i];
        const bool frozen = conductance[i] <= 0.0 || volume <= 0.0;
        out[i] = frozen ? x[i] : t + (x[i] - t) * decay[i];
    }
}

/** Per-lane hot-aisle, structural-mass and humidity updates after the
    exp pass; the mass relaxes toward the mean of the cold (old pod
    temperatures) and the new hot aisle. */
COOLAIR_KERNEL
applyLanesKernel(int lanes, const double *__restrict hot_target,
                 const double *__restrict hot_decay,
                 const double *__restrict hum_target,
                 const double *__restrict hum_decay,
                 const double *__restrict cold_avg, double mass_alpha,
                 double *__restrict hot_aisle, double *__restrict mass_t,
                 double *__restrict cold_abs)
{
    const int L = Mode::lanes(lanes);
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

/** Disk temperatures against the NEW pod temperatures: inlet plus a
    utilization-dependent offset; spun-down disks idle just above air
    temperature. */
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

/**
 * Box-Muller: for each pair k, with uniforms u1[k] in (0,1] and u2[k]
 * in [0,1), zc[k] = mag*cos(2*pi*u2[k]) and zs[k] = mag*sin(...) with
 * mag = sqrt(-2*log(u1[k])): the transform util::Rng::normal applies,
 * in its order (cos first, sin as the spare).  u1 and u2 are clobbered
 * (reused as magnitude and angle).
 */
COOLAIR_KERNEL
boxMullerKernel(int npairs, double *__restrict u1, double *__restrict u2,
                double *__restrict zc, double *__restrict zs)
{
    constexpr double kTwoPi = 2.0 * M_PI;
    for (int k = 0; k < npairs; ++k) {
        u1[k] = std::sqrt(-2.0 * std::log(u1[k]));
        u2[k] = kTwoPi * u2[k];
    }
    if constexpr (Mode::kSplitSinCos) {
        for (int k = 0; k < npairs; ++k)
            zc[k] = u1[k] * std::cos(u2[k]);
        for (int k = 0; k < npairs; ++k)
            zs[k] = u1[k] * std::sin(u2[k]);
    } else {
        for (int k = 0; k < npairs; ++k) {
            zc[k] = u1[k] * std::cos(u2[k]);
            zs[k] = u1[k] * std::sin(u2[k]);
        }
    }
}

/** out[i] = physics::magnusSvp(temp_c[i]). */
COOLAIR_KERNEL
saturationKernel(int n, const double *__restrict temp_c,
                 double *__restrict out)
{
    for (int i = 0; i < n; ++i)
        out[i] = physics::magnusSvp(temp_c[i]);
}

#undef COOLAIR_KERNEL

/** Start lane @p lane near equilibrium with @p outside. */
inline void
initializeSteadyStateLane(PlantLanes &s, int lane,
                          const environment::WeatherSample &outside,
                          double inside_offset_c)
{
    const PlantConfig &c = s.config;
    const size_t L = size_t(s.lanes);
    const size_t l = size_t(lane);
    for (int i = 0; i < s.pods; ++i) {
        double grade = c.podRecirc[size_t(i)] * 2.0;
        s.podTempC[size_t(i) * L + l] =
            outside.tempC + inside_offset_c + grade;
    }
    s.hotAisleC[l] = outside.tempC + inside_offset_c + 9.0;
    s.massTempC[l] = outside.tempC + inside_offset_c + 2.0;
    s.coldAbsHumidity[l] = outside.absHumidity;
    for (int i = 0; i < s.pods; ++i)
        s.diskTempC[size_t(i) * L + l] =
            s.podTempC[size_t(i) * L + l] + c.diskOffsetIdleC + 5.0;
    s.lastOutside[l] = outside;
}

/**
 * Advance every lane by @p dt_s.  @p outside, @p loads and @p commands
 * hold one entry per lane.  A zero entry in the optional @p loads_dirty
 * or @p commands_dirty mask (null = all dirty) promises that lane's
 * load or command is unchanged since the last step, which skips its IT
 * power recompute or actuator re-command; the state is the same either
 * way.
 */
template <class Mode>
void
stepLanes(PlantLanes &s, double dt_s,
          const environment::WeatherSample *outside, const PodLoad *loads,
          const cooling::Regime *commands, const unsigned char *loads_dirty,
          const unsigned char *commands_dirty)
{
    const PlantConfig &c = s.config;
    const int L = Mode::lanes(s.lanes);
    const int pods = s.pods;
    const double rho_cp = physics::kAirDensity * physics::kAirSpecificHeat;

    // --- Actuators and intake air (per lane, branchy) ------------------
    // Abrupt actuators snap to the command and then hold, so with a
    // clean command mask last step's gathered state still holds; smooth
    // actuators ramp every step.
    const bool settles = c.actuators.style == cooling::ActuatorStyle::Abrupt;
    for (int l = 0; l < L; ++l) {
        const bool cmd_dirty = !commands_dirty || commands_dirty[l];
        cooling::Actuators &act = s.act[size_t(l)];
        if (cmd_dirty)
            act.setCommand(commands[l]);
        if (cmd_dirty || !settles) {
            act.step(dt_s);
            const auto &unit = act.state();
            s.uComp[size_t(l)] = unit.compressorSpeed;
            s.evapOn[size_t(l)] = unit.evapOn ? 1 : 0;
            s.qFc[size_t(l)] = unit.damperOpen
                                   ? unit.fcFanSpeed * c.maxFcAirflow
                                   : 0.0;
            s.qAc[size_t(l)] = unit.acFanSpeed * c.acAirflow;
        }

        // The adiabatic pre-cooler, when installed and engaged, closes a
        // fraction of the dry-bulb-to-wet-bulb gap and moves the intake
        // along the (approximately constant) wet-bulb line.
        const environment::WeatherSample &o = outside[l];
        double intake_c = o.tempC;
        double intake_abs = o.absHumidity;
        if (c.hasEvaporativeCooler && s.evapOn[size_t(l)] != 0 &&
            s.qFc[size_t(l)] > 0.0) {
            double wb = physics::wetBulb(o.tempC, o.rhPercent);
            intake_c = o.tempC - c.evapEffectiveness * (o.tempC - wb);
            double sat_at_wb = physics::absoluteHumidity(wb, 100.0);
            intake_abs = o.absHumidity +
                         c.evapEffectiveness * (sat_at_wb - o.absHumidity);
            intake_abs = std::min(
                intake_abs, physics::absoluteHumidity(intake_c, 100.0));
        }
        s.intakeC[size_t(l)] = intake_c;
        s.intakeAbs[size_t(l)] = intake_abs;
    }

    // --- IT power (clean load masks keep last step's) ------------------
    // Between load changes every mask is clean, so look before walking
    // the pods.
    bool any_dirty = !loads_dirty;
    for (int l = 0; l < L && !any_dirty; ++l)
        any_dirty = loads_dirty[l] != 0;
    if (any_dirty) {
        for (int l = 0; l < L; ++l) {
            if (loads_dirty && !loads_dirty[l])
                continue;
            if (int(loads[l].activeServers.size()) != pods ||
                int(loads[l].utilization.size()) != pods)
                util::panic("Plant::step: PodLoad arity != numPods");
            s.itPowerW[size_t(l)] = 0.0;
            s.awakeCount[size_t(l)] = 0;
        }
        for (int i = 0; i < pods; ++i) {
            for (int l = 0; l < L; ++l) {
                if (loads_dirty && !loads_dirty[l])
                    continue;
                int act = std::clamp(loads[l].activeServers[size_t(i)], 0,
                                     c.serversPerPod);
                double util_i =
                    util::clamp(loads[l].utilization[size_t(i)], 0.0, 1.0);
                double pod_power =
                    double(act) *
                        (c.serverIdleW + c.serverBusySpanW * util_i) +
                    double(c.serversPerPod - act) * c.serverSleepW;
                const size_t idx = size_t(i) * size_t(L) + size_t(l);
                s.podPowerW[idx] = pod_power;
                s.podAwake[idx] = act;
                s.podUtil[idx] = util_i;
                s.itPowerW[size_t(l)] += pod_power;
                s.awakeCount[size_t(l)] += act;
            }
        }
        for (int l = 0; l < L; ++l)
            if (!loads_dirty || loads_dirty[l])
                s.dcUtilization[size_t(l)] =
                    double(s.awakeCount[size_t(l)]) /
                    double(c.totalServers());
    }

    // De-interleave the weather the lane loops consume.
    for (int l = 0; l < L; ++l) {
        s.outTempC[size_t(l)] = outside[l].tempC;
        s.outAbsHumidity[size_t(l)] = outside[l].absHumidity;
    }

    // --- Recirculation suppression: one exp pass over the lanes --------
    // Recirculation collapses under the wind-tunnel effect of forced
    // airflow and is strongest when the container is sealed.  Padded
    // arguments are zero; this pass's padding overlaps last step's pod
    // arguments, so it is zeroed here.
    double *exp_arg = s.expArg.data();
    const double max_fc = std::max(c.maxFcAirflow, 1e-9);
    const int n_sup = Mode::padded(L);
    for (int l = 0; l < L; ++l)
        exp_arg[l] =
            -6.0 * ((s.qFc[size_t(l)] + s.qAc[size_t(l)]) / max_fc);
    std::fill(exp_arg + L, exp_arg + n_sup, 0.0);
    Mode::exp(exp_arg, s.suppress.data(), n_sup, s.passExp.data());

    for (int l = 0; l < L; ++l) {
        const size_t li = size_t(l);
        double sup = s.suppress[li];
        s.recircTotal[li] =
            c.recircFlowOpen + (c.recircFlowClosed - c.recircFlowOpen) * sup;
        // Local (own-exhaust) recirculation survives forced airflow
        // better than the global hot-aisle path: the leak is right over
        // the rack.
        s.localSup[li] =
            c.localRecircFloor + (1.0 - c.localRecircFloor) * sup;
        // AC supply: hot-aisle intake cooled by the compressor; fan-only
        // operation circulates hot-aisle air unchanged.
        double hot = s.hotAisleC[li];
        double q_ac = s.qAc[li];
        double comp = s.uComp[li];
        double ac_supply = hot;
        if (comp > 0.0 && q_ac > 0.0) {
            double q_thermal = c.acCapacityW * comp;
            double dT = q_thermal / (rho_cp * q_ac);
            ac_supply = std::max(hot - dT, c.acSupplyFloorC);
        }
        s.acSupply[li] = ac_supply;
        // Free-cooling and AC flow split evenly over the pods.
        s.qFcPod[li] = s.qFc[li] / pods;
        s.qAcPod[li] = q_ac / pods;
        s.podTempSum[li] = 0.0;
        s.awakeSum[li] = 0.0;
    }

    // --- Pod inlet nodes -----------------------------------------------
    // Conductances are in m^3/s-equivalent units; half the envelope and
    // half the mass coupling act on the cold side, split over the pods.
    const double wall_flow = c.wallUaWPerK / rho_cp;
    const double mass_flow = c.massCouplingWPerK / rho_cp;
    podNodesKernel<Mode>(
        pods, L, s.qFcPod.data(), s.qAcPod.data(), s.recircTotal.data(),
        s.localSup.data(), s.acSupply.data(), s.hotAisleC.data(),
        s.outTempC.data(), s.massTempC.data(), s.intakeC.data(),
        s.podAwake.data(), s.podPowerW.data(), s.podTempC.data(),
        c.podRecirc.data(), s.recircWeightSum, c.serverAirflow,
        double(c.serversPerPod), c.localRecircFraction,
        wall_flow * 0.5 / pods, mass_flow * 0.5 / pods, c.podEffectiveVolume,
        rho_cp, dt_s, s.target.data(), s.conductance.data(), exp_arg,
        s.podTempSum.data(), s.awakeSum.data());
    for (int l = 0; l < L; ++l)
        s.coldAvg[size_t(l)] = s.podTempSum[size_t(l)] / pods;

    // --- Hot aisle + humidity per-lane targets -------------------------
    const size_t hot_base = size_t(pods) * size_t(L);
    const size_t hum_base = hot_base + size_t(L);
    hotHumidityKernel<Mode>(
        L, s.awakeSum.data(), s.coldAvg.data(), s.outTempC.data(),
        s.outAbsHumidity.data(), s.massTempC.data(), s.hotAisleC.data(),
        s.itPowerW.data(), s.qFc.data(), s.qAc.data(), s.uComp.data(),
        s.intakeAbs.data(), s.coldAbsHumidity.data(), c.serverAirflow,
        double(c.totalServers()), wall_flow * 0.5, mass_flow * 0.5, rho_cp,
        c.hotAisleEffectiveVolume, c.humidityVolume, c.leakageFlow,
        s.acCoilAbsHumidity, dt_s, s.hotTarget.data(), exp_arg + hot_base,
        s.humTarget.data(), exp_arg + hum_base);

    // --- One exp pass for every relaxation of this step ----------------
    // Its padding lies past every argument and stays zero.
    const int n_exp = Mode::padded(pods * L + 2 * L);
    Mode::exp(exp_arg, s.expVal.data(), n_exp, s.passExp.data() + L);
    const double *exp_val = s.expVal.data();

    const size_t n_pod = size_t(pods) * size_t(L);
    relaxKernel<Mode>(n_pod, s.target.data(), s.conductance.data(),
                      c.podEffectiveVolume, exp_val, s.podTempC.data(),
                      s.podTempScratchC.data());
    std::swap(s.podTempC, s.podTempScratchC);

    const double mass_alpha = memoExp(
        s.massExp, -c.massCouplingWPerK * dt_s / c.structuralMassJPerK);
    applyLanesKernel<Mode>(L, s.hotTarget.data(), exp_val + hot_base,
                           s.humTarget.data(), exp_val + hum_base,
                           s.coldAvg.data(), mass_alpha, s.hotAisleC.data(),
                           s.massTempC.data(), s.coldAbsHumidity.data());

    // --- Disks: pods x lanes against the NEW pod temperatures ----------
    const double disk_alpha = memoExp(s.diskExp, -dt_s / c.diskTauS);
    diskKernel<Mode>(n_pod, s.podTempC.data(), s.podAwake.data(),
                     s.podUtil.data(), c.diskOffsetIdleC,
                     c.diskOffsetBusySpanC, disk_alpha, s.diskTempC.data());

    for (int l = 0; l < L; ++l)
        s.lastOutside[size_t(l)] = outside[l];
    s.now += int64_t(dt_s);
}

/**
 * Noisy sensor observations for every lane into @p out (one entry per
 * lane).  Each lane draws its noise in util::Rng::normal's order and
 * transform: pods, cold-aisle RH, hot aisle, outside, outside RH.
 */
template <class Mode>
void
readSensorsLanes(PlantLanes &s, SensorReadings *out)
{
    const PlantConfig &c = s.config;
    const int L = Mode::lanes(s.lanes);
    const int pods = s.pods;
    const int n_draws = pods + 4;

    // Gather uniforms for the fresh Box-Muller pairs each lane needs,
    // in util::Rng::normal's draw order (rejection loop on u1).
    const int have = s.haveSpare ? 1 : 0;
    const int fresh = n_draws - have;
    const int npairs = (fresh + 1) / 2;
    const bool carry = (fresh % 2) == 1;

    const size_t n_pairs = size_t(npairs) * size_t(L);
    const int n_box = Mode::padded(int(n_pairs));
    s.u1.resize(size_t(n_box));
    s.u2.resize(size_t(n_box));
    s.zCos.resize(size_t(n_box));
    s.zSin.resize(size_t(n_box));
    s.draws.resize(size_t(n_draws) * size_t(L));

    for (int l = 0; l < L; ++l) {
        util::Rng &rng = s.rng[size_t(l)];
        for (int p = 0; p < npairs; ++p) {
            double u1;
            do {
                u1 = rng.uniform();
            } while (u1 <= 0.0);
            const size_t k = size_t(l) * size_t(npairs) + size_t(p);
            s.u1[k] = u1;
            s.u2[k] = rng.uniform();
        }
    }
    // Padding: u1 = 0.5 keeps the log finite.  Refilled every call,
    // since the kernel clobbers u1 and u2.
    std::fill(s.u1.begin() + ptrdiff_t(n_pairs), s.u1.end(), 0.5);
    std::fill(s.u2.begin() + ptrdiff_t(n_pairs), s.u2.end(), 0.0);
    boxMullerKernel<Mode>(n_box, s.u1.data(), s.u2.data(), s.zCos.data(),
                          s.zSin.data());

    // Distribute: the spare first, then cos and sin of each pair; an odd
    // fresh count leaves the last sin as the next call's spare.
    for (int l = 0; l < L; ++l) {
        double *dr = s.draws.data() + size_t(l) * size_t(n_draws);
        int idx = 0;
        if (s.haveSpare)
            dr[idx++] = s.spare[size_t(l)];
        const double *zc = s.zCos.data() + size_t(l) * size_t(npairs);
        const double *zs = s.zSin.data() + size_t(l) * size_t(npairs);
        for (int p = 0; p < npairs; ++p) {
            dr[idx++] = zc[p];
            if (idx < n_draws)
                dr[idx++] = zs[p];
            else
                s.newSpare[size_t(l)] = zs[p];
        }
    }
    if (carry)
        std::swap(s.spare, s.newSpare);
    s.haveSpare = carry;

    // Phase 1: everything but the humidity conversions.
    const double t_sd = c.sensorNoiseC;
    const double h_sd = c.humiditySensorNoisePercent;
    for (int l = 0; l < L; ++l) {
        const double *dr = s.draws.data() + size_t(l) * size_t(n_draws);
        SensorReadings &o = out[l];
        o.time = s.now;
        o.podInletC.resize(size_t(pods));
        o.podDiskC.resize(size_t(pods));
        double cold_sum = 0.0;
        for (int i = 0; i < pods; ++i) {
            const size_t idx = size_t(i) * size_t(L) + size_t(l);
            o.podInletC[size_t(i)] = s.podTempC[idx] + t_sd * dr[i];
            cold_sum += s.podTempC[idx];
            // Disk readings are digital: verbatim, no noise draw.
            o.podDiskC[size_t(i)] = s.diskTempC[idx];
        }
        s.coldAvg[size_t(l)] = cold_sum / double(pods);

        o.hotAisleC = s.hotAisleC[size_t(l)] + t_sd * dr[pods + 1];
        o.outsideC = s.lastOutside[size_t(l)].tempC + t_sd * dr[pods + 2];
        o.outsideRhPercent = util::clamp(
            s.lastOutside[size_t(l)].rhPercent + h_sd * dr[pods + 3], 0.0,
            100.0);
        s.outTempC[size_t(l)] = o.outsideC;

        const cooling::Actuators &act = s.act[size_t(l)];
        o.cooling = act.state();
        o.coolingPowerW = act.coolingPowerW();
        o.itPowerW = s.itPowerW[size_t(l)];
        o.dcUtilization = s.dcUtilization[size_t(l)];
    }

    // Phase 2: humidity conversions over saturation-pressure passes (the
    // padding of both inputs stays finite).
    const int n_svp = Mode::padded(L);
    saturationKernel<Mode>(n_svp, s.coldAvg.data(), s.svpCold.data());
    saturationKernel<Mode>(n_svp, s.outTempC.data(), s.svpOut.data());
    for (int l = 0; l < L; ++l) {
        const double *dr = s.draws.data() + size_t(l) * size_t(n_draws);
        SensorReadings &o = out[l];
        const double cold_avg = s.coldAvg[size_t(l)];
        const double svp = s.svpCold[size_t(l)];
        double rh = physics::relativeHumidityAt(
            cold_avg, s.coldAbsHumidity[size_t(l)], svp);
        o.coldAisleRhPercent = util::clamp(rh + h_sd * dr[pods], 0.0, 100.0);
        o.coldAisleAbsHumidity =
            physics::absoluteHumidityAt(cold_avg, o.coldAisleRhPercent, svp);
        o.outsideAbsHumidity = physics::absoluteHumidityAt(
            o.outsideC, o.outsideRhPercent, s.svpOut[size_t(l)]);
    }
}

} // namespace
} // namespace plant
} // namespace coolair

#endif // COOLAIR_PLANT_PARASOL_EQUATIONS_HPP
