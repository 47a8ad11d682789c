/**
 * @file
 * Golden bytes of the scalar oracle path.
 *
 * Each case runs one scalar experiment (plant::Plant under sim::Engine,
 * through the scenario layer) and compares its exact formatResult text
 * with text recorded once and committed below.  The parity tests in
 * test_scenario.cpp build both of their sides from the same Plant and
 * Engine, so they cannot see a change to either; these cases can.  Any
 * edit that moves a byte here changes what every scalar run, and every
 * model the learner trains on the scalar plant, produces.
 *
 * The bytes were recorded on x86-64 Debian 12 (GCC 12.2, glibc 2.36).
 * The scalar translation units build without -march, so only a libm
 * with different exp/log/sin/cos/atan rounding could move them.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "environment/location.hpp"
#include "multizone/multizone.hpp"
#include "plant/parasol.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "sim/spec_io.hpp"
#include "workload/trace_gen.hpp"

using namespace coolair;

namespace {

sim::ExperimentSpec
yearSpec(environment::NamedSite site, cooling::ActuatorStyle style,
         sim::SystemId system)
{
    sim::ExperimentSpec spec;
    spec.location = environment::namedLocation(site);
    spec.style = style;
    spec.system = system;
    spec.weeks = 2;
    return spec;
}

/** 64-bit FNV-1a, to pin long byte streams (the trace CSV) compactly. */
std::string
fnv1a(const std::string &bytes)
{
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)h);
    return buf;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** The system block of formatResult for a bare Summary. */
std::string
summaryText(const sim::Summary &s)
{
    sim::ExperimentResult r;
    r.system = s;
    const std::string text = sim::formatResult(r);
    return text.substr(0, text.find("outside."));
}

std::string
runText(const sim::ExperimentSpec &spec)
{
    return sim::formatResult(sim::runExperiment(spec));
}

// Every case's text, produced by the scalar path as it is now.  The
// names key the recorded texts in kGolden.
std::map<std::string, std::string>
actualTexts()
{
    using cooling::ActuatorStyle;
    using environment::NamedSite;
    using sim::SystemId;
    std::map<std::string, std::string> out;

    // {Abrupt, Smooth} x {Baseline, All-ND}, 2 weeks at 30 s.
    out["abrupt-baseline"] = runText(
        yearSpec(NamedSite::Newark, ActuatorStyle::Abrupt,
                 SystemId::Baseline));
    out["smooth-baseline"] = runText(
        yearSpec(NamedSite::Newark, ActuatorStyle::Smooth,
                 SystemId::Baseline));
    out["abrupt-allnd"] = runText(
        yearSpec(NamedSite::Newark, ActuatorStyle::Abrupt, SystemId::AllNd));
    out["smooth-allnd"] = runText(
        yearSpec(NamedSite::Newark, ActuatorStyle::Smooth, SystemId::AllNd));

    // Plant variants at hot sites, where the pre-cooler and the backup
    // loop actually run.
    sim::ExperimentSpec evap =
        yearSpec(NamedSite::Chad, ActuatorStyle::Smooth, SystemId::AllNd);
    evap.variant = sim::PlantVariant::Evaporative;
    out["smooth-allnd-evaporative"] = runText(evap);

    sim::ExperimentSpec chiller = yearSpec(
        NamedSite::Singapore, ActuatorStyle::Smooth, SystemId::AllNd);
    chiller.variant = sim::PlantVariant::Chiller;
    out["smooth-allnd-chiller"] = runText(chiller);

    // The utilization-profile workload (the world-sweep shape).
    sim::ExperimentSpec profile = yearSpec(
        NamedSite::Santiago, ActuatorStyle::Smooth, SystemId::AllNd);
    profile.workload = sim::WorkloadKind::FacebookProfile;
    out["smooth-allnd-profile"] = runText(profile);

    // Physics steps of 15 s and 120 s (30 s is the default above).
    sim::ExperimentSpec fine = yearSpec(NamedSite::Chad,
                                        ActuatorStyle::Smooth,
                                        SystemId::Baseline);
    fine.physicsStepS = 15.0;
    out["step15-smooth-baseline"] = runText(fine);

    sim::ExperimentSpec coarse = yearSpec(
        NamedSite::Singapore, ActuatorStyle::Smooth, SystemId::AllNd);
    coarse.workload = sim::WorkloadKind::FacebookProfile;
    coarse.physicsStepS = 120.0;
    coarse.weeks = 4;
    out["step120-smooth-allnd-profile"] = runText(coarse);

    // One day with the minute trace dumped as CSV: the CSV bytes too.
    const std::string csv_path =
        ::testing::TempDir() + "scalar_golden_trace.csv";
    std::remove(csv_path.c_str());
    sim::ExperimentSpec day = yearSpec(
        NamedSite::Newark, ActuatorStyle::Abrupt, SystemId::AllNd);
    day.runKind = sim::RunKind::SingleDay;
    day.day = 186;
    day.traceCsvPath = csv_path;
    std::string day_text = runText(day);
    {
        std::ifstream in(csv_path, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        day_text += "csv.bytes = " + std::to_string(bytes.str().size()) +
                    "\ncsv.fnv1a = " + fnv1a(bytes.str()) + "\n";
    }
    std::remove(csv_path.c_str());
    out["single-day-trace-csv"] = day_text;

    // A two-day range, on a deferring system.
    sim::ExperimentSpec range = yearSpec(
        NamedSite::Santiago, ActuatorStyle::Smooth, SystemId::AllDef);
    range.runKind = sim::RunKind::DayRange;
    range.startDay = 40;
    range.endDay = 42;
    out["day-range-alldef"] = runText(range);

    // One multi-zone day: per-zone plants under per-zone managers.
    sim::ExperimentSpec mz_spec = yearSpec(
        NamedSite::Newark, ActuatorStyle::Smooth, SystemId::AllNd);
    multizone::MultiZoneConfig mzc;
    mzc.zones = 3;
    mzc.policy = multizone::BalancePolicy::CoolestFirst;
    multizone::MultiZoneScenario mz =
        multizone::buildMultiZoneScenario(mz_spec, mzc);
    mz.engine->runDay(150, workload::facebookTrace({}));
    std::string mz_text;
    for (int z = 0; z < mz.engine->zoneCount(); ++z)
        mz_text += "zone = " + std::to_string(z) + "\n" +
                   summaryText(mz.engine->zoneSummary(z));
    out["multizone-day"] = mz_text;

    // Two consecutive days on one least-loaded engine at a 60 s step:
    // the shared forecaster serves both zones' managers, and each zone
    // keeps its cluster from one day to the next.
    sim::ExperimentSpec ll_spec = yearSpec(
        NamedSite::Newark, ActuatorStyle::Smooth, SystemId::AllNd);
    ll_spec.physicsStepS = 60.0;
    multizone::MultiZoneConfig llc;
    llc.zones = 2;
    llc.policy = multizone::BalancePolicy::LeastLoaded;
    multizone::MultiZoneScenario ll =
        multizone::buildMultiZoneScenario(ll_spec, llc);
    const workload::Trace fb = workload::facebookTrace({});
    ll.engine->runDay(200, fb);
    ll.engine->runDay(201, fb);
    std::string ll_text;
    for (int z = 0; z < ll.engine->zoneCount(); ++z)
        ll_text += "zone = " + std::to_string(z) + "\njobs_assigned = " +
                   std::to_string(ll.engine->zoneJobsAssigned(z)) +
                   "\njobs_completed = " +
                   std::to_string(ll.engine->zoneJobsCompleted(z)) + "\n" +
                   summaryText(ll.engine->zoneSummary(z));
    out["multizone-leastloaded"] = ll_text;

    // One Real-Sim day, started as bench_fig6 starts it: the learned
    // model's plant from the physics plant's steady state at midnight.
    // Every model step's max inlet is digested too.
    sim::ExperimentSpec rs_spec = yearSpec(
        NamedSite::Newark, ActuatorStyle::Abrupt, SystemId::Baseline);
    rs_spec.runKind = sim::RunKind::SingleDay;
    rs_spec.day = 182;
    sim::ModelSimScenario ms = sim::buildModelSimScenario(rs_spec);
    std::string max_inlets;
    int rs_steps = 0;
    ms.runner->setTraceSink([&](const sim::TraceRow &r) {
        max_inlets += num(r.inletMaxC) + "\n";
        ++rs_steps;
    });
    std::unique_ptr<plant::Plant> rs_init = sim::makePlant(rs_spec);
    rs_init->initializeSteadyState(
        ms.climate->sample(util::SimTime::fromCalendar(rs_spec.day, 0)),
        6.0);
    ms.runner->runDay(rs_spec.day, rs_init->readSensors());
    sim::ExperimentResult rs;
    rs.system = ms.metrics->summary();
    rs.outside = ms.metrics->outsideSummary();
    out["realsim-day"] = sim::formatResult(rs) +
                         "steps = " + std::to_string(rs_steps) +
                         "\nmax_inlet.fnv1a = " + fnv1a(max_inlets) + "\n";

    // The plant alone: steady-state start, commands of every kind, a
    // stuck sensor, and the noise-free probes.
    plant::Plant plant(plant::PlantConfig::parasol(), 3);
    environment::Climate climate =
        environment::namedLocation(NamedSite::Newark).makeClimate(3);
    const util::SimTime t0(int64_t(200) * util::kSecondsPerDay);
    plant.initializeSteadyState(climate.sample(t0));
    const cooling::Regime regimes[] = {
        cooling::Regime::freeCooling(0.6), cooling::Regime::closed(),
        cooling::Regime::acCompressor(0.7), cooling::Regime::acFanOnly()};
    std::string plant_text;
    for (int k = 0; k < 240; ++k) {
        const util::SimTime now = t0 + int64_t(k) * 30;
        if (k == 120)
            plant.injectStuckSensor(2, 25.0);
        plant.step(30.0, climate.sample(now),
                   plant::PodLoad::uniform(8, 8, 0.25 + 0.003 * k),
                   regimes[(k / 60) % 4]);
        if (k % 20 != 19)
            continue;
        const plant::SensorReadings r = plant.readSensors();
        plant_text += "step " + std::to_string(k) +
                      ": inlet " + num(r.podInletC[2]) + " " +
                      num(r.maxPodInletC()) + " rh " +
                      num(r.coldAisleRhPercent) + " hot " +
                      num(r.hotAisleC) + " out " + num(r.outsideC) + " " +
                      num(r.outsideAbsHumidity) + " power " +
                      num(r.coolingPowerW) + " true " +
                      num(plant.truePodInletC(7)) + " " +
                      num(plant.trueColdAisleRh()) + " disk " +
                      num(plant.diskTempC(0)) + "\n";
    }
    out["plant-direct"] = plant_text;
    return out;
}

// Recorded texts, one per case of actualTexts().
const std::map<std::string, std::string> kGolden = {
    {"abrupt-allnd", R"(result = 1
system.avg_violation = 0.52881673156700271
system.avg_worst_daily_range = 10.988262019410081
system.min_worst_daily_range = 10.232855035090665
system.max_worst_daily_range = 11.743669003729497
system.pue = 1.1816361244970401
system.it_kwh = 58.702466666666666
system.cooling_kwh = 5.9662912104166912
system.humidity_violation_frac = 0
system.rate_violation_frac = 0.13402777777777777
system.avg_max_inlet = 22.258818668214996
system.days = 2
outside.avg_violation = 0
outside.avg_worst_daily_range = 10.471899484488157
outside.min_worst_daily_range = 5.1769033353534892
outside.max_worst_daily_range = 15.766895633622823
outside.pue = 1
outside.it_kwh = 0
outside.cooling_kwh = 0
outside.humidity_violation_frac = 0
outside.rate_violation_frac = 0
outside.avg_max_inlet = 0
outside.days = 2
)"},
    {"abrupt-baseline", R"(result = 1
system.avg_violation = 0.011854079424428053
system.avg_worst_daily_range = 11.075748279407733
system.min_worst_daily_range = 9.0238187704763781
system.max_worst_daily_range = 13.12767778833909
system.pue = 1.2104364043721454
system.it_kwh = 79.202399999999997
system.cooling_kwh = 10.330876273644412
system.humidity_violation_frac = 0
system.rate_violation_frac = 0.0076388888888888886
system.avg_max_inlet = 24.55761463042915
system.days = 2
outside.avg_violation = 0
outside.avg_worst_daily_range = 10.471899484488157
outside.min_worst_daily_range = 5.1769033353534892
outside.max_worst_daily_range = 15.766895633622823
outside.pue = 1
outside.it_kwh = 0
outside.cooling_kwh = 0
outside.humidity_violation_frac = 0
outside.rate_violation_frac = 0
outside.avg_max_inlet = 0
outside.days = 2
)"},
    {"day-range-alldef", R"(result = 1
system.avg_violation = 0.033633618156719759
system.avg_worst_daily_range = 8.879730938806258
system.min_worst_daily_range = 6.8417620363862461
system.max_worst_daily_range = 10.91769984122627
system.pue = 1.1230894845169259
system.it_kwh = 66.525333333333336
system.cooling_kwh = 2.8665423206500025
system.humidity_violation_frac = 0
system.rate_violation_frac = 0.019791666666666666
system.avg_max_inlet = 28.942568974376101
system.days = 2
outside.avg_violation = 0
outside.avg_worst_daily_range = 16.698719638747697
outside.min_worst_daily_range = 16.662172618879246
outside.max_worst_daily_range = 16.735266658616148
outside.pue = 1
outside.it_kwh = 0
outside.cooling_kwh = 0
outside.humidity_violation_frac = 0
outside.rate_violation_frac = 0
outside.avg_max_inlet = 0
outside.days = 2
)"},
    {"multizone-day", R"(zone = 0
result = 1
system.avg_violation = 0.0028079870989863869
system.avg_worst_daily_range = 9.48023039989857
system.min_worst_daily_range = 9.48023039989857
system.max_worst_daily_range = 9.48023039989857
system.pue = 1.2603816019201326
system.it_kwh = 20.312799999999999
system.cooling_kwh = 3.6640554034832711
system.humidity_violation_frac = 0
system.rate_violation_frac = 0.017361111111111112
system.avg_max_inlet = 27.747421662083511
system.days = 1
zone = 1
result = 1
system.avg_violation = 0.0031406559294397699
system.avg_worst_daily_range = 9.1554483682731949
system.min_worst_daily_range = 9.1554483682731949
system.max_worst_daily_range = 9.1554483682731949
system.pue = 1.2774832894938026
system.it_kwh = 23.894466666666666
system.cooling_kwh = 4.7187578780333475
system.humidity_violation_frac = 0
system.rate_violation_frac = 0.015972222222222221
system.avg_max_inlet = 27.657712758837512
system.days = 1
zone = 2
result = 1
system.avg_violation = 0
system.avg_worst_daily_range = 7.8213543467981168
system.min_worst_daily_range = 7.8213543467981168
system.max_worst_daily_range = 7.8213543467981168
system.pue = 1.1612553665001486
system.it_kwh = 21.192533333333333
system.cooling_kwh = 1.7220070630666149
system.humidity_violation_frac = 0
system.rate_violation_frac = 0.0048611111111111112
system.avg_max_inlet = 28.027781789790552
system.days = 1
)"},
    {"multizone-leastloaded", R"(zone = 0
jobs_assigned = 5744
jobs_completed = 5736
result = 1
system.avg_violation = 0.1876823339700521
system.avg_worst_daily_range = 12.475786533776228
system.min_worst_daily_range = 12.305560277326894
system.max_worst_daily_range = 12.646012790225562
system.pue = 1.2905915590432873
system.it_kwh = 59.343466666666664
system.cooling_kwh = 12.497233164366687
system.humidity_violation_frac = 0
system.rate_violation_frac = 0.19756944444444444
system.avg_max_inlet = 28.649168883042275
system.days = 2
zone = 1
jobs_assigned = 5306
jobs_completed = 5296
result = 1
system.avg_violation = 0.19364884338007574
system.avg_worst_daily_range = 11.824245562475394
system.min_worst_daily_range = 11.731024025373983
system.max_worst_daily_range = 11.917467099576804
system.pue = 1.3037968108970279
system.it_kwh = 56.363999999999997
system.cooling_kwh = 12.61408344940009
system.humidity_violation_frac = 0
system.rate_violation_frac = 0.19583333333333333
system.avg_max_inlet = 28.697721746110325
system.days = 2
)"},
    {"plant-direct", R"(step 19: inlet 24.02322822828723 24.465500895496046 rh 62.98666463899449 hot 26.75523393435947 out 21.599274037746778 13.781623235803586 power 98.071999999999989 true 24.410729517245137 63.544432164987462 disk 35.66305110525569
step 39: inlet 23.59640402533044 24.193170259463017 rh 62.656294464277622 hot 26.832666140417242 out 21.157906655079394 13.869121456638803 power 98.071999999999989 true 24.00190491600841 64.442347872499184 disk 34.297092815658004
step 59: inlet 23.502284426962802 23.719212849833877 rh 65.115292203435473 hot 26.508820879688479 out 21.046335036509081 13.17173904665291 power 98.071999999999989 true 23.75217821558865 64.886799621595287 disk 33.809237230951638
step 79: inlet 27.565231184610926 28.702386174423083 rh 51.292205435814054 hot 29.603790467818605 out 21.264012428610243 13.573736511723558 power 0 true 28.785348967004229 51.030849546584726 disk 34.920873816164665
step 99: inlet 28.950463789663541 30.251303896840362 rh 47.36411054619532 hot 31.010565694644523 out 20.987958697193033 13.391023858403273 power 0 true 30.207474139267021 47.307195093596562 disk 36.739776344531009
step 119: inlet 29.294906853964449 30.830658758903756 rh 45.298279187943912 hot 31.885909768756168 out 21.496837757417119 13.679645139722259 power 0 true 30.880482878614878 45.577447764516847 disk 38.406214250341122
step 139: inlet 25 25 rh 57.134933808292118 hot 21.386278803281844 out 21.179185033859412 13.280862660434854 power 2200 true 17.153846778148683 57.682634704820309 disk 35.994152462187962
step 159: inlet 25 25 rh 73.560060041404384 hot 17.657808946313761 out 21.026837494425735 13.242928520883343 power 2200 true 12.81680886733708 75.10360638602954 disk 31.84443209835031
step 179: inlet 25 25 rh 78.983096367401316 hot 15.954152305934995 out 21.165730541295854 13.64943856166051 power 2200 true 11.890047474762994 79.539785686988722 disk 28.981141583198127
step 199: inlet 25 25.231321666397243 rh 39.859365101515593 hot 26.954856161929754 out 20.991002179559086 13.422563410999517 power 550 true 24.974842160798563 39.120599469308956 disk 32.172222823855144
step 219: inlet 25 29.133394960655004 rh 34.410487199866722 hot 30.505352143833658 out 20.992327212283683 13.327742931898014 power 550 true 28.795705396798791 33.499716200497517 disk 37.365586850101337
step 239: inlet 25 30.746552693721952 rh 31.773541872364603 hot 31.867613224160536 out 20.739439352018131 13.246852168653572 power 550 true 30.518020615774319 31.988648336585278 disk 41.530885838674486
)"},
    {"realsim-day", R"(result = 1
system.avg_violation = 0.06960830912384755
system.avg_worst_daily_range = 23.182452995155199
system.min_worst_daily_range = 23.182452995155199
system.max_worst_daily_range = 23.182452995155199
system.pue = 1.4044679193522578
system.it_kwh = 43.290933333333335
system.cooling_kwh = 14.04651906548397
system.humidity_violation_frac = 0.32916666666666666
system.rate_violation_frac = 0.1361111111111111
system.avg_max_inlet = 26.840296169641906
system.days = 1
outside.avg_violation = 0
outside.avg_worst_daily_range = 15.76688799324014
outside.min_worst_daily_range = 15.76688799324014
outside.max_worst_daily_range = 15.76688799324014
outside.pue = 1
outside.it_kwh = 0
outside.cooling_kwh = 0
outside.humidity_violation_frac = 0
outside.rate_violation_frac = 0
outside.avg_max_inlet = 0
outside.days = 1
steps = 720
max_inlet.fnv1a = 82b23430868af845
)"},
    {"single-day-trace-csv", R"(result = 1
system.avg_violation = 0.76911516675282199
system.avg_worst_daily_range = 14.099840417440724
system.min_worst_daily_range = 14.099840417440724
system.max_worst_daily_range = 14.099840417440724
system.pue = 1.1351076692328073
system.it_kwh = 39.127066666666664
system.cooling_kwh = 2.1562014479166645
system.humidity_violation_frac = 0
system.rate_violation_frac = 0.034722222222222224
system.avg_max_inlet = 30.064062565133458
system.days = 1
outside.avg_violation = 0
outside.avg_worst_daily_range = 12.169606342155671
outside.min_worst_daily_range = 12.169606342155671
outside.max_worst_daily_range = 12.169606342155671
outside.pue = 1
outside.it_kwh = 0
outside.cooling_kwh = 0
outside.humidity_violation_frac = 0
outside.rate_violation_frac = 0
outside.avg_max_inlet = 0
outside.days = 1
csv.bytes = 131104
csv.fnv1a = cfb9b0d9b0424c41
)"},
    {"smooth-allnd", R"(result = 1
system.avg_violation = 0.16965402962104098
system.avg_worst_daily_range = 9.0606975562983703
system.min_worst_daily_range = 5.4329406323261864
system.max_worst_daily_range = 12.688454480270554
system.pue = 1.2965119717087445
system.it_kwh = 58.702466666666666
system.cooling_kwh = 12.70978680216686
system.humidity_violation_frac = 0
system.rate_violation_frac = 0.10069444444444445
system.avg_max_inlet = 21.066706603386315
system.days = 2
outside.avg_violation = 0
outside.avg_worst_daily_range = 10.471899484488157
outside.min_worst_daily_range = 5.1769033353534892
outside.max_worst_daily_range = 15.766895633622823
outside.pue = 1
outside.it_kwh = 0
outside.cooling_kwh = 0
outside.humidity_violation_frac = 0
outside.rate_violation_frac = 0
outside.avg_max_inlet = 0
outside.days = 2
)"},
    {"smooth-allnd-chiller", R"(result = 1
system.avg_violation = 0.10710085013900379
system.avg_worst_daily_range = 11.975591728109977
system.min_worst_daily_range = 7.1627904075479343
system.max_worst_daily_range = 16.78839304867202
system.pue = 1.2702283600584099
system.it_kwh = 58.702466666666666
system.cooling_kwh = 11.16687396538347
system.humidity_violation_frac = 0.70416666666666672
system.rate_violation_frac = 0.079166666666666663
system.avg_max_inlet = 28.226432478886096
system.days = 2
outside.avg_violation = 0
outside.avg_worst_daily_range = 5.8326286378229906
outside.min_worst_daily_range = 4.9449737531748994
outside.max_worst_daily_range = 6.7202835224710817
outside.pue = 1
outside.it_kwh = 0
outside.cooling_kwh = 0
outside.humidity_violation_frac = 0
outside.rate_violation_frac = 0
outside.avg_max_inlet = 0
outside.days = 2
)"},
    {"smooth-allnd-evaporative", R"(result = 1
system.avg_violation = 0.035455495834765975
system.avg_worst_daily_range = 9.9252513881970668
system.min_worst_daily_range = 9.782037466659208
system.max_worst_daily_range = 10.068465309734925
system.pue = 1.2118779878412229
system.it_kwh = 58.702466666666666
system.cooling_kwh = 7.741563185316469
system.humidity_violation_frac = 0.03125
system.rate_violation_frac = 0.09930555555555555
system.avg_max_inlet = 28.404293939706999
system.days = 2
outside.avg_violation = 0
outside.avg_worst_daily_range = 13.627070229033771
outside.min_worst_daily_range = 10.992560421900354
outside.max_worst_daily_range = 16.261580036167189
outside.pue = 1
outside.it_kwh = 0
outside.cooling_kwh = 0
outside.humidity_violation_frac = 0
outside.rate_violation_frac = 0
outside.avg_max_inlet = 0
outside.days = 2
)"},
    {"smooth-allnd-profile", R"(result = 1
system.avg_violation = 0.029690063790086096
system.avg_worst_daily_range = 8.9350369989247191
system.min_worst_daily_range = 8.8054771968959002
system.max_worst_daily_range = 9.064596800953538
system.pue = 1.116236078264607
system.it_kwh = 47.76786666666667
system.cooling_kwh = 1.7309201550666484
system.humidity_violation_frac = 0
system.rate_violation_frac = 0.022916666666666665
system.avg_max_inlet = 23.087619095803539
system.days = 2
outside.avg_violation = 0
outside.avg_worst_daily_range = 8.4663610417980308
outside.min_worst_daily_range = 6.2641102940650235
outside.max_worst_daily_range = 10.668611789531038
outside.pue = 1
outside.it_kwh = 0
outside.cooling_kwh = 0
outside.humidity_violation_frac = 0
outside.rate_violation_frac = 0
outside.avg_max_inlet = 0
outside.days = 2
)"},
    {"smooth-baseline", R"(result = 1
system.avg_violation = 0.018290646259580625
system.avg_worst_daily_range = 11.191620997370496
system.min_worst_daily_range = 9.2300950381808917
system.max_worst_daily_range = 13.153146956560098
system.pue = 1.2076526581781675
system.it_kwh = 79.202399999999997
system.cooling_kwh = 10.110396894090506
system.humidity_violation_frac = 0
system.rate_violation_frac = 0.064930555555555561
system.avg_max_inlet = 24.517474303461768
system.days = 2
outside.avg_violation = 0
outside.avg_worst_daily_range = 10.471899484488157
outside.min_worst_daily_range = 5.1769033353534892
outside.max_worst_daily_range = 15.766895633622823
outside.pue = 1
outside.it_kwh = 0
outside.cooling_kwh = 0
outside.humidity_violation_frac = 0
outside.rate_violation_frac = 0
outside.avg_max_inlet = 0
outside.days = 2
)"},
    {"step120-smooth-allnd-profile", R"(result = 1
system.avg_violation = 0.12961245473102304
system.avg_worst_daily_range = 8.5411051926811954
system.min_worst_daily_range = 6.0106701706268773
system.max_worst_daily_range = 10.537463100796366
system.pue = 1.3675170277390185
system.it_kwh = 95.53573333333334
system.cooling_kwh = 27.468150090867493
system.humidity_violation_frac = 0.70694444444444449
system.rate_violation_frac = 0.078125
system.avg_max_inlet = 28.243265218909098
system.days = 4
outside.avg_violation = 0
outside.avg_worst_daily_range = 6.4957328455302594
outside.min_worst_daily_range = 4.9449489748448343
outside.max_worst_daily_range = 9.1861731667677873
outside.pue = 1
outside.it_kwh = 0
outside.cooling_kwh = 0
outside.humidity_violation_frac = 0
outside.rate_violation_frac = 0
outside.avg_max_inlet = 0
outside.days = 4
)"},
    {"step15-smooth-baseline", R"(result = 1
system.avg_violation = 0.047186043637793149
system.avg_worst_daily_range = 8.3048947245703335
system.min_worst_daily_range = 8.3010658070090209
system.max_worst_daily_range = 8.3087236421316462
system.pue = 1.4118222107048608
system.it_kwh = 77.06013333333334
system.cooling_kwh = 25.570263799878006
system.humidity_violation_frac = 0
system.rate_violation_frac = 0.19097222222222221
system.avg_max_inlet = 27.115493519730247
system.days = 2
outside.avg_violation = 0
outside.avg_worst_daily_range = 13.627070229033771
outside.min_worst_daily_range = 10.992560421900354
outside.max_worst_daily_range = 16.261580036167189
outside.pue = 1
outside.it_kwh = 0
outside.cooling_kwh = 0
outside.humidity_violation_frac = 0
outside.rate_violation_frac = 0
outside.avg_max_inlet = 0
outside.days = 2
)"},
};

} // anonymous namespace

TEST(ScalarGolden, EveryCaseMatchesRecordedBytes)
{
    const std::map<std::string, std::string> actual = actualTexts();
    ASSERT_EQ(actual.size(), kGolden.size());
    for (const auto &[name, text] : actual) {
        auto it = kGolden.find(name);
        ASSERT_NE(it, kGolden.end()) << name;
        EXPECT_EQ(it->second, text) << name;
    }
}
