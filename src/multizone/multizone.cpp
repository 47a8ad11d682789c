#include "multizone/multizone.hpp"

#include <algorithm>
#include <utility>

#include "sim/scenario.hpp"
#include "util/logging.hpp"

namespace coolair {
namespace multizone {

const char *
policyName(BalancePolicy policy)
{
    switch (policy) {
      case BalancePolicy::RoundRobin:   return "round-robin";
      case BalancePolicy::CoolestFirst: return "coolest-first";
      case BalancePolicy::LeastLoaded:  return "least-loaded";
    }
    util::panic("policyName: unknown policy");
}

namespace {

/** The zones' timeline configuration, once the zone count is checked. */
sim::EngineConfig
zoneEngineConfig(const MultiZoneConfig &config)
{
    if (config.zones <= 0)
        util::fatal("MultiZoneConfig: need at least one zone");
    return sim::engineConfigFor(config.physicsStepS);
}

} // anonymous namespace

MultiZoneEngine::MultiZoneEngine(
    const MultiZoneConfig &config,
    const environment::WeatherProvider &climate,
    const std::function<std::unique_ptr<sim::Controller>(int zone)>
        &make_controller)
    : Timeline(zoneEngineConfig(config), config.zones,
               /*isolate_lane_errors=*/false),
      _config(config),
      _climate(climate)
{
    if (!make_controller)
        util::fatal("MultiZoneEngine: controller factory required");

    _zones.resize(size_t(config.zones));
    for (int z = 0; z < config.zones; ++z) {
        Zone &zone = _zones[size_t(z)];
        zone.plant = std::make_unique<plant::Plant>(
            config.plantConfig, config.seed + uint64_t(z) * 101);
        zone.cluster = std::make_unique<workload::ClusterSim>(
            config.clusterConfig, workload::Trace{});
        zone.controller = make_controller(z);
        if (!zone.controller)
            util::fatal("MultiZoneEngine: factory returned null");
        zone.metrics = std::make_unique<sim::MetricsCollector>(
            sim::MetricsConfig{}, config.plantConfig.numPods);

        Lane &lane = _lanes[size_t(z)];
        lane.workload = zone.cluster.get();
        lane.controller = zone.controller.get();
        lane.metrics = zone.metrics.get();
    }
}

int
MultiZoneEngine::pickZone(const workload::Job &job)
{
    (void)job;
    switch (_config.policy) {
      case BalancePolicy::RoundRobin: {
        int z = _rrNext;
        _rrNext = (_rrNext + 1) % int(_zones.size());
        return z;
      }
      case BalancePolicy::CoolestFirst: {
        int best = 0;
        double best_temp = 1e18;
        for (int z = 0; z < int(_zones.size()); ++z) {
            // The warmest sensor governs a zone's violation exposure.
            double warm = 0.0;
            for (int p = 0;
                 p < _zones[size_t(z)].plant->config().numPods; ++p) {
                warm = std::max(
                    warm, _zones[size_t(z)].plant->truePodInletC(p));
            }
            if (warm < best_temp) {
                best_temp = warm;
                best = z;
            }
        }
        return best;
      }
      case BalancePolicy::LeastLoaded: {
        int best = 0;
        int best_busy = 1 << 30;
        for (int z = 0; z < int(_zones.size()); ++z) {
            int busy = _zones[size_t(z)].cluster->busySlots();
            if (busy < best_busy) {
                best_busy = busy;
                best = z;
            }
        }
        return best;
      }
    }
    util::panic("MultiZoneEngine::pickZone: unknown policy");
}

void
MultiZoneEngine::runDay(int day_of_year, const workload::Trace &trace)
{
    _jobs = trace.jobs;
    std::sort(_jobs.begin(), _jobs.end(),
              [](const workload::Job &a, const workload::Job &b) {
                  return a.submitS < b.submitS;
              });
    _nextJob = 0;
    _dayStartS = int64_t(day_of_year) * util::kSecondsPerDay;
    Timeline::runDay(day_of_year);
}

void
MultiZoneEngine::beginStep(int64_t t_s)
{
    // Dispatch the jobs due by now (day-relative submit times).
    const util::SimTime now(t_s);
    while (_nextJob < _jobs.size() &&
           _dayStartS + _jobs[_nextJob].submitS <= t_s) {
        workload::Job job = _jobs[_nextJob++];
        job.submitS += _dayStartS;  // absolute
        Zone &zone = _zones[size_t(pickZone(job))];
        zone.cluster->submitJob(job, now);
        zone.jobsAssigned++;
    }
    std::fill(_outside.begin(), _outside.end(), _climate.sample(now));
}

void
MultiZoneEngine::startPlants(int64_t warm_start_s)
{
    const environment::WeatherSample warm =
        _climate.sample(util::SimTime(warm_start_s));
    for (Zone &zone : _zones)
        zone.plant->initializeSteadyState(warm);
}

void
MultiZoneEngine::readSensors()
{
    for (size_t z = 0; z < _zones.size(); ++z)
        _zones[z].plant->readSensors(_sensors[z]);
}

void
MultiZoneEngine::stepPlants(double dt_s)
{
    for (size_t z = 0; z < _zones.size(); ++z)
        _zones[z].plant->step(dt_s, _outside[z], _loads[z], _commands[z]);
}

sim::Summary
MultiZoneEngine::zoneSummary(int zone) const
{
    if (zone < 0 || zone >= int(_zones.size()))
        util::panic("MultiZoneEngine::zoneSummary: zone out of range");
    return _zones[size_t(zone)].metrics->summary();
}

int64_t
MultiZoneEngine::zoneJobsAssigned(int zone) const
{
    if (zone < 0 || zone >= int(_zones.size()))
        util::panic("MultiZoneEngine::zoneJobsAssigned: out of range");
    return _zones[size_t(zone)].jobsAssigned;
}

int64_t
MultiZoneEngine::zoneJobsCompleted(int zone) const
{
    if (zone < 0 || zone >= int(_zones.size()))
        util::panic("MultiZoneEngine::zoneJobsCompleted: out of range");
    return _zones[size_t(zone)].cluster->stats().jobsCompleted;
}

sim::Summary
MultiZoneEngine::aggregateSummary() const
{
    sim::Summary total;
    double delivery = 0.08;
    for (size_t z = 0; z < _zones.size(); ++z) {
        const Zone &zone = _zones[z];
        sim::Summary s = zone.metrics->summary();
        total.itKwh += s.itKwh;
        total.coolingKwh += s.coolingKwh;
        total.avgViolationC += s.avgViolationC;
        total.avgWorstDailyRangeC += s.avgWorstDailyRangeC;
        total.minWorstDailyRangeC =
            z == 0 ? s.minWorstDailyRangeC
                   : std::min(total.minWorstDailyRangeC,
                              s.minWorstDailyRangeC);
        total.maxWorstDailyRangeC =
            std::max(total.maxWorstDailyRangeC, s.maxWorstDailyRangeC);
        total.humidityViolationFrac += s.humidityViolationFrac;
        total.rateViolationFrac += s.rateViolationFrac;
        total.avgMaxInletC += s.avgMaxInletC;
        total.days = std::max(total.days, s.days);
        delivery = zone.metrics->config().deliveryOverhead;
    }
    // Zones take equal sample counts, so the mean of their fractions is
    // the pooled fraction.
    double n = double(_zones.size());
    total.avgViolationC /= n;
    total.avgWorstDailyRangeC /= n;
    total.humidityViolationFrac /= n;
    total.rateViolationFrac /= n;
    total.avgMaxInletC /= n;
    if (total.itKwh > 0.0) {
        total.pue = (total.itKwh + total.coolingKwh +
                     delivery * total.itKwh) /
                    total.itKwh;
    }
    return total;
}

MultiZoneScenario
buildMultiZoneScenario(const sim::ExperimentSpec &spec, MultiZoneConfig config)
{
    MultiZoneScenario mz;
    mz.spec = spec;

    config.plantConfig = sim::plantConfigFor(spec);
    config.physicsStepS = spec.physicsStepS;
    config.seed = spec.seed;
    mz.config = config;

    mz.climate = std::make_unique<environment::Climate>(
        spec.location.makeClimate(spec.seed));
    mz.forecaster = std::make_unique<environment::Forecaster>(
        *mz.climate, spec.forecastError, spec.seed);

    environment::Forecaster *forecaster = mz.forecaster.get();
    mz.engine = std::make_unique<MultiZoneEngine>(
        mz.config, *mz.climate,
        [&spec, forecaster](int) {
            return sim::makeController(spec, forecaster);
        });
    return mz;
}

} // namespace multizone
} // namespace coolair
