#ifndef COOLAIR_MULTIZONE_MULTIZONE_HPP
#define COOLAIR_MULTIZONE_MULTIZONE_HPP

/**
 * @file
 * Multi-zone datacenters.
 *
 * Paper §6: "For a large datacenter with multiple independent 'cooling
 * zones' (e.g., containers), each of them would have its own
 * CoolAir-like manager."  This module scales the single-container stack
 * to N independent zones sharing one site climate and one incoming job
 * stream: each zone owns a plant, a cluster, and a controller; a
 * ZoneBalancer assigns arriving jobs to zones.
 *
 * Balancing policies:
 *  - RoundRobin: spread jobs evenly (the neutral default);
 *  - CoolestFirst: send each job to the zone with the coolest warmest
 *    sensor — the within-building analogue of temperature-driven
 *    geographic load balancing [23]; like the paper's other
 *    energy-driven techniques, it trades temperature variation for
 *    energy;
 *  - LeastLoaded: send each job to the zone with the fewest busy slots.
 */

#include <functional>
#include <memory>
#include <vector>

#include "environment/climate.hpp"
#include "environment/forecast.hpp"
#include "environment/weather.hpp"
#include "sim/controller.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "workload/cluster.hpp"
#include "workload/job.hpp"

namespace coolair {
namespace multizone {

/** Job-to-zone assignment policy. */
enum class BalancePolicy
{
    RoundRobin,
    CoolestFirst,
    LeastLoaded
};

/** Name of a balance policy. */
const char *policyName(BalancePolicy policy);

/** Configuration of a multi-zone run. */
struct MultiZoneConfig
{
    int zones = 4;
    BalancePolicy policy = BalancePolicy::RoundRobin;

    /** Per-zone plant configuration. */
    plant::PlantConfig plantConfig = plant::PlantConfig::smoothParasol();

    /** Per-zone cluster configuration. */
    workload::ClusterConfig clusterConfig;

    /** Physics step [s]; sensors are sampled every max(60 s, step), as
        sim::engineConfigFor derives it. */
    double physicsStepS = 30.0;

    uint64_t seed = 11;
};

/**
 * One cooling zone: an independent container with its own manager, as
 * §6 prescribes.
 */
struct Zone
{
    std::unique_ptr<plant::Plant> plant;
    std::unique_ptr<workload::ClusterSim> cluster;
    std::unique_ptr<sim::Controller> controller;
    std::unique_ptr<sim::MetricsCollector> metrics;

    int64_t jobsAssigned = 0;
};

/**
 * Runs N zones in lockstep against one climate, splitting a shared job
 * stream across them: sim::Timeline at one lane per zone, over the
 * zones' own components.  The jobs due at a step are dispatched before
 * any zone samples or steps there.
 */
class MultiZoneEngine : private sim::Timeline
{
  public:
    /**
     * @param config   zone count, policy, per-zone configurations
     * @param climate  the shared site weather
     * @param make_controller factory invoked once per zone (zones may
     *        have distinct controllers, e.g. for A/B comparisons)
     */
    MultiZoneEngine(
        const MultiZoneConfig &config,
        const environment::WeatherProvider &climate,
        const std::function<std::unique_ptr<sim::Controller>(int zone)>
            &make_controller);

    /**
     * Run one measured day of @p trace (day-relative submit times),
     * assigning each arriving job to a zone per the policy.
     */
    void runDay(int day_of_year, const workload::Trace &trace);

    /** Number of zones. */
    int zoneCount() const { return int(_zones.size()); }

    /** Metrics summary for one zone. */
    sim::Summary zoneSummary(int zone) const;

    /** Jobs assigned to one zone so far. */
    int64_t zoneJobsAssigned(int zone) const;

    /** Jobs completed by one zone so far. */
    int64_t zoneJobsCompleted(int zone) const;

    /**
     * Aggregate summary: energy sums across zones, temperature metrics
     * averaged over zones (PUE recomputed from the summed energies).
     */
    sim::Summary aggregateSummary() const;

  private:
    void beginStep(int64_t t_s) override;
    void startPlants(int64_t warm_start_s) override;
    void readSensors() override;
    void stepPlants(double dt_s) override;

    int pickZone(const workload::Job &job);

    MultiZoneConfig _config;
    const environment::WeatherProvider &_climate;
    std::vector<Zone> _zones;
    int _rrNext = 0;

    // The day being run: its start and its jobs by submission time,
    // _nextJob the first not yet dispatched.
    int64_t _dayStartS = 0;
    std::vector<workload::Job> _jobs;
    size_t _nextJob = 0;
};

/**
 * A multi-zone experiment assembled from a single-zone ExperimentSpec:
 * the spec decides site, system, plant style, seed, and physics step
 * (via the sim/scenario.hpp factories); @p MultiZoneConfig adds the
 * zone count and balancing policy.  Owns the shared climate and
 * forecaster so the engine's references stay valid.
 */
struct MultiZoneScenario
{
    sim::ExperimentSpec spec;
    MultiZoneConfig config;
    std::unique_ptr<environment::Climate> climate;
    std::unique_ptr<environment::Forecaster> forecaster;
    std::unique_ptr<MultiZoneEngine> engine;
};

/**
 * Build a multi-zone scenario: every zone gets the spec's plant and an
 * independent controller for the spec's system (all zones share the
 * site climate and forecaster).  config.plantConfig, physicsStepS, and
 * seed are overwritten from the spec; zones, policy and clusterConfig
 * are taken from @p config.
 */
MultiZoneScenario buildMultiZoneScenario(const sim::ExperimentSpec &spec,
                                         MultiZoneConfig config);

} // namespace multizone
} // namespace coolair

#endif // COOLAIR_MULTIZONE_MULTIZONE_HPP
