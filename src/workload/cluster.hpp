#ifndef COOLAIR_WORKLOAD_CLUSTER_HPP
#define COOLAIR_WORKLOAD_CLUSTER_HPP

/**
 * @file
 * Task-level Hadoop-like cluster simulator.
 *
 * Models the paper's modified Hadoop deployment (§4.2): 64 servers in
 * pods, two task slots per server, three power states (active,
 * decommissioned, sleeping/S3), and the Covering Subset scheme [24] — a
 * fixed set of servers that holds a full copy of the dataset and must
 * stay awake.  Decommissioned servers finish their running tasks but
 * accept no new ones; once idle they may sleep.  Disk power cycles are
 * counted per server so the load/unload budget argument of §4.2 can be
 * checked (no disk should exceed a few cycles per hour).
 */

#include <cstdint>
#include <deque>
#include <vector>

#include "util/sim_time.hpp"
#include "workload/job.hpp"
#include "workload/model.hpp"

namespace coolair {
namespace workload {

/** Server power states (paper §4.2). */
enum class ServerState
{
    Active,          ///< Running; accepts new tasks.
    Decommissioned,  ///< Running; finishes tasks but accepts none.
    Sleeping         ///< ACPI S3; draws ~2 W.
};

/** Cluster configuration. */
struct ClusterConfig
{
    int numPods = 8;
    int serversPerPod = 8;
    int slotsPerServer = 2;

    /**
     * Number of servers in the covering subset (always awake).  The
     * paper stores a full copy of the dataset on the smallest possible
     * number of servers; one per pod keeps every pod observable.
     */
    int coveringSubsetSize = 8;

    int totalServers() const { return numPods * serversPerPod; }
    int totalSlots() const { return totalServers() * slotsPerServer; }
};

/** Per-run accounting the metrics module consumes. */
struct ClusterStats
{
    int64_t jobsCompleted = 0;
    int64_t tasksCompleted = 0;
    double meanJobDelayS = 0.0;     ///< Mean (start - submit) over jobs.
    double maxJobDelayS = 0.0;
    int maxPowerCycles = 0;         ///< Worst per-server sleep count.
    double maxPowerCyclesPerHour = 0.0;
};

/**
 * The cluster simulator.  Feed it a day trace, then step it alongside
 * the plant.  Time wraps daily: a trace is replayed each simulated day
 * (the paper repeats the day-long workload for each simulated day of the
 * year, §5.1).
 */
class ClusterSim : public WorkloadModel
{
  public:
    ClusterSim(const ClusterConfig &config, Trace trace);

    /**
     * Inject a job directly (bypassing the day trace).  @p job's submitS
     * is interpreted as an absolute time; the job is released
     * immediately.  Used by multi-zone balancers that assign a shared
     * job stream across clusters at submission time.
     */
    void submitJob(const Job &job, util::SimTime now);

    // WorkloadModel interface.
    void applyPlan(const ComputePlan &plan) override;
    void step(util::SimTime now, double dt_s) override;
    plant::PodLoad podLoad() const override;
    void podLoadInto(plant::PodLoad &out) const override;
    WorkloadStatus status() const override;

    /** Aggregate accounting for metrics. */
    ClusterStats stats() const;

    /** Power state of one server (for tests). */
    ServerState serverState(int server) const;

    /** Number of awake (active + decommissioned) servers. */
    int awakeServers() const;

    /** Busy slots across the cluster. */
    int busySlots() const { return _busySlots; }

    /** The configuration in effect. */
    const ClusterConfig &config() const { return _config; }

  private:
    struct Server
    {
        ServerState state = ServerState::Active;
        int pod = 0;
        int busySlots = 0;
        bool covering = false;
        int powerCycles = 0;
    };

    struct JobRun
    {
        Job job;
        int64_t releasedAtS = 0;      ///< Absolute release time.
        int64_t startedAtS = -1;      ///< First task launch.
        int mapsQueued = 0;
        int mapsRunning = 0;
        int mapsDone = 0;
        int reducesQueued = 0;
        int reducesRunning = 0;
        int reducesDone = 0;

        bool mapsFinished() const { return mapsDone == job.mapTasks; }
        bool finished() const
        {
            return mapsFinished() && reducesDone == job.reduceTasks;
        }
    };

    struct RunningTask
    {
        int64_t finishS = 0;   ///< Absolute completion time.
        int server = 0;
        size_t jobSlot = 0;    ///< Index into _activeJobs.
        bool isMap = true;
    };

    void activateJob(const Job &job, int64_t released, int64_t abs_submit);
    void releaseJobs(util::SimTime now);
    void completeTasks(util::SimTime now);
    void wakeServer(Server &server);
    void applyPowerStates();
    void scheduleTasks(util::SimTime now);
    int freeSlotsOn(const Server &server) const;
    const std::vector<int> &serverPreference();

    ClusterConfig _config;
    Trace _trace;
    bool _traceHasDeferrable = false;    ///< any_of(_trace), cached.
    ComputePlan _plan = ComputePlan::passthrough();

    std::vector<Server> _servers;
    std::vector<JobRun> _activeJobs;
    std::vector<size_t> _freeJobSlots;
    std::deque<size_t> _runnableJobs;   ///< Jobs with queued tasks, FIFO.
    std::vector<Job> _deferredAbs;      ///< Held jobs, times absolute.
    std::vector<RunningTask> _running;
    /** Earliest finishS in _running (INT64_MAX when empty-ish); lets
        completeTasks() skip its scan on steps where nothing expires. */
    int64_t _nextFinishS = INT64_MAX;
    size_t _nextJobIdx = 0;
    int _currentDay = -1;
    int _busySlots = 0;

    // Incremental mirrors of quantities the hot loop used to recount by
    // scanning (step() runs every 30 simulated seconds, so each O(N)
    // rescan was a measurable slice of year runs).  Every state flip
    // updates them in place; they must always equal the scan result.
    int _sleepingServers = 0;       ///< Servers in ServerState::Sleeping.
    int _decommissionedServers = 0; ///< Servers in Decommissioned.
    int _freeActiveSlots = 0;       ///< Σ free slots over Active servers.
    int64_t _queuedTasks = 0;       ///< Σ queued tasks over _runnableJobs.
    std::vector<int> _podAwakeServers;  ///< Non-sleeping servers per pod.
    std::vector<int> _podBusySlots;     ///< Busy slots per pod.
    /** _plan.manageServerStates || any hour disallowed; recomputed only
        when the plan changes instead of per step in releaseJobs(). */
    bool _planManages = false;

    std::vector<int> _serverPreference;
    bool _preferenceDirty = true;

    // Accounting.
    int64_t _jobsCompleted = 0;
    int64_t _tasksCompleted = 0;
    double _delaySumS = 0.0;
    double _delayMaxS = 0.0;
    int64_t _elapsedS = 0;
};

} // namespace workload
} // namespace coolair

#endif // COOLAIR_WORKLOAD_CLUSTER_HPP
