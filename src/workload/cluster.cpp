#include "workload/cluster.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace coolair {
namespace workload {

ClusterSim::ClusterSim(const ClusterConfig &config, Trace trace)
    : _config(config), _trace(std::move(trace))
{
    if (config.numPods <= 0 || config.serversPerPod <= 0 ||
        config.slotsPerServer <= 0) {
        util::fatal("ClusterConfig: dimensions must be positive");
    }
    if (config.coveringSubsetSize > config.totalServers())
        util::fatal("ClusterConfig: covering subset larger than cluster");

    std::sort(_trace.jobs.begin(), _trace.jobs.end(),
              [](const Job &a, const Job &b) { return a.submitS < b.submitS; });
    _traceHasDeferrable =
        std::any_of(_trace.jobs.begin(), _trace.jobs.end(),
                    [](const Job &j) { return j.deferrable(); });

    _servers.resize(config.totalServers());
    for (int s = 0; s < config.totalServers(); ++s) {
        _servers[s].pod = s / config.serversPerPod;
        _servers[s].state = ServerState::Active;
    }
    _freeActiveSlots = config.totalSlots();
    _podAwakeServers.assign(size_t(config.numPods), config.serversPerPod);
    _podBusySlots.assign(size_t(config.numPods), 0);
    // Covering subset: spread across pods round-robin so every pod keeps
    // at least one awake server (and its sensor context) at all times.
    for (int k = 0; k < config.coveringSubsetSize; ++k) {
        int pod = k % config.numPods;
        int within = k / config.numPods;
        int idx = pod * config.serversPerPod + within;
        _servers[idx].covering = true;
    }
}

void
ClusterSim::applyPlan(const ComputePlan &plan)
{
    _preferenceDirty = _preferenceDirty || plan.podOrder != _plan.podOrder;
    _plan = plan;
    _planManages = _plan.manageServerStates ||
                   !std::all_of(_plan.hourAllowed.begin(),
                                _plan.hourAllowed.end(),
                                [](bool b) { return b; });
}

const std::vector<int> &
ClusterSim::serverPreference()
{
    if (!_preferenceDirty)
        return _serverPreference;

    std::vector<int> pod_rank(_config.numPods);
    for (int p = 0; p < _config.numPods; ++p)
        pod_rank[p] = p;
    if (!_plan.podOrder.empty()) {
        for (int p = 0; p < _config.numPods; ++p)
            pod_rank[p] = _config.numPods;  // unlisted pods go last
        int rank = 0;
        for (int pod : _plan.podOrder) {
            if (pod >= 0 && pod < _config.numPods)
                pod_rank[pod] = rank++;
        }
    }

    _serverPreference.resize(_servers.size());
    for (size_t s = 0; s < _servers.size(); ++s)
        _serverPreference[s] = int(s);
    std::stable_sort(_serverPreference.begin(), _serverPreference.end(),
                     [&](int a, int b) {
                         return pod_rank[_servers[a].pod] <
                                pod_rank[_servers[b].pod];
                     });
    _preferenceDirty = false;
    return _serverPreference;
}

void
ClusterSim::activateJob(const Job &job, int64_t released,
                        int64_t abs_submit)
{
    size_t slot;
    if (!_freeJobSlots.empty()) {
        slot = _freeJobSlots.back();
        _freeJobSlots.pop_back();
        _activeJobs[slot] = JobRun{};
    } else {
        slot = _activeJobs.size();
        _activeJobs.emplace_back();
    }
    JobRun &run = _activeJobs[slot];
    run.job = job;
    run.job.submitS = abs_submit;  // delay accounting vs. wall clock
    run.releasedAtS = released;
    run.mapsQueued = job.mapTasks;
    _runnableJobs.push_back(slot);
    _queuedTasks += job.mapTasks;
}

void
ClusterSim::submitJob(const Job &job, util::SimTime now)
{
    activateJob(job, now.seconds(), job.submitS);
}

void
ClusterSim::releaseJobs(util::SimTime now)
{
    int64_t day_start = now.startOfDay().seconds();
    bool manage = _planManages;
    int hour = now.hourOfDay();

    auto activate = [&](const Job &job, int64_t released,
                        int64_t abs_submit) {
        activateJob(job, released, abs_submit);
    };

    // Intake from today's trace.
    while (_nextJobIdx < _trace.jobs.size()) {
        const Job &job = _trace.jobs[_nextJobIdx];
        int64_t abs_submit = day_start + job.submitS;
        if (abs_submit > now.seconds())
            break;
        ++_nextJobIdx;

        int64_t abs_deadline = day_start + job.startDeadlineS;
        bool defer = manage && job.deferrable() &&
                     !_plan.hourAllowed[size_t(hour)] &&
                     now.seconds() < abs_deadline;
        if (defer) {
            Job held = job;
            // Re-express times as absolute for the holding queue.
            held.startDeadlineS = abs_deadline;
            held.submitS = abs_submit;
            _deferredAbs.push_back(held);
        } else {
            activate(job, now.seconds(), abs_submit);
        }
    }

    // Re-examine held jobs.
    for (size_t i = 0; i < _deferredAbs.size();) {
        const Job &job = _deferredAbs[i];
        bool release = _plan.hourAllowed[size_t(hour)] ||
                       now.seconds() >= job.startDeadlineS;
        if (release) {
            activate(job, now.seconds(), job.submitS);
            _deferredAbs[i] = _deferredAbs.back();
            _deferredAbs.pop_back();
        } else {
            ++i;
        }
    }
}

void
ClusterSim::completeTasks(util::SimTime now)
{
    // Nothing can have expired before the earliest finish time, and a
    // scan without expirations mutates no state — skip it outright.
    // Most physics steps (30 s) complete no tasks (durations are
    // minutes), so this removes the O(running) walk from the hot loop.
    if (_nextFinishS > now.seconds())
        return;

    int64_t next_finish = INT64_MAX;
    for (size_t i = 0; i < _running.size();) {
        if (_running[i].finishS > now.seconds()) {
            next_finish = std::min(next_finish, _running[i].finishS);
            ++i;
            continue;
        }
        RunningTask task = _running[i];
        _running[i] = _running.back();
        _running.pop_back();

        Server &server = _servers[size_t(task.server)];
        server.busySlots--;
        _podBusySlots[size_t(server.pod)]--;
        if (server.state == ServerState::Active)
            _freeActiveSlots++;
        _busySlots--;
        _tasksCompleted++;

        JobRun &run = _activeJobs[task.jobSlot];
        if (task.isMap) {
            run.mapsRunning--;
            run.mapsDone++;
            if (run.mapsFinished() && run.job.reduceTasks > 0) {
                run.reducesQueued = run.job.reduceTasks;
                _runnableJobs.push_back(task.jobSlot);
                _queuedTasks += run.job.reduceTasks;
            }
        } else {
            run.reducesRunning--;
            run.reducesDone++;
        }

        if (run.finished()) {
            _jobsCompleted++;
            double delay =
                double(std::max<int64_t>(0, run.startedAtS - run.job.submitS));
            _delaySumS += delay;
            _delayMaxS = std::max(_delayMaxS, delay);
            _freeJobSlots.push_back(task.jobSlot);
        }
    }
    _nextFinishS = next_finish;
}

void
ClusterSim::wakeServer(Server &server)
{
    // Any state -> Active, with the counter bookkeeping.  Sleeping
    // servers are idle by invariant (tasks only land on Active servers
    // and must drain before sleep).
    if (server.state == ServerState::Sleeping) {
        _sleepingServers--;
        _podAwakeServers[size_t(server.pod)]++;
        _freeActiveSlots += _config.slotsPerServer;
    } else if (server.state == ServerState::Decommissioned) {
        _decommissionedServers--;
        _freeActiveSlots += _config.slotsPerServer - server.busySlots;
    }
    server.state = ServerState::Active;
}

void
ClusterSim::applyPowerStates()
{
    if (!_plan.manageServerStates) {
        // With every server already Active this loop is a no-op; the
        // counters let the baseline (which never manages states) skip
        // it outright.
        if (_sleepingServers == 0 && _decommissionedServers == 0)
            return;
        for (auto &server : _servers) {
            if (server.state == ServerState::Sleeping)
                server.powerCycles++;  // waking completes a cycle
            wakeServer(server);
        }
        return;
    }

    int target = _plan.targetActiveServers;
    if (target < 0)
        target = _config.totalServers();
    target = std::clamp(target, _config.coveringSubsetSize,
                        _config.totalServers());

    const auto &pref = serverPreference();

    int awake = _config.totalServers() - _sleepingServers;

    if (awake < target) {
        // Wake in preference order until we reach the target.
        for (int idx : pref) {
            if (awake >= target)
                break;
            Server &server = _servers[size_t(idx)];
            if (server.state == ServerState::Sleeping) {
                wakeServer(server);
                server.powerCycles++;
                ++awake;
            }
        }
        // Surviving decommissioned servers are needed again.
        if (_decommissionedServers > 0) {
            for (auto &server : _servers)
                if (server.state == ServerState::Decommissioned)
                    wakeServer(server);
        }
        return;
    }

    if (awake == target && _decommissionedServers == 0)
        return;  // nothing to shrink, nothing descending

    // Shrink: walk preference in reverse, spare the covering subset.
    int surplus = awake - target;
    for (auto it = pref.rbegin(); it != pref.rend() && surplus > 0; ++it) {
        Server &server = _servers[size_t(*it)];
        if (server.covering || server.state == ServerState::Sleeping)
            continue;
        if (server.busySlots == 0) {
            if (server.state == ServerState::Active)
                _freeActiveSlots -= _config.slotsPerServer;
            else
                _decommissionedServers--;
            server.state = ServerState::Sleeping;
            _sleepingServers++;
            _podAwakeServers[size_t(server.pod)]--;
            --surplus;
        } else {
            if (server.state == ServerState::Active) {
                _freeActiveSlots -=
                    _config.slotsPerServer - server.busySlots;
                _decommissionedServers++;
            }
            server.state = ServerState::Decommissioned;
            --surplus;
        }
    }
    // Idle decommissioned servers may now complete their descent.
    if (_decommissionedServers > 0) {
        for (auto &server : _servers) {
            if (server.state == ServerState::Decommissioned &&
                server.busySlots == 0) {
                server.state = ServerState::Sleeping;
                _decommissionedServers--;
                _sleepingServers++;
                _podAwakeServers[size_t(server.pod)]--;
            }
        }
    }
}

int
ClusterSim::freeSlotsOn(const Server &server) const
{
    if (server.state != ServerState::Active)
        return 0;
    return _config.slotsPerServer - server.busySlots;
}

void
ClusterSim::scheduleTasks(util::SimTime now)
{
    if (_runnableJobs.empty())
        return;
    // A fully-busy (or fully-asleep) cluster can launch nothing, and a
    // placement walk that launches nothing mutates nothing — skip it.
    if (_freeActiveSlots <= 0)
        return;
    const auto &pref = serverPreference();

    for (int idx : pref) {
        Server &server = _servers[size_t(idx)];
        int free = freeSlotsOn(server);
        while (free > 0 && !_runnableJobs.empty()) {
            size_t slot = _runnableJobs.front();
            JobRun &run = _activeJobs[slot];

            bool launched = false;
            if (run.mapsQueued > 0) {
                run.mapsQueued--;
                run.mapsRunning++;
                int64_t finish = now.seconds() + run.job.mapTaskDurS;
                _running.push_back({finish, idx, slot, true});
                _nextFinishS = std::min(_nextFinishS, finish);
                launched = true;
            } else if (run.reducesQueued > 0) {
                run.reducesQueued--;
                run.reducesRunning++;
                int64_t finish = now.seconds() + run.job.reduceTaskDurS;
                _running.push_back({finish, idx, slot, false});
                _nextFinishS = std::min(_nextFinishS, finish);
                launched = true;
            }

            if (launched) {
                if (run.startedAtS < 0)
                    run.startedAtS = now.seconds();
                server.busySlots++;
                _podBusySlots[size_t(server.pod)]++;
                _busySlots++;
                _queuedTasks--;
                _freeActiveSlots--;
                free--;
            }

            if (run.mapsQueued == 0 && run.reducesQueued == 0) {
                // Nothing left to launch for this job right now.
                _runnableJobs.pop_front();
                if (!launched)
                    continue;
            }
        }
        if (_runnableJobs.empty() || _freeActiveSlots <= 0)
            break;
    }
}

void
ClusterSim::step(util::SimTime now, double dt_s)
{
    int day = int(now.seconds() / util::kSecondsPerDay);
    if (day != _currentDay) {
        _currentDay = day;
        _nextJobIdx = 0;
    }

    completeTasks(now);
    releaseJobs(now);
    applyPowerStates();
    scheduleTasks(now);
    _elapsedS += int64_t(dt_s);
}

plant::PodLoad
ClusterSim::podLoad() const
{
    plant::PodLoad load;
    podLoadInto(load);
    return load;
}

void
ClusterSim::podLoadInto(plant::PodLoad &load) const
{
    load.serversPerPod = _config.serversPerPod;
    load.activeServers.resize(size_t(_config.numPods));
    load.utilization.resize(size_t(_config.numPods));

    // Read the per-pod counters instead of walking every server.  The
    // counters are exact integer mirrors of the old scan (busy slots
    // only exist on awake servers, so a per-pod busy total needs no
    // state filter), and integer sums are exact in a double, so the
    // reported utilization is bit-identical to the scan's.
    for (int p = 0; p < _config.numPods; ++p) {
        int awake = _podAwakeServers[size_t(p)];
        load.activeServers[size_t(p)] = awake;
        load.utilization[size_t(p)] =
            awake > 0 ? double(_podBusySlots[size_t(p)]) /
                            double(awake * _config.slotsPerServer)
                      : 0.0;
    }
}

WorkloadStatus
ClusterSim::status() const
{
    WorkloadStatus st;
    // _queuedTasks mirrors the sum over _runnableJobs exactly; this call
    // runs once per control epoch and was the hottest walk in year runs.
    st.queuedTasks = int(std::min<int64_t>(_queuedTasks, 1 << 30));

    int64_t wanted_slots = _queuedTasks + int64_t(_running.size());
    st.demandServers = int(std::min<int64_t>(
        (wanted_slots + _config.slotsPerServer - 1) / _config.slotsPerServer,
        _config.totalServers()));

    st.awakeServers = awakeServers();
    st.offeredUtilization =
        double(_busySlots) / double(_config.totalSlots());
    // Cached at trace install: the trace is immutable between swaps, so
    // re-scanning every job per control epoch only burned time (it was
    // the single hottest call in baseline year runs).
    st.hasDeferrableJobs = _traceHasDeferrable;
    return st;
}

ClusterStats
ClusterSim::stats() const
{
    ClusterStats st;
    st.jobsCompleted = _jobsCompleted;
    st.tasksCompleted = _tasksCompleted;
    st.meanJobDelayS =
        _jobsCompleted > 0 ? _delaySumS / double(_jobsCompleted) : 0.0;
    st.maxJobDelayS = _delayMaxS;
    for (const auto &server : _servers)
        st.maxPowerCycles = std::max(st.maxPowerCycles, server.powerCycles);
    double hours = double(_elapsedS) / double(util::kSecondsPerHour);
    st.maxPowerCyclesPerHour =
        hours > 0.0 ? double(st.maxPowerCycles) / hours : 0.0;
    return st;
}

ServerState
ClusterSim::serverState(int server) const
{
    if (server < 0 || server >= int(_servers.size()))
        util::panic("ClusterSim::serverState: index out of range");
    return _servers[size_t(server)].state;
}

int
ClusterSim::awakeServers() const
{
    return _config.totalServers() - _sleepingServers;
}

} // namespace workload
} // namespace coolair
