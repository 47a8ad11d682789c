#include "serve/service.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "serve/protocol.hpp"
#include "sim/batch_engine.hpp"
#include "sim/result_cache.hpp"
#include "sim/scenario.hpp"
#include "sim/spec_io.hpp"
#include "util/logging.hpp"

namespace coolair {
namespace serve {

namespace {

/** serve.latency_seconds bucket bounds: sub-millisecond warm hits
    through minute-long cold runs, roughly log-spaced. */
const std::vector<double> &
latencyBuckets()
{
    static const std::vector<double> bounds{
        0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
        0.5,   1.0,    2.5,   5.0,  10.0,  30.0, 60.0};
    return bounds;
}

/** serve.lane_fill bucket bounds: how many lanes each engine run
    got.  Small counts exact, larger ones coarsening — lane targets past
    32 are off the efficiency curve anyway (DESIGN.md §10). */
const std::vector<double> &
laneFillBuckets()
{
    static const std::vector<double> bounds{1,  2,  3,  4,  6,
                                            8,  12, 16, 24, 32};
    return bounds;
}

} // anonymous namespace

ExperimentService::ExperimentService(ServiceConfig config)
    : _config(std::move(config)),
      _store(_config.cacheDir.empty()
                 ? nullptr
                 : std::make_unique<store::ResultStore>(
                       _config.cacheDir, sim::kResultCacheSalt,
                       sim::kResultFormatVersion)),
      _requests(_stats.counter("serve.requests", "specs submitted")),
      _parseErrors(_stats.counter("serve.parse_errors",
                                  "submissions rejected as malformed")),
      _storeHits(_stats.counter("serve.store_hits",
                                "submissions served from the result store")),
      _dedupHits(_stats.counter(
          "serve.dedup_hits",
          "submissions that joined an in-flight identical run")),
      _runs(_stats.counter("serve.runs", "simulations actually run")),
      _runFailures(
          _stats.counter("serve.run_failures", "simulations that threw")),
      _coalesced(_stats.counter(
          "serve.coalesced",
          "cold submissions parked for cross-request batching")),
      _fullDispatches(_stats.counter(
          "serve.coalesce_full_dispatches",
          "batches dispatched because the lane target filled",
          obs::kWallClock)),
      _partialDispatches(_stats.counter(
          "serve.coalesce_partial_dispatches",
          "batches dispatched on collection-window expiry",
          obs::kWallClock)),
      _rejectedBusy(_stats.counter(
          "serve.rejected_busy",
          "submissions refused at the max-pending backlog cap",
          obs::kWallClock)),
      _parkedGauge(_stats.gauge(
          "serve.parked", "submissions currently parked for coalescing",
          obs::kWallClock)),
      _laneFill(_stats.histogram("serve.lane_fill",
                                 "lanes per batched engine run",
                                 obs::kWallClock, laneFillBuckets())),
      _latency(_stats.histogram("serve.latency_seconds",
                                "submit-to-done wall latency [s]",
                                obs::kWallClock, latencyBuckets())),
      _startTime(std::chrono::steady_clock::now()),
      _pool(_config.threads)
{
    if (_config.hotCacheBytes > 0)
        _hot = std::make_unique<store::HotResultCache>(
            _config.hotCacheBytes, _config.hotCacheShards);
    if (_config.traceDepth > 0) {
        obs::Tracer &tracer = obs::Tracer::instance();
        if (!tracer.enabled()) {
            tracer.setEnabled(true);
            _enabledTracer = true;
        }
    }
    if (_config.sampleIntervalSeconds > 0.0) {
        obs::TimeSeriesConfig ts;
        ts.intervalSeconds = _config.sampleIntervalSeconds;
        ts.capacity = _config.seriesCapacity;
        _sampler = std::make_unique<obs::TimeSeriesSampler>(
            [this] { return mergedSnapshot(); }, ts);
        _sampler->start();
    }
    if (_config.coalesceLanes >= 2)
        _collector = std::thread([this] { collectorLoop(); });
}

ExperimentService::~ExperimentService()
{
    // Stop the collector first, then flush whatever it left parked so
    // every outstanding ticket resolves before the pool drains.
    if (_collector.joinable()) {
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _stopCollector = true;
        }
        _collectorWake.notify_all();
        _collector.join();
    }
    std::vector<ParkedBatchPtr> leftovers;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        for (auto &entry : _parked)
            leftovers.push_back(entry.second);
        _parked.clear();
        _parkedCount = 0;
        _parkedGauge.set(0.0);
    }
    for (const ParkedBatchPtr &batch : leftovers)
        dispatchBatch(batch, /*full=*/false);
    // Drain before the member destructors run so in-flight jobs still
    // record spans while the tracer is in the state they expect.
    _pool.drain();
    if (_sampler)
        _sampler->stop();
    if (_enabledTracer)
        obs::Tracer::instance().setEnabled(false);
}

ExperimentService::Submitted
ExperimentService::submit(const std::string &spec_text)
{
    // Every submission runs under its own trace context; all spans
    // recorded on its behalf — here, on the pool worker that picks the
    // job up (sim::JobPool re-opens this scope there), and inside the
    // engine — carry this id and reassemble into one request trace.
    const uint64_t traceId =
        _config.traceDepth > 0
            ? _nextTraceId.fetch_add(1, std::memory_order_relaxed)
            : 0;
    obs::TraceContextScope traceScope(traceId);

    _requests.inc();

    sim::ExperimentSpec spec;
    std::string id;
    JobPtr job;
    uint64_t ticket = 0;
    bool fresh = false;
    {
        obs::Span span("serve.submit", "serve");
        try {
            obs::Span parseSpan("serve.parse", "serve");
            spec = sim::parseSpec(spec_text);
            sim::checkRunnable(spec);  // unrunnable specs are parse errors
        } catch (const std::exception &e) {
            _parseErrors.inc();
            return {false, 0, e.what()};
        }

        // Serving is metrics-only: side outputs would be written on the
        // server, and cache placement is the server's choice — strip
        // both so the spec the job runs *is* its canonical identity.
        spec.traceCsvPath.clear();
        spec.reportJsonPath.clear();
        spec.traceJsonPath.clear();
        spec.cacheDirPath.clear();
        spec.resultCache = true;
        id = sim::resultCacheId(spec);

        {
            std::lock_guard<std::mutex> lock(_mutex);
            auto it = _inflight.find(id);
            if (it != _inflight.end()) {
                job = it->second;
                _dedupHits.inc();
            } else if (_config.maxPending > 0 &&
                       _inflight.size() >= _config.maxPending) {
                // Admission control: a fresh spec would add work to an
                // already-saturated backlog.  Joins (above) are always
                // admitted — they ride an existing run.
                _rejectedBusy.inc();
                return {false, 0,
                        kBusyPrefix +
                            std::to_string(_inflight.size()) +
                            " specs in flight (cap " +
                            std::to_string(_config.maxPending) +
                            "); retry after the backlog drains"};
            } else {
                job = std::make_shared<Job>();
                job->id = id;
                job->submitted = std::chrono::steady_clock::now();
                job->traceId = traceId;
                _inflight.emplace(id, job);
                fresh = true;
            }
            ticket = _nextTicket++;
            _tickets.emplace(ticket, job);
            job->tickets.push_back(ticket);
        }
    }

    if (fresh) {
        // Hot tier first: a repeat of a recently-served spec answers
        // from RAM — no disk open, no CRC pass.  The bytes were cached
        // at a previous completion, so they are the served bytes.
        std::string hotPayload;
        if (_hot && _hot->lookup(id, hotPayload)) {
            complete(job, true, std::move(hotPayload),
                     /*cacheHot=*/false);
            return {true, ticket, ""};
        }

        // Warm path: the store answers without a simulation.  Lookup
        // runs outside the table lock (it is file IO); a concurrent
        // identical submit meanwhile joins the in-flight entry and
        // shares whatever this resolves to.
        sim::ExperimentResult cached;
        bool hit = false;
        {
            obs::Span lookupSpan("serve.store_lookup", "serve");
            hit = _store && sim::cacheLookup(*_store, id, cached);
        }
        if (hit) {
            _storeHits.inc();
            complete(job, true, sim::formatResult(cached));
        } else if (_config.coalesceLanes >= 2 && spec.batch > 0) {
            // Cold, and the spec opted into batching: park it for
            // cross-request lane coalescing instead of running solo.
            parkJob(spec, job);
        } else {
            _pool.submit([this, spec, job] { runJob(spec, job); });
        }
    }

    return {true, ticket, ""};
}

ExperimentService::Reply
ExperimentService::wait(uint64_t ticket)
{
    JobPtr job;
    {
        std::unique_lock<std::mutex> lock(_mutex);
        auto it = _tickets.find(ticket);
        if (it == _tickets.end())
            return {false, "",
                    "unknown ticket " + std::to_string(ticket) +
                        " (tickets are consumed by WAIT)"};
        job = it->second;
        _tickets.erase(it);
        _done.wait(lock, [&] { return job->done; });
    }
    if (job->ok)
        return {true, job->payload, ""};
    return {false, "", job->error};
}

ExperimentService::Reply
ExperimentService::run(const std::string &spec_text)
{
    Submitted sub = submit(spec_text);
    if (!sub.ok)
        return {false, "", sub.error};
    return wait(sub.ticket);
}

void
ExperimentService::complete(const JobPtr &job, bool ok, std::string text,
                            bool cacheHot)
{
    // Successful payloads enter the hot tier before waiters wake, so
    // an immediate repeat submission can already hit RAM.  Hot-served
    // completions skip re-insertion (lookup refreshed their recency).
    if (ok && cacheHot && _hot)
        _hot->insert(job->id, text);

    const double latency =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      job->submitted)
            .count();
    _latency.record(latency);

    // Extract this request's spans from the global tracer and render
    // them as one finished Chrome-trace document *before* the job is
    // marked done.  Extraction keeps per-request memory bounded by the
    // service's own traceDepth ring rather than the process-wide event
    // buffer; rendering first means a waiter that sees done == true is
    // guaranteed to find the trace retained (no TRACE-after-WAIT race).
    const uint64_t traceId = job->traceId;
    std::vector<obs::TraceEvent> events;
    std::string traceDoc;
    if (_config.traceDepth > 0 && traceId != 0) {
        obs::Tracer &tracer = obs::Tracer::instance();
        events = tracer.takeTrace(traceId);
        std::ostringstream os;
        obs::writeTraceEventsJson(os, events, tracer.trackNames());
        traceDoc = os.str();
    }

    std::vector<uint64_t> tickets;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        job->done = true;
        job->ok = ok;
        if (ok)
            job->payload = std::move(text);
        else
            job->error = std::move(text);
        tickets = job->tickets;
        // The dedup window spans the whole run: only now do identical
        // submissions stop attaching to this job.
        auto it = _inflight.find(job->id);
        if (it != _inflight.end() && it->second == job)
            _inflight.erase(it);
        if (!traceDoc.empty()) {
            _traces.push_back(
                CompletedTrace{traceId, tickets, std::move(traceDoc)});
            while (_traces.size() > size_t(_config.traceDepth))
                _traces.pop_front();
        }
    }

    if (_config.slowRequestSeconds > 0.0 &&
        latency > _config.slowRequestSeconds) {
        std::vector<util::LogField> fields;
        fields.push_back({"latency_s", obs::formatDouble(latency)});
        fields.push_back({"ok", ok ? "true" : "false"});
        std::string ticketList;
        for (uint64_t t : tickets) {
            if (!ticketList.empty())
                ticketList += ",";
            ticketList += std::to_string(t);
        }
        fields.push_back({"tickets", ticketList});
        if (traceId != 0)
            fields.push_back({"trace_id", std::to_string(traceId)});
        // Per-stage timings: total span seconds by name, so the line
        // says *where* the request spent its time.
        std::map<std::string, double> stageSeconds;
        for (const obs::TraceEvent &e : events)
            stageSeconds[e.name] += double(e.durUs) / 1e6;
        for (const auto &[name, seconds] : stageSeconds)
            fields.push_back(
                {"span." + name, obs::formatDouble(seconds)});
        util::Logger::instance().log(util::LogLevel::Warn,
                                     "slow request", fields);
    }

    _done.notify_all();
}

void
ExperimentService::runJob(const sim::ExperimentSpec &spec, const JobPtr &job)
{
    if (_config.onJobStart)
        _config.onJobStart();
    _runs.inc();
    bool ok = false;
    std::string text;
    {
        // Span closed before complete() so takeTrace sees it.
        obs::Span span("serve.run", "serve");
        try {
            sim::ExperimentResult result =
                _store ? sim::runAndStore(spec, *_store, job->id)
                       : sim::runExperiment(spec);
            ok = true;
            text = sim::formatResult(result);
        } catch (const std::exception &e) {
            _runFailures.inc();
            text = e.what();
        } catch (...) {
            _runFailures.inc();
            text = "unknown exception";
        }
    }
    complete(job, ok, std::move(text));
}

void
ExperimentService::parkJob(const sim::ExperimentSpec &spec,
                           const JobPtr &job)
{
    job->parkUs = obs::Tracer::instance().nowUs();
    _coalesced.inc();
    ParkedBatchPtr ready;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        ParkedBatchPtr &queue = _parked[sim::batchShapeKey(spec)];
        if (!queue) {
            queue = std::make_shared<ParkedBatch>();
            queue->oldest = std::chrono::steady_clock::now();
        }
        queue->specs.push_back(spec);
        queue->jobs.push_back(job);
        ++_parkedCount;
        if (int(queue->jobs.size()) >= _config.coalesceLanes) {
            // Lane target reached: extract under the lock, dispatch
            // outside it.  The map slot empties so a late same-shape
            // arrival starts a new collection round.
            ready = std::move(queue);
            _parked.erase(sim::batchShapeKey(spec));
            _parkedCount -= ready->jobs.size();
        }
        _parkedGauge.set(double(_parkedCount));
    }
    if (ready)
        dispatchBatch(ready, /*full=*/true);
    else
        _collectorWake.notify_one();
}

void
ExperimentService::dispatchBatch(const ParkedBatchPtr &batch, bool full)
{
    (full ? _fullDispatches : _partialDispatches).inc();

    obs::Tracer &tracer = obs::Tracer::instance();
    batch->dispatchUs = tracer.nowUs();
    // Each parked request's own trace gets its park interval — the
    // time it spent waiting for lane-mates — not just the shared run.
    if (_config.traceDepth > 0) {
        for (const JobPtr &job : batch->jobs)
            if (job->traceId != 0)
                tracer.recordComplete("serve.park", "serve",
                                      job->parkUs,
                                      batch->dispatchUs - job->parkUs,
                                      obs::threadTrack(), job->traceId);
    }

    // Split the lane set across the idle workers: min(lanes, idle)
    // near-equal contiguous sub-batches, each its own engine run on its
    // own worker.  A lane's bytes do not depend on its lane set
    // (DESIGN.md §10), so the split changes no answer.  With every
    // worker busy the set runs whole: smaller engines cost more per
    // lane and would only queue behind the busy ones.  A full set's
    // sub-batches run at their own width; a window-expired set keeps
    // the lane target as its width, so its lanes count as ragged.
    const size_t n = batch->jobs.size();
    const size_t threads = size_t(_pool.threads());
    const size_t busy = std::min(_pool.pending(), threads);
    const size_t parts = std::max<size_t>(1, std::min(n, threads - busy));
    size_t begin = 0;
    for (size_t p = 0; p < parts; ++p) {
        const size_t end = begin + n / parts + (p < n % parts ? 1 : 0);
        const int width = full ? int(end - begin) : _config.coalesceLanes;
        _laneFill.record(double(end - begin));
        _pool.submit([this, batch, begin, end, width] {
            runBatch(*batch, begin, end, width);
        });
        begin = end;
    }
}

void
ExperimentService::runBatch(const ParkedBatch &batch, size_t begin,
                            size_t end, int width)
{
    if (_config.onJobStart)
        _config.onJobStart();

    _runs.add(int64_t(end - begin));
    obs::Tracer &tracer = obs::Tracer::instance();

    // Per-lane pre-start hook: a throw fails just that lane; the
    // survivors still run as a smaller batch (lane results do not
    // depend on the lane set, so their answers are unchanged).
    std::vector<std::string> preError(end - begin);
    std::vector<sim::ExperimentSpec> live;
    std::vector<size_t> liveIndex;
    live.reserve(end - begin);
    liveIndex.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
        if (_config.onLaneStart) {
            try {
                _config.onLaneStart(batch.specs[i]);
            } catch (const std::exception &e) {
                preError[i - begin] = e.what();
                continue;
            } catch (...) {
                preError[i - begin] = "unknown exception";
                continue;
            }
        }
        live.push_back(batch.specs[i]);
        liveIndex.push_back(i);
    }

    const int64_t runStartUs = tracer.nowUs();
    std::vector<sim::LaneResult> lanes;
    std::string batchError;
    if (!live.empty()) {
        // Engine-internal spans correlate with the first live lane's
        // request; every joined request still gets its own serve.lane
        // span below.
        obs::TraceContextScope scope(
            batch.jobs[liveIndex.front()]->traceId);
        obs::Span span("serve.batch_run", "serve");
        try {
            lanes = sim::runBatchedGroup(live, width);
        } catch (const std::exception &e) {
            batchError = e.what();
        } catch (...) {
            batchError = "unknown exception";
        }
    }
    const int64_t runEndUs = tracer.nowUs();

    size_t liveSlot = 0;
    for (size_t i = begin; i < end; ++i) {
        const JobPtr &job = batch.jobs[i];
        // The request's trace shows the dispatch gap and its own lane
        // span; recorded before complete() extracts the trace.
        if (_config.traceDepth > 0 && job->traceId != 0) {
            tracer.recordComplete("serve.batch_dispatch", "serve",
                                  batch.dispatchUs,
                                  runStartUs - batch.dispatchUs,
                                  obs::threadTrack(), job->traceId);
            tracer.recordComplete("serve.lane", "serve", runStartUs,
                                  runEndUs - runStartUs,
                                  obs::threadTrack(), job->traceId);
        }
        if (!preError[i - begin].empty()) {
            _runFailures.inc();
            complete(job, false, std::move(preError[i - begin]));
            continue;
        }
        const size_t slot = liveSlot++;
        if (!batchError.empty() || slot >= lanes.size()) {
            // Whole-batch failure (shape rejected, engine threw):
            // every lane resolves with the same error, each to its own
            // waiters only.
            _runFailures.inc();
            complete(job, false,
                     batchError.empty() ? "batched run produced no lane"
                                        : batchError);
            continue;
        }
        sim::LaneResult &lane = lanes[slot];
        if (lane.ok) {
            std::string text = sim::formatResult(lane.result);
            if (_store)
                _store->store(job->id, text);
            complete(job, true, std::move(text));
        } else {
            _runFailures.inc();
            complete(job, false, std::move(lane.error));
        }
    }
}

void
ExperimentService::collectorLoop()
{
    // The window as a steady_clock duration (rounded up: the collector
    // may fire late, never early enough to halve a real window).
    const auto window =
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(
                std::max(0.0, _config.coalesceWaitMs)));

    std::unique_lock<std::mutex> lock(_mutex);
    while (!_stopCollector) {
        if (_parked.empty()) {
            _collectorWake.wait(lock, [this] {
                return _stopCollector || !_parked.empty();
            });
            continue;
        }
        auto deadline = std::chrono::steady_clock::time_point::max();
        for (const auto &entry : _parked)
            deadline = std::min(deadline, entry.second->oldest + window);
        const auto now = std::chrono::steady_clock::now();
        if (now < deadline) {
            _collectorWake.wait_until(lock, deadline);
            continue;
        }
        // Window expired for at least one queue: extract every expired
        // queue under the lock, dispatch partial batches outside it.
        std::vector<ParkedBatchPtr> expired;
        for (auto it = _parked.begin(); it != _parked.end();) {
            if (it->second->oldest + window <= now) {
                expired.push_back(it->second);
                _parkedCount -= it->second->jobs.size();
                it = _parked.erase(it);
            } else {
                ++it;
            }
        }
        _parkedGauge.set(double(_parkedCount));
        lock.unlock();
        for (const ParkedBatchPtr &batch : expired)
            dispatchBatch(batch, /*full=*/false);
        lock.lock();
    }
}

std::vector<obs::StatsRegistry::Entry>
ExperimentService::mergedSnapshot() const
{
    obs::StatsRegistry merged;
    merged.merge(_stats);
    if (_store)
        _store->addStats(merged);
    if (_hot)
        _hot->addStats(merged);
    return merged.snapshot();
}

std::string
ExperimentService::statsText() const
{
    obs::StatsRegistry merged;
    merged.merge(_stats);
    if (_store)
        _store->addStats(merged);
    if (_hot)
        _hot->addStats(merged);
    std::ostringstream os;
    merged.dumpText(os);
    return os.str();
}

std::string
ExperimentService::metricsText(bool skipWallClock) const
{
    obs::PrometheusOptions options;
    options.skipWallClock = skipWallClock;
    return obs::toPrometheusText(mergedSnapshot(), options);
}

std::string
ExperimentService::healthText() const
{
    size_t inflight = 0;
    size_t outstanding = 0;
    size_t traces = 0;
    size_t parked = 0;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        inflight = _inflight.size();
        outstanding = _tickets.size();
        traces = _traces.size();
        parked = _parkedCount;
    }
    const int workers = _pool.threads();
    const size_t poolPending = _pool.pending();
    const double uptime = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - _startTime)
                              .count();

    std::ostringstream os;
    // Admission cap first (it is what makes SUBMIT bounce), then the
    // softer backlog rule: more in-flight canonical specs than 4x the
    // worker pool means submissions arrive faster than they drain.
    if (_config.maxPending > 0 && inflight >= _config.maxPending)
        os << "status: DEGRADED (at max_pending cap: " << inflight
           << " of " << _config.maxPending
           << " in-flight specs; SUBMIT answers ERR busy)\n";
    else if (inflight > size_t(workers) * 4)
        os << "status: DEGRADED (backlog: " << inflight
           << " in-flight specs on " << workers << " workers)\n";
    else
        os << "status: OK\n";
    os << "uptime_seconds: " << obs::formatDouble(uptime) << "\n";
    os << "workers: " << workers << "\n";
    os << "inflight_specs: " << inflight << "\n";
    os << "pool_pending_jobs: " << poolPending << "\n";
    os << "max_pending: " << _config.maxPending << "\n";
    os << "tickets_outstanding: " << outstanding << "\n";
    os << "coalesce_lanes: " << _config.coalesceLanes << "\n";
    if (_config.coalesceLanes >= 2) {
        os << "coalesce_wait_ms: "
           << obs::formatDouble(_config.coalesceWaitMs) << "\n";
        os << "parked_specs: " << parked << "\n";
    }
    os << "store: " << (_config.cacheDir.empty() ? "(none)"
                                                 : _config.cacheDir)
       << "\n";
    if (_hot) {
        const store::HotResultCache::Stats hs = _hot->stats();
        os << "hot_cache_bytes: " << hs.bytes << " of "
           << _hot->capacityBytes() << " (" << hs.entries
           << " entries, " << _hot->shards() << " shards)\n";
    } else {
        os << "hot_cache_bytes: (disabled)\n";
    }
    os << "trace_depth: " << _config.traceDepth << "\n";
    os << "traces_retained: " << traces << "\n";
    os << "sampling_interval_s: "
       << obs::formatDouble(_sampler ? _config.sampleIntervalSeconds : 0.0)
       << "\n";
    os << "build: "
#ifdef NDEBUG
          "release"
#else
          "debug"
#endif
          ", result format v"
       << sim::kResultFormatVersion << "\n";
    return os.str();
}

bool
ExperimentService::seriesText(const std::string &name, uint64_t maxPoints,
                              std::string &out, std::string &error) const
{
    if (!_sampler) {
        error = "time-series sampling is disabled on this server";
        return false;
    }
    const std::vector<obs::SeriesPoint> points =
        _sampler->series(name, size_t(maxPoints));
    if (points.empty()) {
        error = "unknown series '" + name +
                "' (stat names from METRICS; histograms expose "
                "::count and ::mean)";
        return false;
    }
    std::ostringstream os;
    for (const obs::SeriesPoint &p : points)
        os << p.unixMs << " " << obs::formatDouble(p.value) << "\n";
    out = os.str();
    return true;
}

bool
ExperimentService::traceJson(uint64_t ticket, std::string &out,
                             std::string &error) const
{
    if (_config.traceDepth <= 0) {
        error = "tracing is disabled on this server "
                "(start with --trace-depth)";
        return false;
    }
    std::lock_guard<std::mutex> lock(_mutex);
    // Newest-first: after a ticket-counter lifetime of requests the
    // recent ones are the ones asked about.
    for (auto it = _traces.rbegin(); it != _traces.rend(); ++it) {
        if (std::find(it->tickets.begin(), it->tickets.end(), ticket) !=
            it->tickets.end()) {
            out = it->json;
            return true;
        }
    }
    auto t = _tickets.find(ticket);
    if (t != _tickets.end() && !t->second->done) {
        error = "ticket " + std::to_string(ticket) +
                " is still in flight; WAIT for it first";
        return false;
    }
    error = "no retained trace for ticket " + std::to_string(ticket) +
            " (unknown, evicted, or submitted before tracing)";
    return false;
}

} // namespace serve
} // namespace coolair
