#ifndef COOLAIR_SERVE_SERVICE_HPP
#define COOLAIR_SERVE_SERVICE_HPP

/**
 * @file
 * The experiment-serving core: a long-lived, socket-free service that
 * accepts spec text, answers warm requests straight from the
 * persistent ResultStore, and schedules misses onto a persistent
 * sim::JobPool with *dedup-in-flight* — concurrent submissions of the
 * same canonical spec (sim::resultCacheId identity) share one
 * simulation run.
 *
 * Determinism contract: a served RESULT payload is the
 * spec_io::formatResult text of the experiment, so it is byte-identical
 * to what the same spec produces through experiment_cli or an
 * ExperimentRunner sweep — warm (store hit), deduped, or fresh.  The
 * service adds caching and sharing, never a different answer.
 *
 * Request lifecycle:
 *
 *   submit(spec text)
 *     -> parse (strict spec_io; errors return to the caller, the
 *        daemon never dies on bad input)
 *     -> normalize away output paths and cache keys (serving is
 *        metrics-only), derive the canonical id
 *     -> in-flight table hit?   share that job   (serve.dedup_hits)
 *     -> backlog at cap?        reject `busy: ...` (serve.rejected_busy)
 *     -> hot-cache hit?         complete at once (serve.hot_hits)
 *     -> store hit?             complete at once (serve.store_hits)
 *     -> batch>0 + coalescing?  park for a lane  (serve.coalesced)
 *     -> else                   schedule a run   (serve.runs)
 *   wait(ticket) blocks until the shared job completes and consumes
 *   the ticket (each submission gets its own ticket; the job is
 *   shared, the ticket is not).
 *
 * Coalescing (ServiceConfig::coalesceLanes >= 2): cold submissions
 * whose spec opts in with batch > 0 are *parked* in a per-shape
 * collection queue (sim::batchShapeKey — every field but location,
 * seed, and output paths) instead of dispatching immediately.  A
 * queue dispatches either when it fills to coalesceLanes (full
 * dispatch) or when its oldest entry has waited coalesceWaitMs
 * (partial dispatch by the collector thread) — so lane fill rides
 * offered load and latency never stalls past the window.  A dispatched
 * lane set splits into one near-equal contiguous sub-batch per idle
 * worker (at least one; a set that finds every worker busy runs
 * whole), each one sim::runBatchedGroup run on its own worker.
 * Per-lane failures resolve only their own request; dedup joiners
 * attach to the parked entry like any in-flight job.  Lane results
 * land under each spec's own result-cache id (batched identity —
 * batch=N is part of the id) and honor the DESIGN.md §10 tolerance
 * contract; a lane's bytes do not depend on its lane set, so a
 * coalesced answer is byte-identical to the same spec run directly in
 * any batch of its shape (locked by tests).
 *
 * Hot cache (ServiceConfig::hotCacheBytes > 0): a sharded in-memory
 * byte-capped LRU (store::HotResultCache) in front of the on-disk
 * store.  Every successful completion caches its payload bytes; a
 * repeat submission is answered from RAM without touching disk or
 * re-verifying a CRC (serve.hot_hits / serve.hot_evictions).
 *
 * Admission (ServiceConfig::maxPending > 0): a fresh submission that
 * would push the in-flight table past the cap is rejected with a
 * structured `busy: ...` error (the wire layer renders `ERR busy:`)
 * instead of queueing unboundedly; HEALTH reports DEGRADED while at
 * the cap.  Dedup joins are always admitted — they add no work.
 *
 * Observability: the service owns an obs::StatsRegistry (always on —
 * no global enable needed) holding serve.requests, serve.parse_errors,
 * serve.store_hits, serve.dedup_hits, serve.runs, serve.run_failures
 * and a bucketed serve.latency_seconds histogram; statsText() merges in
 * the store's counters for the STATS endpoint, metricsText() renders
 * the same merged registry as Prometheus text for METRICS, and a
 * TimeSeriesSampler snapshots it on a fixed interval into bounded
 * per-stat rings for SERIES.
 *
 * Tracing: with ServiceConfig::traceDepth > 0, every submission gets a
 * process-unique trace id, carried by a thread-local TraceContextScope
 * from the connection thread through the JobPool onto the worker and
 * down into the engine — so all spans of one request correlate.  As a
 * request completes, its events are extracted from the global Tracer
 * and retained (as finished Chrome-trace JSON) in a ring of the last
 * traceDepth requests, retrievable by any of the request's tickets via
 * traceJson().  Requests slower than slowRequestSeconds additionally
 * emit one structured log line with per-stage span timings.
 */

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/stats.hpp"
#include "obs/timeseries.hpp"
#include "sim/runner.hpp"
#include "store/hot_cache.hpp"
#include "store/result_store.hpp"

namespace coolair {
namespace serve {

/** Service knobs. */
struct ServiceConfig
{
    /**
     * Directory of the persistent result store; empty disables the
     * store (every distinct spec simulates, dedup-in-flight still
     * applies).  The same directory an experiment_cli --cache-dir or a
     * cached sweep uses — the daemon serves their entries and vice
     * versa.
     */
    std::string cacheDir;

    /** Worker threads (0 = COOLAIR_THREADS / hardware auto). */
    int threads = 0;

    /**
     * Test hook: when set, every scheduled run calls this on its
     * worker thread before simulating (once per engine run on the
     * coalesced path, i.e. once per sub-batch of a split lane set).
     * Lets tests hold jobs open to pin down dedup-in-flight and
     * coalesce windows deterministically.
     */
    std::function<void()> onJobStart;

    /**
     * Test/fault-injection hook: on the coalesced path, called once
     * per lane (with that lane's spec) before the batch runs.  A
     * throwing hook fails *only* that lane — its request resolves
     * with the exception text while the surviving lanes run as a
     * smaller batch.  This is the service-level counterpart of the
     * batch engine's trace-path fault lever (which submit()'s
     * normalization strips away).
     */
    std::function<void(const sim::ExperimentSpec &)> onLaneStart;

    /**
     * Coalescing lane target: >= 2 parks cold batch>0 submissions in
     * per-shape queues and dispatches them to the batched engine as
     * lanes fill (the --coalesce server flag).  0/1 disables
     * coalescing — every cold miss runs immediately.
     */
    int coalesceLanes = 0;

    /** Collection window: a parked queue older than this dispatches
        partially filled rather than waiting for coalesceLanes (the
        --coalesce-wait-ms flag).  <= 0 means dispatch-on-next-tick. */
    double coalesceWaitMs = 5.0;

    /** In-memory hot-result cache budget in bytes; 0 disables the hot
        tier (the --hot-cache-mb flag). */
    size_t hotCacheBytes = 0;

    /** Mutex stripes for the hot cache. */
    int hotCacheShards = 8;

    /**
     * Admission cap: a fresh submission arriving while this many
     * canonical specs are already in flight is rejected with a
     * structured `busy: ...` error (serve.rejected_busy, HEALTH
     * DEGRADED).  0 = unbounded (the --max-pending flag).
     */
    size_t maxPending = 0;

    /**
     * Retain the last this-many completed request traces for the
     * TRACE verb (and enable the global Tracer for the service's
     * lifetime).  0 disables request tracing entirely.
     */
    int traceDepth = 0;

    /**
     * Log one structured line (with per-stage span timings when
     * tracing is on) for any request slower than this many seconds of
     * submit-to-done wall time.  <= 0 disables the slow-request log.
     */
    double slowRequestSeconds = 0.0;

    /** Seconds between time-series samples (SERIES verb); <= 0
        disables the background sampler. */
    double sampleIntervalSeconds = 1.0;

    /** Points retained per sampled series. */
    size_t seriesCapacity = 600;
};

/** The serving core (transport-agnostic; see serve/server.hpp). */
class ExperimentService
{
  public:
    explicit ExperimentService(ServiceConfig config = {});

    /** Drains in-flight jobs (JobPool destructor) before returning. */
    ~ExperimentService();

    ExperimentService(const ExperimentService &) = delete;
    ExperimentService &operator=(const ExperimentService &) = delete;

    /** Outcome of a submit: a ticket to wait on, or a parse error. */
    struct Submitted
    {
        bool ok = false;
        uint64_t ticket = 0;
        std::string error;
    };

    /** A completed (or failed) experiment. */
    struct Reply
    {
        bool ok = false;
        std::string payload;  ///< formatResult text when ok.
        std::string error;    ///< failure message when !ok.
    };

    /**
     * Parse @p spec_text (full sim/spec_io semantics) and enqueue it.
     * Never throws on bad input: malformed specs come back as an error
     * Submitted.  Thread-safe.
     */
    Submitted submit(const std::string &spec_text);

    /**
     * Block until @p ticket's job completes and return its payload or
     * failure.  Consumes the ticket: a second wait on the same ticket
     * reports it unknown.  Thread-safe.
     */
    Reply wait(uint64_t ticket);

    /** submit() + wait() in one call. */
    Reply run(const std::string &spec_text);

    /** Deterministically-ordered text dump of serve.* and store.*. */
    std::string statsText() const;

    /**
     * The same merged serve.* / store.* registry as Prometheus text
     * exposition (obs/prometheus.hpp).  @p skipWallClock omits stats
     * whose value depends on wall time or scheduling, leaving output
     * that is byte-identical across thread counts for an identical
     * request sequence.  Snapshots briefly under per-stat locks and
     * renders on the caller's thread — never holds a lock across
     * formatting or socket writes.
     */
    std::string metricsText(bool skipWallClock = false) const;

    /**
     * One-frame liveness summary for the HEALTH verb: `status: OK` (or
     * `status: DEGRADED (<reason>)` when the in-flight backlog exceeds
     * 4x the worker count), uptime, worker/backlog occupancy, and
     * build info.
     */
    std::string healthText() const;

    /**
     * The last @p maxPoints points of sampled series @p name as
     * `<unix-ms> <value>` lines.  False (with @p error) when sampling
     * is off or the series does not exist.
     */
    bool seriesText(const std::string &name, uint64_t maxPoints,
                    std::string &out, std::string &error) const;

    /**
     * The retained Chrome-trace JSON of the completed request that
     * ticket @p ticket attached to.  False (with @p error) when
     * tracing is off, the request is still in flight, or the trace
     * was never retained / already evicted.
     */
    bool traceJson(uint64_t ticket, std::string &out,
                   std::string &error) const;

    /** The background sampler, or nullptr when sampling is disabled.
        Tests drive sampleNow() through this for deterministic rings. */
    obs::TimeSeriesSampler *sampler() { return _sampler.get(); }

    /** The service's live registry (server transports add their own
        serve.connections-style counters here). */
    obs::StatsRegistry &stats() { return _stats; }

    /** The persistent store, or nullptr when cacheDir was empty. */
    store::ResultStore *store() { return _store.get(); }

    /** Worker-pool width (for banners and load drivers). */
    int threads() const { return _pool.threads(); }

  private:
    /** One in-flight (or just-completed) canonical spec. */
    struct Job
    {
        std::string id;  ///< canonical spec text (resultCacheId).
        std::chrono::steady_clock::time_point submitted;
        bool done = false;
        bool ok = false;
        std::string payload;
        std::string error;
        uint64_t traceId = 0;  ///< first submitter's trace context.
        int64_t parkUs = 0;    ///< tracer timestamp when parked (0 =
                               ///< never coalesced).
        std::vector<uint64_t> tickets;  ///< every attached ticket.
    };
    using JobPtr = std::shared_ptr<Job>;

    /** One per-shape collection queue of parked cold submissions. */
    struct ParkedBatch
    {
        std::vector<sim::ExperimentSpec> specs;  ///< lane order.
        std::vector<JobPtr> jobs;                ///< parallel to specs.
        std::chrono::steady_clock::time_point oldest;  ///< first park.
        int64_t dispatchUs = 0;  ///< tracer timestamp at dispatch.
    };
    using ParkedBatchPtr = std::shared_ptr<ParkedBatch>;

    /** One retained completed-request trace. */
    struct CompletedTrace
    {
        uint64_t traceId = 0;
        std::vector<uint64_t> tickets;
        std::string json;  ///< finished Chrome-trace document.
    };

    void complete(const JobPtr &job, bool ok, std::string text,
                  bool cacheHot = true);
    void runJob(const sim::ExperimentSpec &spec, const JobPtr &job);
    void parkJob(const sim::ExperimentSpec &spec, const JobPtr &job);
    void dispatchBatch(const ParkedBatchPtr &batch, bool full);
    /** One engine run over lanes [begin, end) of @p batch at lane
        width @p width. */
    void runBatch(const ParkedBatch &batch, size_t begin, size_t end,
                  int width);
    void collectorLoop();
    std::vector<obs::StatsRegistry::Entry> mergedSnapshot() const;

    ServiceConfig _config;
    std::unique_ptr<store::ResultStore> _store;
    std::unique_ptr<store::HotResultCache> _hot;

    obs::StatsRegistry _stats;
    obs::Counter &_requests;
    obs::Counter &_parseErrors;
    obs::Counter &_storeHits;
    obs::Counter &_dedupHits;
    obs::Counter &_runs;
    obs::Counter &_runFailures;
    obs::Counter &_coalesced;
    obs::Counter &_fullDispatches;
    obs::Counter &_partialDispatches;
    obs::Counter &_rejectedBusy;
    obs::Gauge &_parkedGauge;
    obs::Histogram &_laneFill;
    obs::Histogram &_latency;

    std::chrono::steady_clock::time_point _startTime;
    std::atomic<uint64_t> _nextTraceId{1};
    bool _enabledTracer = false;
    std::unique_ptr<obs::TimeSeriesSampler> _sampler;

    mutable std::mutex _mutex;
    std::condition_variable _done;
    std::map<std::string, JobPtr> _inflight;  ///< canonical id -> job
    std::map<uint64_t, JobPtr> _tickets;
    uint64_t _nextTicket = 1;
    std::deque<CompletedTrace> _traces;  ///< last traceDepth requests.

    // Coalescing scheduler state (guarded by _mutex).  The collector
    // thread owns partial (window-expiry) dispatch; full queues
    // dispatch inline from the parking submit.
    std::map<std::string, ParkedBatchPtr> _parked;  ///< shape -> queue
    size_t _parkedCount = 0;  ///< total parked jobs across queues.
    bool _stopCollector = false;
    std::condition_variable _collectorWake;
    std::thread _collector;

    /** Last member: destroyed (and drained) before the state above. */
    sim::JobPool _pool;
};

} // namespace serve
} // namespace coolair

#endif // COOLAIR_SERVE_SERVICE_HPP
