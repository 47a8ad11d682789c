/**
 * @file
 * Tests for the experiment-serving layer (src/serve): wire-protocol
 * parsing and framing, the determinism contract (a served RESULT is
 * byte-identical to running the same spec directly), warm answers from
 * the persistent store, dedup-in-flight (two concurrent identical
 * submissions share exactly one simulation), error paths that must
 * never kill the daemon, and a full socket round trip.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>

#include "obs/stats.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/batch_engine.hpp"
#include "sim/experiment.hpp"
#include "sim/spec_io.hpp"

using namespace coolair;
using namespace coolair::serve;
namespace fs = std::filesystem;

namespace {

/** A spec cheap enough to simulate in tens of milliseconds. */
const char kSpecLine[] =
    "run=day; day=10; site=newark; system=baseline; workload=profile; "
    "physics_step=120";

/** What the daemon must serve for kSpecLine, computed directly. */
std::string
directResultText()
{
    sim::ExperimentSpec spec =
        sim::parseSpec(specTextFromArg(kSpecLine));
    spec.resultCache = true;  // the service's normalization
    return sim::formatResult(sim::runExperiment(spec));
}

struct TempDir
{
    fs::path path;
    explicit TempDir(const std::string &tag)
    {
        path = fs::temp_directory_path() /
               ("coolair_serve_test." + tag + "." +
                std::to_string(uint64_t(::getpid())));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

} // anonymous namespace

// ------------------------------------------------------------- protocol

TEST(Protocol, ParsesEveryVerb)
{
    Request req;
    std::string err;
    ASSERT_TRUE(parseRequest("PING", req, err));
    EXPECT_EQ(req.verb, Verb::Ping);
    ASSERT_TRUE(parseRequest("SUBMIT site=newark; weeks=1", req, err));
    EXPECT_EQ(req.verb, Verb::Submit);
    EXPECT_EQ(req.arg, "site=newark; weeks=1");
    ASSERT_TRUE(parseRequest("WAIT 17", req, err));
    EXPECT_EQ(req.verb, Verb::Wait);
    EXPECT_EQ(req.arg, "17");
    ASSERT_TRUE(parseRequest("RUN site=newark", req, err));
    EXPECT_EQ(req.verb, Verb::Run);
    ASSERT_TRUE(parseRequest("STATS", req, err));
    EXPECT_EQ(req.verb, Verb::Stats);
    ASSERT_TRUE(parseRequest("SHUTDOWN\r", req, err));  // CR tolerated
    EXPECT_EQ(req.verb, Verb::Shutdown);
}

TEST(Protocol, RejectsMalformedRequests)
{
    Request req;
    std::string err;
    EXPECT_FALSE(parseRequest("", req, err));
    EXPECT_FALSE(parseRequest("FROB", req, err));         // unknown verb
    EXPECT_FALSE(parseRequest("SUBMIT", req, err));       // missing arg
    EXPECT_FALSE(parseRequest("WAIT", req, err));
    EXPECT_FALSE(parseRequest("PING extra", req, err));   // forbidden arg
    EXPECT_FALSE(parseRequest("STATS extra", req, err));
    EXPECT_FALSE(parseRequest("ping", req, err));         // case-sensitive
}

TEST(Protocol, SpecTextTurnsSemicolonsIntoLines)
{
    EXPECT_EQ(specTextFromArg("site=newark; weeks=1"),
              "site=newark\n weeks=1\n");
}

TEST(Protocol, FramesRoundTrip)
{
    const std::string frame = framePayload("RESULT", "hello\nworld\n");
    const size_t eol = frame.find('\n');
    ASSERT_NE(eol, std::string::npos);

    std::string tag, err;
    uint64_t bytes = 0;
    ASSERT_TRUE(
        parsePayloadHeader(frame.substr(0, eol), tag, bytes, err));
    EXPECT_EQ(tag, "RESULT");
    EXPECT_EQ(bytes, 12u);
    EXPECT_EQ(frame.substr(eol + 1), "hello\nworld\n");
}

TEST(Protocol, HeaderParsingIsStrict)
{
    std::string tag, err;
    uint64_t bytes = 0;
    EXPECT_FALSE(parsePayloadHeader("RESULT", tag, bytes, err));
    EXPECT_FALSE(parsePayloadHeader("RESULT 12x", tag, bytes, err));
    EXPECT_FALSE(parsePayloadHeader("RESULT -1", tag, bytes, err));
    // Wraps 64 bits: must be a framing error, not a small read.
    EXPECT_FALSE(parsePayloadHeader("RESULT 18446744073709551629", tag,
                                    bytes, err));
    // In-range for 64 bits but over the frame cap: refused before any
    // allocation.
    EXPECT_FALSE(parsePayloadHeader("RESULT 17179869184", tag, bytes, err));
}

TEST(Protocol, ErrFramesAreOneLine)
{
    EXPECT_EQ(frameErr("multi\nline\nmessage"),
              "ERR multi; line; message\n");
}

// -------------------------------------------------------------- service

TEST(Service, ServedResultMatchesDirectRunByteForByte)
{
    ExperimentService service;  // no store
    ExperimentService::Reply reply =
        service.run(specTextFromArg(kSpecLine));
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.payload, directResultText());
}

TEST(Service, WarmRequestsComeFromTheStoreUnchanged)
{
    TempDir dir("warm");
    const std::string text = specTextFromArg(kSpecLine);

    std::string cold_payload;
    {
        ServiceConfig config;
        config.cacheDir = dir.path.string();
        ExperimentService cold(config);
        ExperimentService::Reply reply = cold.run(text);
        ASSERT_TRUE(reply.ok) << reply.error;
        cold_payload = reply.payload;
        EXPECT_EQ(cold.stats().counter("serve.runs", "").value(), 1);
    }

    // A fresh service over the same directory: the store answers, no
    // simulation runs, and the bytes are identical.
    ServiceConfig config;
    config.cacheDir = dir.path.string();
    ExperimentService warm(config);
    ExperimentService::Reply reply = warm.run(text);
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.payload, cold_payload);
    EXPECT_EQ(reply.payload, directResultText());
    EXPECT_EQ(warm.stats().counter("serve.store_hits", "").value(), 1);
    EXPECT_EQ(warm.stats().counter("serve.runs", "").value(), 0);
}

TEST(Service, ConcurrentIdenticalSubmissionsShareOneRun)
{
    // Hold the first job open on its worker thread so the dedup window
    // is provably active when the second identical spec arrives.
    std::mutex m;
    std::condition_variable cv;
    bool started = false, release = false;

    ServiceConfig config;
    config.onJobStart = [&] {
        std::unique_lock<std::mutex> lock(m);
        started = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    };
    ExperimentService service(config);

    const std::string text = specTextFromArg(kSpecLine);
    ExperimentService::Submitted first = service.submit(text);
    ASSERT_TRUE(first.ok) << first.error;
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return started; });
    }

    // The identical spec joins the in-flight job instead of queueing a
    // second simulation.
    ExperimentService::Submitted second = service.submit(text);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_NE(first.ticket, second.ticket);
    EXPECT_EQ(service.stats().counter("serve.dedup_hits", "").value(), 1);

    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();

    ExperimentService::Reply a = service.wait(first.ticket);
    ExperimentService::Reply b = service.wait(second.ticket);
    ASSERT_TRUE(a.ok) << a.error;
    ASSERT_TRUE(b.ok) << b.error;
    EXPECT_EQ(a.payload, b.payload);
    EXPECT_EQ(service.stats().counter("serve.runs", "").value(), 1);
    EXPECT_EQ(service.stats().counter("serve.requests", "").value(), 2);
}

TEST(Service, BadSpecsAndUnknownTicketsAreErrorsNotCrashes)
{
    ExperimentService service;
    ExperimentService::Submitted bad = service.submit("site=atlantis\n");
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error, "");
    EXPECT_EQ(service.stats().counter("serve.parse_errors", "").value(),
              1);

    ExperimentService::Reply reply = service.wait(999);
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.error.find("unknown ticket"), std::string::npos);

    // Tickets are consumed: waiting twice reports the second unknown.
    ExperimentService::Submitted ok =
        service.submit(specTextFromArg(kSpecLine));
    ASSERT_TRUE(ok.ok);
    EXPECT_TRUE(service.wait(ok.ticket).ok);
    EXPECT_FALSE(service.wait(ok.ticket).ok);
}

TEST(Service, StatsTextCoversServeAndStoreCounters)
{
    TempDir dir("stats");
    ServiceConfig config;
    config.cacheDir = dir.path.string();
    ExperimentService service(config);
    ASSERT_TRUE(service.run(specTextFromArg(kSpecLine)).ok);

    const std::string text = service.statsText();
    EXPECT_NE(text.find("serve.requests"), std::string::npos);
    EXPECT_NE(text.find("serve.latency_seconds"), std::string::npos);
    EXPECT_NE(text.find("store.stores"), std::string::npos);
}

// ----------------------------------------------------------- coalescing

namespace {

/** A batch-opted spec line; distinct seeds make distinct lanes of one
    shape (batchShapeKey ignores the seed). */
std::string
batchSpecLine(int lanes, uint64_t seed)
{
    return "run=day; day=10; site=newark; system=baseline; "
           "workload=profile; physics_step=120; batch=" +
           std::to_string(lanes) + "; seed=" + std::to_string(seed);
}

/** What the daemon must serve for a coalesced lane set, computed by
    submitting the same specs directly to the batched engine. */
std::vector<std::string>
directBatchedTexts(const std::vector<std::string> &lines, int width)
{
    std::vector<sim::ExperimentSpec> specs;
    for (const std::string &line : lines) {
        sim::ExperimentSpec spec =
            sim::parseSpec(specTextFromArg(line));
        spec.resultCache = true;  // the service's normalization
        specs.push_back(spec);
    }
    std::vector<sim::LaneResult> lanes =
        sim::runBatchedGroup(specs, width);
    std::vector<std::string> texts;
    for (sim::LaneResult &lane : lanes) {
        EXPECT_TRUE(lane.ok) << lane.error;
        texts.push_back(sim::formatResult(lane.result));
    }
    return texts;
}

/** Sixteen same-shape batch=16 lines, distinct seeds. */
std::vector<std::string>
waveLines()
{
    std::vector<std::string> lines;
    for (uint64_t seed = 31; seed < 47; ++seed)
        lines.push_back(batchSpecLine(16, seed));
    return lines;
}

/** Global obs stats on for one scope, so engine counters such as
    batch.ragged_tail_lanes land in obs::registry(). */
struct ObsStatsOn
{
    ObsStatsOn()
    {
        obs::registry().clear();
        obs::setEnabled(true);
    }
    ~ObsStatsOn()
    {
        obs::setEnabled(false);
        obs::registry().clear();
    }
};

/** What one coalescing service did with a lane set. */
struct SplitOutcome
{
    std::vector<std::string> payloads;  ///< submission order.
    int engineRuns = 0;                 ///< onJobStart calls.
    obs::Histogram::Snapshot laneFill;  ///< serve.lane_fill.
    int64_t fullDispatches = 0;
    int64_t partialDispatches = 0;
    int64_t raggedTailLanes = 0;        ///< batch.ragged_tail_lanes.
};

/** Submit @p lines to a fresh coalescing service of @p threads workers
    and wait for every answer. */
SplitOutcome
runCoalesced(const std::vector<std::string> &lines, int threads,
             int lanes, double waitMs)
{
    ObsStatsOn obsOn;
    std::atomic<int> runs{0};
    ServiceConfig config;
    config.threads = threads;
    config.coalesceLanes = lanes;
    config.coalesceWaitMs = waitMs;
    config.onJobStart = [&runs] { runs.fetch_add(1); };

    SplitOutcome out;
    {
        ExperimentService service(config);
        std::vector<uint64_t> tickets;
        for (const std::string &line : lines) {
            ExperimentService::Submitted sub =
                service.submit(specTextFromArg(line));
            EXPECT_TRUE(sub.ok) << sub.error;
            tickets.push_back(sub.ticket);
        }
        for (uint64_t ticket : tickets) {
            ExperimentService::Reply reply = service.wait(ticket);
            EXPECT_TRUE(reply.ok) << reply.error;
            out.payloads.push_back(reply.payload);
        }
        out.laneFill =
            service.stats().histogram("serve.lane_fill").snapshot();
        out.fullDispatches =
            service.stats()
                .counter("serve.coalesce_full_dispatches")
                .value();
        out.partialDispatches =
            service.stats()
                .counter("serve.coalesce_partial_dispatches")
                .value();
    }
    out.engineRuns = runs.load();
    out.raggedTailLanes =
        obs::registry().counter("batch.ragged_tail_lanes").value();
    return out;
}

} // anonymous namespace

TEST(Coalesce, FullLaneSetMatchesDirectBatchedRunByteForByte)
{
    ServiceConfig config;
    config.coalesceLanes = 4;
    config.coalesceWaitMs = 60000;  // only a full lane set dispatches
    ExperimentService service(config);

    std::vector<std::string> lines;
    std::vector<uint64_t> tickets;
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        lines.push_back(batchSpecLine(4, seed));
        ExperimentService::Submitted sub =
            service.submit(specTextFromArg(lines.back()));
        ASSERT_TRUE(sub.ok) << sub.error;
        tickets.push_back(sub.ticket);
    }

    const std::vector<std::string> direct = directBatchedTexts(lines, 4);
    for (size_t i = 0; i < tickets.size(); ++i) {
        ExperimentService::Reply reply = service.wait(tickets[i]);
        ASSERT_TRUE(reply.ok) << reply.error;
        EXPECT_EQ(reply.payload, direct[i]) << lines[i];
    }

    EXPECT_EQ(service.stats().counter("serve.coalesced", "").value(), 4);
    EXPECT_EQ(service.stats()
                  .counter("serve.coalesce_full_dispatches", "")
                  .value(),
              1);
    EXPECT_EQ(service.stats()
                  .counter("serve.coalesce_partial_dispatches", "")
                  .value(),
              0);
}

TEST(Coalesce, PartialLaneSetDispatchesAfterTheWindow)
{
    ServiceConfig config;
    config.coalesceLanes = 8;      // never fills: only 3 submissions
    config.coalesceWaitMs = 25.0;  // so the window must fire
    ExperimentService service(config);

    std::vector<std::string> lines;
    std::vector<uint64_t> tickets;
    for (uint64_t seed = 10; seed < 13; ++seed) {
        lines.push_back(batchSpecLine(8, seed));
        ExperimentService::Submitted sub =
            service.submit(specTextFromArg(lines.back()));
        ASSERT_TRUE(sub.ok) << sub.error;
        tickets.push_back(sub.ticket);
    }

    // Lane results are composition-independent, so a 3-lane direct run
    // of the same set must produce the same bytes the window dispatch
    // serves.
    const std::vector<std::string> direct = directBatchedTexts(lines, 8);
    for (size_t i = 0; i < tickets.size(); ++i) {
        ExperimentService::Reply reply = service.wait(tickets[i]);
        ASSERT_TRUE(reply.ok) << reply.error;
        EXPECT_EQ(reply.payload, direct[i]) << lines[i];
    }

    EXPECT_EQ(service.stats()
                  .counter("serve.coalesce_full_dispatches", "")
                  .value(),
              0);
    EXPECT_GE(service.stats()
                  .counter("serve.coalesce_partial_dispatches", "")
                  .value(),
              1);
}

/**
 * A full lane set splits across the worker pool: with 4 workers the 16
 * parked submissions run as four 4-lane engine runs (one full
 * dispatch), each answer byte-identical to the direct 16-lane run, and
 * no sub-batch counts as a ragged tail.  One worker keeps one 16-lane
 * run.
 */
TEST(Coalesce, FullLaneSetSplitsAcrossWorkers)
{
    const std::vector<std::string> lines = waveLines();
    const std::vector<std::string> direct = directBatchedTexts(lines, 16);

    for (int threads : {4, 1}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const SplitOutcome out =
            runCoalesced(lines, threads, 16, /*waitMs=*/60000);
        EXPECT_EQ(out.payloads, direct);

        const double width = 16.0 / double(threads);
        EXPECT_EQ(out.engineRuns, threads);
        EXPECT_EQ(out.laneFill.count, threads);
        EXPECT_EQ(out.laneFill.min, width);
        EXPECT_EQ(out.laneFill.max, width);
        EXPECT_EQ(out.fullDispatches, 1);
        EXPECT_EQ(out.partialDispatches, 0);
        EXPECT_EQ(out.raggedTailLanes, 0);
    }
}

/**
 * A window-expired lane set splits too: 6 of 16 lanes on 4 workers run
 * as 2+2+1+1, still one partial dispatch, with the same bytes as the
 * direct 16-lane run.  Its lanes still count as ragged.
 */
TEST(Coalesce, WindowExpiredLaneSetAlsoSplits)
{
    const std::vector<std::string> lines = waveLines();
    const std::vector<std::string> direct = directBatchedTexts(lines, 16);

    // The window only has to outlast six submissions.
    const std::vector<std::string> parked(lines.begin(), lines.begin() + 6);
    const SplitOutcome out =
        runCoalesced(parked, /*threads=*/4, 16, /*waitMs=*/200.0);
    EXPECT_EQ(out.payloads,
              std::vector<std::string>(direct.begin(), direct.begin() + 6));

    EXPECT_EQ(out.engineRuns, 4);
    EXPECT_EQ(out.laneFill.count, 4);
    EXPECT_EQ(out.laneFill.min, 1.0);
    EXPECT_EQ(out.laneFill.max, 2.0);
    EXPECT_EQ(out.fullDispatches, 0);
    EXPECT_EQ(out.partialDispatches, 1);
    EXPECT_EQ(out.raggedTailLanes, 6);
}

/**
 * The split only uses idle workers: with solo runs holding 2 of 4
 * workers a 16-lane set runs as two 8-lane runs, and with all 4 held it
 * runs whole, since smaller runs would only queue behind the busy ones.
 * The bytes are the direct 16-lane bytes either way.
 */
TEST(Coalesce, BusyWorkersAreNotSplitOnto)
{
    const std::vector<std::string> lines = waveLines();
    const std::vector<std::string> direct = directBatchedTexts(lines, 16);

    for (int busy : {2, 4}) {
        SCOPED_TRACE("busy=" + std::to_string(busy));
        std::mutex m;
        std::condition_variable cv;
        int started = 0;
        bool release = false;

        ServiceConfig config;
        config.threads = 4;
        config.coalesceLanes = 16;
        config.coalesceWaitMs = 60000;  // only a full lane set dispatches
        config.onJobStart = [&] {
            std::unique_lock<std::mutex> lock(m);
            ++started;
            cv.notify_all();
            cv.wait(lock, [&] { return release; });
        };
        ExperimentService service(config);

        // Distinct solo specs (no batch=), each holding one worker.
        std::vector<uint64_t> held;
        for (int i = 0; i < busy; ++i) {
            ExperimentService::Submitted sub =
                service.submit(specTextFromArg(
                    "run=day; day=" + std::to_string(20 + i) +
                    "; site=newark; system=baseline; workload=profile; "
                    "physics_step=120"));
            ASSERT_TRUE(sub.ok) << sub.error;
            held.push_back(sub.ticket);
        }
        {
            std::unique_lock<std::mutex> lock(m);
            cv.wait(lock, [&] { return started == busy; });
        }

        std::vector<uint64_t> tickets;
        for (const std::string &line : lines) {
            ExperimentService::Submitted sub =
                service.submit(specTextFromArg(line));
            ASSERT_TRUE(sub.ok) << sub.error;
            tickets.push_back(sub.ticket);
        }
        {
            std::lock_guard<std::mutex> lock(m);
            release = true;
        }
        cv.notify_all();

        for (uint64_t ticket : held)
            EXPECT_TRUE(service.wait(ticket).ok);
        std::vector<std::string> payloads;
        for (uint64_t ticket : tickets) {
            ExperimentService::Reply reply = service.wait(ticket);
            EXPECT_TRUE(reply.ok) << reply.error;
            payloads.push_back(reply.payload);
        }
        EXPECT_EQ(payloads, direct);

        const int runs = std::max(1, 4 - busy);
        const obs::Histogram::Snapshot fill =
            service.stats().histogram("serve.lane_fill").snapshot();
        {
            std::lock_guard<std::mutex> lock(m);
            EXPECT_EQ(started - busy, runs);  // batched engine runs
        }
        EXPECT_EQ(fill.count, runs);
        EXPECT_EQ(fill.min, 16.0 / runs);
        EXPECT_EQ(fill.max, 16.0 / runs);
        EXPECT_EQ(service.stats()
                      .counter("serve.coalesce_full_dispatches")
                      .value(),
                  1);
    }
}

TEST(Coalesce, LaneFailureResolvesOnlyItsOwnRequest)
{
    ServiceConfig config;
    config.coalesceLanes = 3;
    config.coalesceWaitMs = 60000;
    config.onLaneStart = [](const sim::ExperimentSpec &spec) {
        if (spec.seed == 2)
            throw std::runtime_error("injected lane fault");
    };
    ExperimentService service(config);

    std::vector<uint64_t> tickets;
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        ExperimentService::Submitted sub = service.submit(
            specTextFromArg(batchSpecLine(3, seed)));
        ASSERT_TRUE(sub.ok) << sub.error;
        tickets.push_back(sub.ticket);
    }

    // The survivors run as a smaller batch with unchanged answers.
    const std::vector<std::string> direct = directBatchedTexts(
        {batchSpecLine(3, 1), batchSpecLine(3, 3)}, 3);

    ExperimentService::Reply first = service.wait(tickets[0]);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(first.payload, direct[0]);

    ExperimentService::Reply poisoned = service.wait(tickets[1]);
    EXPECT_FALSE(poisoned.ok);
    EXPECT_NE(poisoned.error.find("injected lane fault"),
              std::string::npos);

    ExperimentService::Reply third = service.wait(tickets[2]);
    ASSERT_TRUE(third.ok) << third.error;
    EXPECT_EQ(third.payload, direct[1]);

    EXPECT_EQ(service.stats().counter("serve.run_failures", "").value(),
              1);
}

TEST(Coalesce, JoinedRequestTraceShowsParkDispatchAndLane)
{
    ServiceConfig config;
    config.coalesceLanes = 2;
    config.coalesceWaitMs = 60000;
    config.traceDepth = 8;
    ExperimentService service(config);

    ExperimentService::Submitted a =
        service.submit(specTextFromArg(batchSpecLine(2, 21)));
    ASSERT_TRUE(a.ok) << a.error;
    ExperimentService::Submitted b =
        service.submit(specTextFromArg(batchSpecLine(2, 22)));
    ASSERT_TRUE(b.ok) << b.error;
    ASSERT_TRUE(service.wait(a.ticket).ok);
    ASSERT_TRUE(service.wait(b.ticket).ok);

    // Both joined requests carry the scheduler's whole park ->
    // dispatch -> lane story, not just the shared engine run.
    for (uint64_t ticket : {a.ticket, b.ticket}) {
        std::string json, error;
        ASSERT_TRUE(service.traceJson(ticket, json, error)) << error;
        EXPECT_NE(json.find("serve.park"), std::string::npos);
        EXPECT_NE(json.find("serve.batch_dispatch"), std::string::npos);
        EXPECT_NE(json.find("serve.lane"), std::string::npos);
    }
}

// ----------------------------------------------------- hot cache + busy

TEST(Service, HotHitsAreServedWithoutTouchingDisk)
{
    TempDir dir("hot");
    ServiceConfig config;
    config.cacheDir = dir.path.string();
    config.hotCacheBytes = 1 << 20;
    ExperimentService service(config);
    const std::string text = specTextFromArg(kSpecLine);

    ExperimentService::Reply cold = service.run(text);
    ASSERT_TRUE(cold.ok) << cold.error;
    ASSERT_EQ(service.store()->stats().lookups, 1);  // the cold miss

    ExperimentService::Reply hot = service.run(text);
    ASSERT_TRUE(hot.ok) << hot.error;
    EXPECT_EQ(hot.payload, cold.payload);

    // The repeat was answered from RAM: no second disk lookup, no
    // store hit, no second simulation.
    EXPECT_EQ(service.store()->stats().lookups, 1);
    EXPECT_EQ(service.stats().counter("serve.store_hits", "").value(),
              0);
    EXPECT_EQ(service.stats().counter("serve.runs", "").value(), 1);
    EXPECT_NE(service.statsText().find("serve.hot_hits"),
              std::string::npos);
}

TEST(Service, BusyBacklogRejectsFreshSubmitsAndDegradesHealth)
{
    std::mutex m;
    std::condition_variable cv;
    bool started = false, release = false;

    ServiceConfig config;
    config.maxPending = 1;
    config.onJobStart = [&] {
        std::unique_lock<std::mutex> lock(m);
        started = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    };
    ExperimentService service(config);

    ExperimentService::Submitted first =
        service.submit(specTextFromArg(kSpecLine));
    ASSERT_TRUE(first.ok) << first.error;
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return started; });
    }

    // A fresh spec over the cap is refused with the structured busy
    // error, and HEALTH degrades while the backlog is saturated.
    ExperimentService::Submitted fresh = service.submit(specTextFromArg(
        "run=day; day=11; site=newark; system=baseline; "
        "workload=profile; physics_step=120"));
    EXPECT_FALSE(fresh.ok);
    EXPECT_EQ(fresh.error.rfind(kBusyPrefix, 0), 0u) << fresh.error;
    EXPECT_EQ(service.stats().counter("serve.rejected_busy", "").value(),
              1);
    EXPECT_NE(service.healthText().find("DEGRADED"), std::string::npos);

    // A duplicate of the in-flight spec still joins: joins ride the
    // existing run and never add backlog.
    ExperimentService::Submitted join =
        service.submit(specTextFromArg(kSpecLine));
    ASSERT_TRUE(join.ok) << join.error;
    EXPECT_EQ(service.stats().counter("serve.dedup_hits", "").value(),
              1);

    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    EXPECT_TRUE(service.wait(first.ticket).ok);
    EXPECT_TRUE(service.wait(join.ticket).ok);
    EXPECT_EQ(service.healthText().find("DEGRADED"), std::string::npos);
}

// --------------------------------------------------------------- socket

TEST(Server, FullRoundTripOverUnixSocket)
{
    TempDir dir("socket");
    ServiceConfig service_config;
    service_config.cacheDir = (dir.path / "store").string();
    ExperimentService service(service_config);

    ServerConfig server_config;
    server_config.unixPath = (dir.path / "serve.sock").string();
    LineServer server(service, server_config);
    server.start();

    Client client = Client::connectUnix(server_config.unixPath);

    Client::Response pong = client.request("PING");
    ASSERT_TRUE(pong.ok) << pong.error;
    EXPECT_EQ(pong.status, "PONG");

    // SUBMIT + WAIT serves the byte-exact direct result.
    uint64_t ticket = 0;
    Client::Response sub =
        client.submit(kSpecLine, ticket);
    ASSERT_TRUE(sub.ok) << sub.error;
    Client::Response result =
        client.request("WAIT " + std::to_string(ticket));
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.payload, directResultText());

    // RUN answers warm now and stays byte-identical.
    Client::Response rerun = client.request(std::string("RUN ") + kSpecLine);
    ASSERT_TRUE(rerun.ok) << rerun.error;
    EXPECT_EQ(rerun.payload, result.payload);

    Client::Response bad = client.request("RUN site=atlantis");
    EXPECT_FALSE(bad.ok);

    Client::Response stats = client.request("STATS");
    ASSERT_TRUE(stats.ok) << stats.error;
    EXPECT_NE(stats.payload.find("serve.store_hits"), std::string::npos);
    EXPECT_NE(stats.payload.find("serve.connections"), std::string::npos);

    Client::Response bye = client.request("SHUTDOWN");
    ASSERT_TRUE(bye.ok) << bye.error;
    EXPECT_EQ(bye.status, "BYE");
    server.waitForShutdown();  // returns because SHUTDOWN was received
    server.stop();
}

TEST(Server, EphemeralTcpPortIsResolvedAndServes)
{
    ServerConfig server_config;
    server_config.tcpPort = 0;  // pick any free port
    ExperimentService service;
    LineServer server(service, server_config);
    server.start();
    ASSERT_GT(server.tcpPort(), 0);

    Client client = Client::connectTcp(server.tcpPort());
    Client::Response pong = client.request("PING");
    ASSERT_TRUE(pong.ok) << pong.error;
    EXPECT_EQ(pong.status, "PONG");

    Client::Response garbage = client.request("NOT A VERB");
    EXPECT_FALSE(garbage.ok);  // ERR reply, connection stays up

    Client::Response still = client.request("PING");
    ASSERT_TRUE(still.ok) << still.error;
    server.stop();
}
