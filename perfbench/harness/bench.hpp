#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

/**
 * @file
 * Shared pieces of the perfbench harness: the workload interface, the
 * per-round record, the correctness tally, host measurements, and the
 * small text helpers (reference files, tolerance compare, JSON).
 *
 * The harness drives the simulator only through its public headers:
 * every number here is measured from outside the program.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** The seed the committed references were recorded at. */
inline constexpr uint64_t kDefaultSeed = 1;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /** Stop after set-up and report only setup_s. */
    bool setupOnly = false;
    /** Directory of committed reference results. */
    std::string referenceDir;
    /** When set, write this workload's references there and exit. */
    std::string recordDir;
};

/** Outcome of one timed round of a workload. */
struct Round
{
    double wallS = 0.0;
    /** formatResult text per experiment, in spec order. */
    std::vector<std::string> payloads;
    /** Client-observed request latencies [ms]. */
    std::vector<double> latencyMs;
    /** Experiments that returned an error instead of a result. */
    size_t errors = 0;
};

/** Operations attempted and failed, with the first few reasons. */
struct Tally
{
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<std::string> reasons;

    void fail(const std::string &why, size_t n = 1);
};

/** Per-layer metric values of one traced run, by name. */
using LayerMetrics = std::map<std::string, double>;

/** How a workload's results compare to its committed references. */
enum class RefCompare
{
    None,      ///< no committed references (checked another way)
    Exact,     ///< byte-identical formatResult text
    Tolerance  ///< DESIGN.md §10: every value within 2% or 0.02
};

/**
 * One benchmark workload.  Each runs in its own process: set-up once,
 * then timed rounds until the run's seconds are spent.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Everything before the first timed round (timed as setup_s). */
    virtual void setup() = 0;

    /** One untraced timed round. */
    virtual Round round() = 0;

    /**
     * One traced round: same work as round(), with per-layer timing
     * and counters accumulated into the workload's ledger.
     */
    virtual Round tracedRound() = 0;

    /** Per-layer metrics averaged over the traced rounds. */
    virtual void layerMetrics(LayerMetrics &out) = 0;

    /**
     * Checks that need no committed reference and run after the timed
     * phase (in-process re-runs, warm == cold); mismatches are failed
     * operations.
     */
    virtual void verify(const std::vector<std::string> &payloads,
                        Tally &tally) = 0;

    /** Spec text of every experiment in a round, in spec order. */
    virtual const std::vector<std::string> &specTexts() const = 0;

    virtual RefCompare refCompare() const = 0;

    /** Busy worker threads (1 for single-threaded workloads). */
    virtual int workers() const = 0;

    /** Seconds spent in sim::prewarmSharedState during set-up. */
    double learnSeconds = 0.0;
};

/** Build the named workload; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed);

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

/** Worker threads for a parallel workload: min(@p cap, cores). */
int benchWorkers(int cap);

/** Spec-file text as one protocol line (newlines become "; "). */
std::string specLine(const std::string &spec_text);

/** Linear-interpolated quantile of @p values (copied and sorted). */
double quantile(std::vector<double> values, double q);

/** Median of @p values. */
inline double median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** Reference file of @p workload under @p dir. */
std::string referencePath(const std::string &dir,
                          const std::string &workload);

/** Write one reference line per spec (see util.cpp for the format). */
void writeReferences(const std::string &path,
                     const std::vector<std::string> &spec_texts,
                     const std::vector<std::string> &payloads);

/**
 * Read references keyed by spec text; false when the file is missing
 * or malformed.  out[i] is the payload for spec_texts[i] ("" when the
 * file holds no entry for it).
 */
bool readReferences(const std::string &path,
                    const std::vector<std::string> &spec_texts,
                    std::vector<std::string> &out);

/** True when @p payload matches reference line @p ref under @p mode. */
bool matchesReference(const std::string &payload, const std::string &ref,
                      RefCompare mode);

/** Process CPU time (user + system) [s]. */
double processCpuSeconds();

/** Machine-wide hypervisor steal time so far [s], summed over CPUs. */
double stealSeconds();

/** Peak resident set of this process [MiB]. */
double peakRssMb();

/** A fixed arithmetic loop owned by the benchmark, timed [ms]. */
double referenceLoopMs();

/**
 * Cost of one clock read as seen by steady_clock intervals: @c floorNs
 * is what an empty timed call reports, @c pairNs what it adds to an
 * enclosing interval (two reads).
 */
struct TimerCost
{
    double floorNs = 0.0;
    double pairNs = 0.0;
};

TimerCost measureTimerCost();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
