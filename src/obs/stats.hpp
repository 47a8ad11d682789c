#ifndef COOLAIR_OBS_STATS_HPP
#define COOLAIR_OBS_STATS_HPP

/**
 * @file
 * The process-wide statistics registry: hierarchical dotted-name
 * counters, gauges, and weighted histograms, dumped gem5-style to text
 * or JSON.
 *
 * Design rules (the overhead/determinism contract, DESIGN.md
 * §"Observability"):
 *
 *  - Collection is *disabled by default*.  Hot-path components keep
 *    plain local counters (an int64 increment, no atomics, no names)
 *    and the scenario layer harvests them into a registry once per run,
 *    so a run with observability off pays essentially nothing.
 *  - obs::enabled() is one relaxed atomic load — the only check
 *    instrumentation sites that *do* touch a shared registry make.
 *  - Registry mutation is thread-safe: counters are relaxed atomics
 *    (integer addition commutes, so concurrent accumulation is
 *    deterministic), histograms and registration take a mutex.
 *  - dump() emits stats sorted by name, so output is byte-identical
 *    regardless of registration or scheduling order.  Stats whose value
 *    depends on wall-clock time or scheduling (job timings) carry
 *    StatFlags::kWallClock and can be skipped for deterministic output
 *    (the COOLAIR_THREADS=1 vs 8 byte-parity tests do exactly that).
 */

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace coolair {
namespace obs {

/** Qualifiers attached to a stat at registration. */
enum StatFlags : uint32_t
{
    kNoFlags = 0,

    /**
     * The value reflects wall-clock time or thread scheduling (job
     * durations, queue waits) rather than the simulation, so it is not
     * reproducible across runs or thread counts.  Deterministic dumps
     * (DumpOptions::skipWallClock) omit these.
     */
    kWallClock = 1u << 0,
};

/** A monotonically accumulating integer stat. */
class Counter
{
  public:
    void add(int64_t n) { _value.fetch_add(n, std::memory_order_relaxed); }
    void inc() { add(1); }
    int64_t value() const { return _value.load(std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> _value{0};
};

/** A last-value-wins double stat (e.g. a rate computed at end of run). */
class Gauge
{
  public:
    void set(double v)
    {
        _value.store(v, std::memory_order_relaxed);
        _set.store(true, std::memory_order_relaxed);
    }
    double value() const { return _value.load(std::memory_order_relaxed); }
    bool isSet() const { return _set.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> _value{0.0};
    std::atomic<bool> _set{false};
};

/**
 * A weighted sample distribution: count, weighted mean, min, max, and
 * (optionally) fixed value buckets for quantile estimation.
 * Record with weight = seconds covered for a time-weighted histogram
 * (the mean is then a time average), or weight 1 for plain samples.
 * Empty histograms report mean/min/max of 0.
 *
 * Buckets: setBuckets() installs strictly-increasing upper bounds (the
 * Prometheus `le` boundaries).  record() then also increments the first
 * bucket whose bound >= value; samples above every bound count only in
 * the total.  Bucket counts are stored per-bucket (non-cumulative);
 * the Prometheus renderer prefix-sums them into cumulative `le` series.
 * Moment-only histograms (no buckets) cost exactly what they did
 * before — buckets are opt-in per stat, never a hot-path default.
 */
class Histogram
{
  public:
    void record(double value, double weight = 1.0);

    /**
     * Install bucket upper bounds (must be strictly increasing; throws
     * std::invalid_argument otherwise).  Resets any previously
     * accumulated bucket counts; moments are preserved.
     */
    void setBuckets(const std::vector<double> &upperBounds);

    /** Immutable copy of the accumulated moments. */
    struct Snapshot
    {
        int64_t count = 0;
        double weightSum = 0.0;
        double weightedSum = 0.0;
        double min = 0.0;
        double max = 0.0;

        /** Bucket upper bounds; empty for moment-only histograms. */
        std::vector<double> bucketBounds;

        /** Per-bucket (non-cumulative) sample counts, sized like
            bucketBounds. */
        std::vector<int64_t> bucketCounts;

        double mean() const
        {
            return weightSum > 0.0 ? weightedSum / weightSum : 0.0;
        }

        /**
         * Value below which @p q (in [0,1]) of the samples fall,
         * linearly interpolated within the owning bucket; 0 with no
         * buckets or no samples.  The last bound caps the estimate
         * (Prometheus histogram_quantile semantics).
         */
        double quantile(double q) const;
    };

    Snapshot snapshot() const;

    /**
     * Fold another histogram's moments (and, when both sides carry the
     * same bucket bounds, bucket counts) into this one.  Mismatched
     * bounds drop the buckets and keep the moments — a merge never
     * invents counts it cannot align.
     */
    void combine(const Snapshot &other);

  private:
    mutable std::mutex _mutex;
    Snapshot _s;
    bool _any = false;
};

/** What kind of stat a registry entry is. */
enum class StatKind
{
    Counter,
    Gauge,
    Histogram
};

/** Dump/snapshot filtering and formatting options. */
struct DumpOptions
{
    /**
     * Omit stats flagged kWallClock, leaving only values that are
     * byte-reproducible across runs and thread counts.
     */
    bool skipWallClock = false;
};

/**
 * A named collection of stats.  Registration returns stable references
 * (entries are never removed by registration or dumping), so components
 * may cache the returned Counter&/Histogram& and skip the name lookup.
 *
 * Registering the same name twice returns the same stat; registering it
 * with a different kind throws std::invalid_argument.
 */
class StatsRegistry
{
  public:
    StatsRegistry() = default;
    StatsRegistry(const StatsRegistry &) = delete;
    StatsRegistry &operator=(const StatsRegistry &) = delete;

    Counter &counter(const std::string &name, const std::string &desc = "",
                     uint32_t flags = kNoFlags);
    Gauge &gauge(const std::string &name, const std::string &desc = "",
                 uint32_t flags = kNoFlags);

    /**
     * Register (or look up) a histogram.  @p buckets, when non-empty on
     * first registration, installs Prometheus-style upper bounds (see
     * Histogram::setBuckets); later registrations of the same name keep
     * the first registration's bounds, mirroring how desc behaves.
     */
    Histogram &histogram(const std::string &name,
                         const std::string &desc = "",
                         uint32_t flags = kNoFlags,
                         const std::vector<double> &buckets = {});

    /** One registry entry, for snapshot()-based consumers. */
    struct Entry
    {
        std::string name;
        std::string desc;
        StatKind kind = StatKind::Counter;
        uint32_t flags = kNoFlags;
        int64_t counterValue = 0;       ///< kind == Counter
        double gaugeValue = 0.0;        ///< kind == Gauge
        bool gaugeSet = false;          ///< kind == Gauge
        Histogram::Snapshot histogram;  ///< kind == Histogram
    };

    /** Entries sorted by name, filtered per @p options. */
    std::vector<Entry> snapshot(const DumpOptions &options = {}) const;

    /**
     * Fold @p other into this registry: counters add, gauges take the
     * other's value when set, histograms combine moments.  Merging the
     * same sequence of registries in the same order always produces the
     * same result, so sweep drivers merging per-job registries in spec
     * order get scheduling-independent totals.
     */
    void merge(const StatsRegistry &other);

    /** Drop every stat (references from earlier registration dangle). */
    void clear();

    /**
     * gem5-style text dump: `name  value  # desc` lines sorted by name,
     * bracketed by Begin/End markers.  Histograms expand to ::count,
     * ::mean, ::min, ::max (and ::weight when weighted).
     */
    void dumpText(std::ostream &os, const DumpOptions &options = {}) const;

    /** The same content as one JSON object keyed by stat name. */
    void dumpJson(std::ostream &os, const DumpOptions &options = {},
                  int indent = 0) const;

  private:
    struct Stat
    {
        std::string desc;
        StatKind kind = StatKind::Counter;
        uint32_t flags = kNoFlags;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> hist;
    };

    Stat &lookup(const std::string &name, StatKind kind,
                 const std::string &desc, uint32_t flags,
                 bool *created = nullptr);

    mutable std::mutex _mutex;
    std::map<std::string, Stat> _stats;
};

/** The process-wide registry sweep drivers and the runner publish to. */
StatsRegistry &registry();

/**
 * Whether global stats collection / publication is on.  One relaxed
 * atomic load; defaults to false.
 */
bool enabled();

/** Turn global stats collection on or off. */
void setEnabled(bool on);

/**
 * Format a double exactly as every obs JSON/text writer does (%.17g,
 * value-preserving), so dumps are byte-stable for equal values.
 */
std::string formatDouble(double v);

} // namespace obs
} // namespace coolair

#endif // COOLAIR_OBS_STATS_HPP
