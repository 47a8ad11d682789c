#ifndef COOLAIR_UTIL_STATS_HPP
#define COOLAIR_UTIL_STATS_HPP

/**
 * @file
 * Statistics accumulators used across metrics, validation, and benches:
 * streaming mean/variance/min/max, empirical CDFs, and daily-range
 * trackers (the paper's central temperature-variation metric).
 */

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <vector>

namespace coolair {
namespace util {

/**
 * Streaming scalar statistics: count, mean, variance (Welford), min, max.
 */
class RunningStats
{
  public:
    /** Add one sample.  Inline: the metrics collector calls this for
        every pod sensor of every sample. */
    void add(double x)
    {
        if (_count == 0) {
            _min = x;
            _max = x;
        } else {
            _min = std::min(_min, x);
            _max = std::max(_max, x);
        }
        ++_count;
        double delta = x - _mean;
        _mean += delta / double(_count);
        _m2 += delta * (x - _mean);
    }

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

    /** Reset to the empty state. */
    void reset();

    /** Number of samples added. */
    size_t count() const { return _count; }

    /** Sample mean; 0 when empty. */
    double mean() const { return _mean; }

    /** Unbiased sample variance; 0 with fewer than two samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Minimum sample; +inf when empty. */
    double min() const { return _min; }

    /** Maximum sample; -inf when empty. */
    double max() const { return _max; }

    /** max() - min(); 0 when empty. */
    double range() const;

    /** Sum of all samples. */
    double sum() const { return _mean * double(_count); }

  private:
    size_t _count = 0;
    double _mean = 0.0;
    double _m2 = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/**
 * Empirical cumulative distribution over stored samples.  Used for the
 * Figure 5 model-error CDFs.
 *
 * Thread safety: concurrent const accesses are safe (the lazy sort is
 * guarded by an internal mutex, so two readers never race).  add() and
 * merge() mutate and must not run concurrently with other accesses,
 * like any standard container.
 */
class EmpiricalCdf
{
  public:
    EmpiricalCdf() = default;
    EmpiricalCdf(const EmpiricalCdf &other);
    EmpiricalCdf &operator=(const EmpiricalCdf &other);

    /** Add one sample. */
    void add(double x);

    /** Append all of @p other's samples (cross-thread aggregation). */
    void merge(const EmpiricalCdf &other);

    /** Number of samples. */
    size_t count() const { return _samples.size(); }

    /** Fraction of samples <= x, in [0, 1]. */
    double fractionAtOrBelow(double x) const;

    /**
     * Value at quantile @p q in [0, 1] (nearest-rank).  Returns 0 when
     * empty.
     */
    double quantile(double q) const;

    /** All samples, sorted ascending. */
    const std::vector<double> &sorted() const;

  private:
    void ensureSorted() const;

    mutable std::mutex _sortMutex;
    mutable std::vector<double> _samples;
    mutable bool _sorted = true;
};

/**
 * Tracks the paper's "worst daily range" metric: per day, the max-minus-min
 * of each sensor; across sensors, the worst; across days, the average and
 * the min/max of those worst ranges (Figure 9's bars and whiskers).
 */
class DailyRangeTracker
{
  public:
    /** Construct for @p num_sensors temperature sensors. */
    explicit DailyRangeTracker(size_t num_sensors);

    /**
     * Record one reading for @p sensor on day @p day_index.  Days must be
     * fed in non-decreasing order; moving to a new day finalizes the
     * previous one.
     */
    void record(int day_index, size_t sensor, double value)
    {
        if (sensor >= _numSensors)
            recordPanic(true);
        if (_dayOpen && day_index < _currentDay)
            recordPanic(false);

        if (!_dayOpen) {
            _currentDay = day_index;
            _dayOpen = true;
        } else if (day_index != _currentDay) {
            closeDay();
            _currentDay = day_index;
            _dayOpen = true;
        }
        if (_daySeen[sensor]) {
            _dayMin[sensor] = std::min(_dayMin[sensor], value);
            _dayMax[sensor] = std::max(_dayMax[sensor], value);
        } else {
            _dayMin[sensor] = value;
            _dayMax[sensor] = value;
            _daySeen[sensor] = 1;
        }
    }

    /** Finalize the currently open day (call once at end of run). */
    void finish();

    /** Average over days of the worst per-day sensor range. */
    double averageWorstDailyRange() const;

    /** Smallest worst-daily-range across days. */
    double minWorstDailyRange() const;

    /** Largest worst-daily-range across days. */
    double maxWorstDailyRange() const;

    /** Number of completed days. */
    size_t dayCount() const { return _worstRanges.size(); }

  private:
    void closeDay();
    [[noreturn]] static void recordPanic(bool out_of_range);

    size_t _numSensors;
    int _currentDay = -1;
    bool _dayOpen = false;
    // Per-sensor min/max of the open day.  record() sits on the
    // engine's per-sample path for every pod, so the day state is two
    // flat arrays (plus a seen flag) rather than full RunningStats —
    // only the range survives closeDay().
    std::vector<double> _dayMin;
    std::vector<double> _dayMax;
    std::vector<unsigned char> _daySeen;
    std::vector<double> _worstRanges;
};

/** Linear interpolation between (x0, y0) and (x1, y1) at x. */
inline double
lerp(double x0, double y0, double x1, double y1, double x)
{
    if (x1 == x0)
        return y0;
    double t = (x - x0) / (x1 - x0);
    return y0 + t * (y1 - y0);
}

/** Clamp @p x to [lo, hi]. */
inline double
clamp(double x, double lo, double hi)
{
    return std::max(lo, std::min(hi, x));
}

} // namespace util
} // namespace coolair

#endif // COOLAIR_UTIL_STATS_HPP
