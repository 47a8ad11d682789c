#include "obs/stats.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "util/json.hpp"

namespace coolair {
namespace obs {

namespace {

std::atomic<bool> g_enabled{false};

const char *
kindName(StatKind kind)
{
    switch (kind) {
      case StatKind::Counter:   return "counter";
      case StatKind::Gauge:     return "gauge";
      case StatKind::Histogram: return "histogram";
    }
    return "unknown";
}

} // anonymous namespace

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

StatsRegistry &
registry()
{
    static StatsRegistry global;
    return global;
}

std::string
formatDouble(double v)
{
    // %.17g preserves the exact value, mirroring spec_io's convention;
    // integral values print without a fraction for readability.
    char buf[64];
    if (v == int64_t(v) && v > -1e15 && v < 1e15)
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
    else
        std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------------------
// Histogram.
// ---------------------------------------------------------------------------

void
Histogram::record(double value, double weight)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _s.count += 1;
    _s.weightSum += weight;
    _s.weightedSum += value * weight;
    if (!_any || value < _s.min)
        _s.min = value;
    if (!_any || value > _s.max)
        _s.max = value;
    if (!_s.bucketBounds.empty()) {
        // First bound >= value (Prometheus `le` semantics); a sample
        // above every bound counts only in the total.
        auto it = std::lower_bound(_s.bucketBounds.begin(),
                                   _s.bucketBounds.end(), value);
        if (it != _s.bucketBounds.end())
            ++_s.bucketCounts[size_t(it - _s.bucketBounds.begin())];
    }
    _any = true;
}

void
Histogram::setBuckets(const std::vector<double> &upperBounds)
{
    for (size_t i = 1; i < upperBounds.size(); ++i)
        if (!(upperBounds[i - 1] < upperBounds[i]))
            throw std::invalid_argument(
                "Histogram::setBuckets: bounds must be strictly "
                "increasing");
    std::lock_guard<std::mutex> lock(_mutex);
    _s.bucketBounds = upperBounds;
    _s.bucketCounts.assign(upperBounds.size(), 0);
}

double
Histogram::Snapshot::quantile(double q) const
{
    if (count == 0 || bucketBounds.empty())
        return 0.0;
    q = std::min(1.0, std::max(0.0, q));
    const double target = q * double(count);
    int64_t cumulative = 0;
    double lower = 0.0;
    for (size_t i = 0; i < bucketBounds.size(); ++i) {
        const int64_t in_bucket = bucketCounts[i];
        if (double(cumulative) + double(in_bucket) >= target &&
            in_bucket > 0) {
            const double frac =
                (target - double(cumulative)) / double(in_bucket);
            return lower + frac * (bucketBounds[i] - lower);
        }
        cumulative += in_bucket;
        lower = bucketBounds[i];
    }
    // Target falls above every bound: cap at the last bound, exactly
    // like Prometheus histogram_quantile.
    return bucketBounds.back();
}

Histogram::Snapshot
Histogram::snapshot() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _s;
}

void
Histogram::combine(const Snapshot &other)
{
    if (other.count == 0)
        return;
    std::lock_guard<std::mutex> lock(_mutex);
    if (!_any && _s.bucketBounds.empty()) {
        _s = other;
    } else {
        _s.count += other.count;
        _s.weightSum += other.weightSum;
        _s.weightedSum += other.weightedSum;
        if (_any) {
            _s.min = std::min(_s.min, other.min);
            _s.max = std::max(_s.max, other.max);
        } else {
            _s.min = other.min;
            _s.max = other.max;
        }
        if (_s.bucketBounds == other.bucketBounds) {
            for (size_t i = 0; i < _s.bucketCounts.size(); ++i)
                _s.bucketCounts[i] += other.bucketCounts[i];
        } else {
            // Mismatched bounds cannot be aligned; keep the moments,
            // drop the buckets rather than invent counts.
            _s.bucketBounds.clear();
            _s.bucketCounts.clear();
        }
    }
    _any = true;
}

// ---------------------------------------------------------------------------
// StatsRegistry.
// ---------------------------------------------------------------------------

StatsRegistry::Stat &
StatsRegistry::lookup(const std::string &name, StatKind kind,
                      const std::string &desc, uint32_t flags,
                      bool *created)
{
    if (name.empty())
        throw std::invalid_argument("StatsRegistry: empty stat name");

    if (created)
        *created = false;
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _stats.find(name);
    if (it != _stats.end()) {
        if (it->second.kind != kind)
            throw std::invalid_argument(
                "StatsRegistry: stat '" + name + "' already registered as " +
                kindName(it->second.kind) + ", requested as " +
                kindName(kind));
        return it->second;
    }

    Stat stat;
    stat.desc = desc;
    stat.kind = kind;
    stat.flags = flags;
    switch (kind) {
      case StatKind::Counter:
        stat.counter = std::make_unique<Counter>();
        break;
      case StatKind::Gauge:
        stat.gauge = std::make_unique<Gauge>();
        break;
      case StatKind::Histogram:
        stat.hist = std::make_unique<Histogram>();
        break;
    }
    if (created)
        *created = true;
    return _stats.emplace(name, std::move(stat)).first->second;
}

Counter &
StatsRegistry::counter(const std::string &name, const std::string &desc,
                       uint32_t flags)
{
    return *lookup(name, StatKind::Counter, desc, flags).counter;
}

Gauge &
StatsRegistry::gauge(const std::string &name, const std::string &desc,
                     uint32_t flags)
{
    return *lookup(name, StatKind::Gauge, desc, flags).gauge;
}

Histogram &
StatsRegistry::histogram(const std::string &name, const std::string &desc,
                         uint32_t flags,
                         const std::vector<double> &buckets)
{
    bool created = false;
    Histogram &h =
        *lookup(name, StatKind::Histogram, desc, flags, &created).hist;
    // Bounds stick from the first registration only, like desc; later
    // callers (merges, scrapes) must not reset accumulated counts.
    if (created && !buckets.empty())
        h.setBuckets(buckets);
    return h;
}

std::vector<StatsRegistry::Entry>
StatsRegistry::snapshot(const DumpOptions &options) const
{
    std::vector<Entry> out;
    std::lock_guard<std::mutex> lock(_mutex);
    out.reserve(_stats.size());
    for (const auto &[name, stat] : _stats) {  // std::map: sorted by name
        if (options.skipWallClock && (stat.flags & kWallClock))
            continue;
        Entry e;
        e.name = name;
        e.desc = stat.desc;
        e.kind = stat.kind;
        e.flags = stat.flags;
        switch (stat.kind) {
          case StatKind::Counter:
            e.counterValue = stat.counter->value();
            break;
          case StatKind::Gauge:
            e.gaugeValue = stat.gauge->value();
            e.gaugeSet = stat.gauge->isSet();
            break;
          case StatKind::Histogram:
            e.histogram = stat.hist->snapshot();
            break;
        }
        out.push_back(std::move(e));
    }
    return out;
}

void
StatsRegistry::merge(const StatsRegistry &other)
{
    for (const Entry &e : other.snapshot()) {
        switch (e.kind) {
          case StatKind::Counter:
            counter(e.name, e.desc, e.flags).add(e.counterValue);
            break;
          case StatKind::Gauge:
            if (e.gaugeSet)
                gauge(e.name, e.desc, e.flags).set(e.gaugeValue);
            break;
          case StatKind::Histogram:
            // Pass the source's bounds through so a fresh merge target
            // (statsText, sampler snapshots) reproduces the buckets.
            histogram(e.name, e.desc, e.flags, e.histogram.bucketBounds)
                .combine(e.histogram);
            break;
        }
    }
}

void
StatsRegistry::clear()
{
    std::lock_guard<std::mutex> lock(_mutex);
    _stats.clear();
}

void
StatsRegistry::dumpText(std::ostream &os, const DumpOptions &options) const
{
    auto line = [&os](const std::string &name, const std::string &value,
                      const std::string &desc) {
        os << name;
        for (size_t pad = name.size(); pad < 44; ++pad)
            os << ' ';
        os << ' ' << value;
        if (!desc.empty()) {
            for (size_t pad = value.size(); pad < 16; ++pad)
                os << ' ';
            os << "  # " << desc;
        }
        os << '\n';
    };

    os << "---------- Begin Simulation Statistics ----------\n";
    for (const Entry &e : snapshot(options)) {
        switch (e.kind) {
          case StatKind::Counter:
            line(e.name, std::to_string(e.counterValue), e.desc);
            break;
          case StatKind::Gauge:
            line(e.name, formatDouble(e.gaugeValue), e.desc);
            break;
          case StatKind::Histogram: {
            const Histogram::Snapshot &h = e.histogram;
            line(e.name + "::count", std::to_string(h.count), e.desc);
            line(e.name + "::mean", formatDouble(h.mean()), "");
            line(e.name + "::min", formatDouble(h.min), "");
            line(e.name + "::max", formatDouble(h.max), "");
            line(e.name + "::weight", formatDouble(h.weightSum), "");
            break;
          }
        }
    }
    os << "---------- End Simulation Statistics ----------\n";
}

void
StatsRegistry::dumpJson(std::ostream &os, const DumpOptions &options,
                        int indent) const
{
    const std::string pad(size_t(indent), ' ');
    const std::string inner = pad + "  ";
    os << "{";
    bool first = true;
    for (const Entry &e : snapshot(options)) {
        if (!first)
            os << ",";
        first = false;
        os << "\n" << inner << util::jsonQuote(e.name) << ": ";
        switch (e.kind) {
          case StatKind::Counter:
            os << e.counterValue;
            break;
          case StatKind::Gauge:
            os << formatDouble(e.gaugeValue);
            break;
          case StatKind::Histogram: {
            const Histogram::Snapshot &h = e.histogram;
            os << "{\"count\": " << h.count
               << ", \"mean\": " << formatDouble(h.mean())
               << ", \"min\": " << formatDouble(h.min)
               << ", \"max\": " << formatDouble(h.max)
               << ", \"weight\": " << formatDouble(h.weightSum) << "}";
            break;
          }
        }
    }
    if (!first)
        os << "\n" << pad;
    os << "}";
}

} // namespace obs
} // namespace coolair
