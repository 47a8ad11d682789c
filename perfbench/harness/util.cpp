#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "store/result_store.hpp"

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
Tally::fail(const std::string &why, size_t n)
{
    failed += n;
    if (reasons.size() < 8)
        reasons.push_back(why);
}

int
benchWorkers(int cap)
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(int(hw), 1, cap);
}

std::string
specLine(const std::string &spec_text)
{
    std::string line;
    std::istringstream is(spec_text);
    std::string part;
    while (std::getline(is, part)) {
        if (part.empty())
            continue;
        if (!line.empty())
            line += "; ";
        line += part;
    }
    return line;
}

namespace {

/** The value texts of a formatResult payload, in line order. */
std::vector<std::string>
payloadValues(const std::string &payload)
{
    std::vector<std::string> values;
    std::istringstream is(payload);
    std::string line;
    while (std::getline(is, line)) {
        const size_t eq = line.find('=');
        if (eq == std::string::npos)
            continue;
        size_t at = eq + 1;
        while (at < line.size() && line[at] == ' ')
            ++at;
        values.push_back(line.substr(at));
    }
    return values;
}

bool
valuesWithinTolerance(const std::vector<std::string> &a,
                      const std::vector<std::string> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i] == b[i])
            continue;
        char *end_a = nullptr, *end_b = nullptr;
        const double va = std::strtod(a[i].c_str(), &end_a);
        const double vb = std::strtod(b[i].c_str(), &end_b);
        if (*end_a != '\0' || *end_b != '\0' || !std::isfinite(va) ||
            !std::isfinite(vb))
            return false;
        if (std::fabs(va - vb) >
            std::max(0.02, 0.02 * std::max(std::fabs(va), std::fabs(vb))))
            return false;
    }
    return true;
}

std::string
hex32(uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", v);
    return buf;
}

} // namespace

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * double(values.size() - 1);
    const size_t lo = size_t(rank);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (rank - double(lo)) * (values[hi] - values[lo]);
}

std::string
referencePath(const std::string &dir, const std::string &workload)
{
    return dir + "/" + workload + ".ref";
}

// Reference format: one line per experiment,
//   <crc32(spec line)> <crc32(payload)> <value> <value> ...
// with the payload's value texts in line order.  Keying on the spec
// line means a change to how the harness generates specs reads as a
// missing reference, never as a silent compare against another spec.
void
writeReferences(const std::string &path,
                const std::vector<std::string> &spec_texts,
                const std::vector<std::string> &payloads)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    out << "# perfbench references at seed " << kDefaultSeed
        << ": crc32(spec line) crc32(formatResult) values...\n";
    for (size_t i = 0; i < spec_texts.size(); ++i) {
        out << hex32(coolair::store::crc32(specLine(spec_texts[i])))
            << ' ' << hex32(coolair::store::crc32(payloads[i]));
        for (const std::string &v : payloadValues(payloads[i]))
            out << ' ' << v;
        out << '\n';
    }
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

bool
readReferences(const std::string &path,
               const std::vector<std::string> &spec_texts,
               std::vector<std::string> &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::map<std::string, std::string> byKey;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty() && line[0] != '#')
            byKey[line.substr(0, 8)] = line;
    out.assign(spec_texts.size(), std::string());
    for (size_t i = 0; i < spec_texts.size(); ++i) {
        auto it =
            byKey.find(hex32(coolair::store::crc32(specLine(spec_texts[i]))));
        if (it != byKey.end())
            out[i] = it->second;
    }
    return true;
}

bool
matchesReference(const std::string &payload, const std::string &ref,
                 RefCompare mode)
{
    std::istringstream is(ref);
    std::string specKey, payloadCrc, v;
    is >> specKey >> payloadCrc;
    std::vector<std::string> values;
    while (is >> v)
        values.push_back(v);
    switch (mode) {
      case RefCompare::None:
        return true;
      case RefCompare::Exact:
        return payloadCrc == hex32(coolair::store::crc32(payload)) &&
               values == payloadValues(payload);
      case RefCompare::Tolerance:
        return valuesWithinTolerance(payloadValues(payload), values);
    }
    return false;
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec) + double(ru.ru_utime.tv_usec) * 1e-6 +
           double(ru.ru_stime.tv_sec) + double(ru.ru_stime.tv_usec) * 1e-6;
}

double
stealSeconds()
{
    // First line of /proc/stat: cpu user nice system idle iowait irq
    // softirq steal ...  (clock ticks, summed over every CPU).
    std::ifstream in("/proc/stat");
    std::string cpu;
    unsigned long long f[8] = {};
    if (!(in >> cpu) || cpu != "cpu")
        return 0.0;
    for (auto &x : f)
        if (!(in >> x))
            return 0.0;
    const long ticks = sysconf(_SC_CLK_TCK);
    return ticks > 0 ? double(f[7]) / double(ticks) : 0.0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double
referenceLoopMs()
{
    // A dependent chain of multiplies and adds: a fixed amount of core
    // work whose time tracks host speed and steal, not the program.
    const auto t0 = Clock::now();
    volatile double sink = 0.0;
    double x = 1.0;
    for (int i = 0; i < 4000000; ++i)
        x = x * 1.0000001 + 1e-9;
    sink = x;
    (void)sink;
    return secondsSince(t0) * 1e3;
}

TimerCost
measureTimerCost()
{
    constexpr int kReads = 200000;
    std::vector<double> floors, pairs;
    for (int rep = 0; rep < 5; ++rep) {
        int64_t inner = 0;
        const auto t0 = Clock::now();
        for (int i = 0; i < kReads; ++i) {
            const auto a = Clock::now();
            inner += std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - a)
                         .count();
        }
        const double total =
            double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - t0)
                       .count());
        floors.push_back(double(inner) / kReads);
        pairs.push_back(total / kReads);
    }
    return {median(floors), median(pairs)};
}

} // namespace perfbench
