/**
 * @file
 * Strict-input regression tests for the untrusted-byte boundaries:
 * the decimal reader behind every spec, payload and CSV number (which
 * must accept, reject and round exactly as strtod does),
 * weather CSV ingestion (atof silently zeroing garbage cells),
 * environment-variable knobs (atoi accepting typos), the result
 * store's size headers (unchecked digit accumulation wrapping to
 * small values and mis-framing the payload read), and the serve
 * protocol's request lines — including the telemetry verbs
 * (METRICS/SERIES/HEALTH/TRACE), whose arguments arrive straight off
 * a socket.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "environment/weather.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "store/result_store.hpp"
#include "util/parse.hpp"

using namespace coolair;
namespace fs = std::filesystem;

// ---------------------------------------------------------------- util/parse

TEST(ParseInt, AcceptsCompleteNumbers)
{
    long long v = 0;
    EXPECT_TRUE(util::parseInt("0", v));
    EXPECT_EQ(v, 0);
    EXPECT_TRUE(util::parseInt("-42", v));
    EXPECT_EQ(v, -42);
    EXPECT_TRUE(util::parseInt("+7", v));
    EXPECT_EQ(v, 7);
    EXPECT_TRUE(util::parseInt("9223372036854775807", v));
    EXPECT_EQ(v, 9223372036854775807LL);
}

TEST(ParseInt, RejectsPartialAndOverflow)
{
    long long v = 0;
    EXPECT_FALSE(util::parseInt("", v));
    EXPECT_FALSE(util::parseInt("8x", v));       // the atoi trap
    EXPECT_FALSE(util::parseInt("x8", v));
    EXPECT_FALSE(util::parseInt("-", v));
    EXPECT_FALSE(util::parseInt("1 ", v));
    EXPECT_FALSE(util::parseInt(" 1", v));
    EXPECT_FALSE(util::parseInt("9223372036854775808", v));  // LLONG_MAX+1
}

TEST(ParseDouble, AcceptsCompleteNumbers)
{
    double v = 0.0;
    EXPECT_TRUE(util::parseDouble("12.5", v));
    EXPECT_DOUBLE_EQ(v, 12.5);
    EXPECT_TRUE(util::parseDouble("-3e2", v));
    EXPECT_DOUBLE_EQ(v, -300.0);
    EXPECT_TRUE(util::parseDouble(".5", v));
    EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(ParseDouble, RejectsGarbageInfinityAndNan)
{
    double v = 0.0;
    EXPECT_FALSE(util::parseDouble("", v));
    EXPECT_FALSE(util::parseDouble("12abc", v));  // the atof trap
    EXPECT_FALSE(util::parseDouble("oops", v));
    EXPECT_FALSE(util::parseDouble("-", v));
    EXPECT_FALSE(util::parseDouble("1.5.2", v));
    EXPECT_FALSE(util::parseDouble("inf", v));
    EXPECT_FALSE(util::parseDouble("nan", v));
    EXPECT_FALSE(util::parseDouble("1e999", v));  // overflows to inf
    EXPECT_FALSE(util::parseDouble("0x10", v));   // hex floats
    EXPECT_FALSE(util::parseDouble(" 1", v));     // leading whitespace
}

namespace {

/** What util::readDecimal must answer: strtod reading all of a text
    (spec_io's former parseNumber, with strtod's ERANGE alongside). */
struct StrtodReading
{
    bool ok = false;
    double value = 0.0;
    bool rangeError = false;
};

StrtodReading
strtodToEnd(const std::string &s)
{
    StrtodReading r;
    if (s.empty())
        return r;
    errno = 0;
    char *end = nullptr;
    r.value = std::strtod(s.c_str(), &end);
    r.rangeError = errno == ERANGE;
    r.ok = end == s.c_str() + s.size();
    return r;
}

/** util::parseDouble as it was written on strtod alone. */
bool
strtodParseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    const char c = s[0];
    if (!(c == '-' || c == '+' || c == '.' || (c >= '0' && c <= '9')))
        return false;
    if (s.find_first_of("xX") != std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (end != s.c_str() + s.size() || errno == ERANGE)
        return false;
    if (!(v == v) || v > std::numeric_limits<double>::max() ||
        v < -std::numeric_limits<double>::max())
        return false;
    out = v;
    return true;
}

uint64_t
bitsOf(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** Both readers against their strtod originals: the same accept or
    reject, the same bits and the same range flag. */
void
expectSameAsStrtod(const std::string &s)
{
    const StrtodReading want = strtodToEnd(s);
    double got = -1.0;
    bool range_error = !want.rangeError;
    ASSERT_EQ(want.ok, util::readDecimal(s, got, range_error)) << "'" << s
                                                               << "'";
    if (want.ok) {
        ASSERT_EQ(bitsOf(want.value), bitsOf(got)) << "'" << s << "'";
        ASSERT_EQ(want.rangeError, range_error) << "'" << s << "'";
    }
    double want_d = -1.0, got_d = -1.0;
    ASSERT_EQ(strtodParseDouble(s, want_d), util::parseDouble(s, got_d))
        << "'" << s << "'";
    ASSERT_EQ(bitsOf(want_d), bitsOf(got_d)) << "'" << s << "'";
}

} // anonymous namespace

TEST(ReadDecimal, EdgeCasesMatchStrtod)
{
    for (const char *s :
         {"+5", "0x1p3", "inf", "-inf", "infinity", "nan", "-nan",
          "nan(123)", "4.9406564584124654e-324", "2.2250738585072009e-308",
          "1e-400", "1e999", ".5", "5.", "-0", "0e0", " 1", "1 ", "1.5.2",
          "-", "",
          // Around DBL_MIN and DBL_MAX, and zeros with extreme exponents.
          // "2.2250738585072012e-308" rounds up to DBL_MIN, and strtod
          // flags it with ERANGE.
          "2.2250738585072014e-308", "2.22507385850720138e-308",
          "2.2250738585072012e-308", "-2.2250738585072012e-308",
          "-2.2250738585072011e-308", "1.7976931348623157e308",
          "1.7976931348623158e308", "1.7976931348623159e308",
          "0e-99999999999999999999", "-0.000e99999", "1e", "1e+", "12abc",
          "0X10", "+.5e-3", "\v1", "1e-0000000000000000000000001",
          "00000000000000000000000000000000000000000000.25",
          "123456789012345678901234567890e-10"})
        expectSameAsStrtod(s);
}

TEST(ReadDecimal, MillionRandomPrintfTextsMatchStrtod)
{
    // The numbers a payload or spec holds: %.17g of raw bit patterns
    // (subnormals, infinities and NaNs included) and of metric-shaped
    // values.
    uint64_t state = 0x452821E638D01377ull;
    char num[32];
    for (int n = 0; n < 1000000; ++n) {
        uint64_t z = (state += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        const uint64_t bits = z ^ (z >> 31);
        double v = 0.0;
        switch (bits % 4) {
          case 0:
            std::memcpy(&v, &bits, sizeof(v));
            break;
          case 1:
            v = double(bits >> 11) * 0x1p-53 * 200.0 - 50.0;
            break;
          case 2:
            v = double(int64_t(bits) >> 20);
            break;
          default:
            v = double(int64_t(bits >> 34) - (int64_t(1) << 29)) / 1e4;
            break;
        }
        expectSameAsStrtod(
            std::string(num, size_t(std::snprintf(num, sizeof(num),
                                                  "%.17g", v))));
        if (HasFatalFailure())
            return;
    }
}

TEST(ParseSize, RejectsOverflowInsteadOfWrapping)
{
    uint64_t v = 0;
    EXPECT_TRUE(util::parseSize("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(util::parseSize("18446744073709551615", v));  // UINT64_MAX
    EXPECT_EQ(v, UINT64_MAX);
    // One past UINT64_MAX: digit accumulation would wrap to 0.
    EXPECT_FALSE(util::parseSize("18446744073709551616", v));
    EXPECT_FALSE(util::parseSize("99999999999999999999999", v));
    EXPECT_FALSE(util::parseSize("-1", v));  // sign is not a size
    EXPECT_FALSE(util::parseSize("+1", v));
    EXPECT_FALSE(util::parseSize("", v));
    EXPECT_FALSE(util::parseSize("12 ", v));
}

TEST(ParseSize, EnforcesCallerCap)
{
    uint64_t v = 0;
    EXPECT_TRUE(util::parseSize("1024", v, 1024));
    EXPECT_EQ(v, 1024u);
    EXPECT_FALSE(util::parseSize("1025", v, 1024));
}

TEST(EnvInt, UnsetYieldsFallbackSilently)
{
    ::unsetenv("COOLAIR_TEST_KNOB");
    EXPECT_EQ(util::envInt("COOLAIR_TEST_KNOB", 7), 7);
}

TEST(EnvInt, ParsesValidValues)
{
    ::setenv("COOLAIR_TEST_KNOB", "12", 1);
    EXPECT_EQ(util::envInt("COOLAIR_TEST_KNOB", 7), 12);
    ::unsetenv("COOLAIR_TEST_KNOB");
}

TEST(EnvInt, MalformedAndOutOfRangeFallBack)
{
    ::setenv("COOLAIR_TEST_KNOB", "8x", 1);  // typo'd knob
    EXPECT_EQ(util::envInt("COOLAIR_TEST_KNOB", 7), 7);
    ::setenv("COOLAIR_TEST_KNOB", "-1", 1);  // below the floor
    EXPECT_EQ(util::envInt("COOLAIR_TEST_KNOB", 7, 0, 100), 7);
    ::setenv("COOLAIR_TEST_KNOB", "101", 1);  // above the cap
    EXPECT_EQ(util::envInt("COOLAIR_TEST_KNOB", 7, 0, 100), 7);
    ::setenv("COOLAIR_TEST_KNOB", "", 1);  // empty counts as unset
    EXPECT_EQ(util::envInt("COOLAIR_TEST_KNOB", 7), 7);
    ::unsetenv("COOLAIR_TEST_KNOB");
}

// ------------------------------------------------------------- weather CSV

namespace {

environment::CsvWeatherSeries
parseCsv(const std::string &text)
{
    std::istringstream in(text);
    return environment::CsvWeatherSeries::fromCsv(in);
}

/** The invalid_argument message for a CSV that must fail to parse. */
std::string
csvError(const std::string &text)
{
    try {
        parseCsv(text);
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";  // parsed fine (the caller EXPECTs a non-empty message)
}

} // anonymous namespace

TEST(WeatherCsv, ParsesWellFormedRows)
{
    environment::CsvWeatherSeries series = parseCsv("hour,temp_c,rh\n"
                                                    "0,10.0,50\n"
                                                    "1,12.5,55\n"
                                                    "3,14.0,60\n");
    EXPECT_EQ(series.hours(), 4u);  // hour 2 repeats hour 1
    EXPECT_DOUBLE_EQ(series.sample(util::SimTime(1 * 3600)).tempC, 12.5);
    EXPECT_DOUBLE_EQ(series.sample(util::SimTime(2 * 3600)).tempC, 12.5);
}

TEST(WeatherCsv, RejectsGarbageCellsWithRowNumbers)
{
    // Before the fix, atof turned "1o.0" into 1.0 silently.
    EXPECT_NE(csvError("h,t,rh\n0,1o.0,50\n"), "");
    EXPECT_NE(csvError("h,t,rh\n0,10.0,50\n1,,55\n").find("weather row 2"),
              std::string::npos);
    EXPECT_NE(csvError("h,t,rh\n0,10.0,fifty\n").find("weather row 1"),
              std::string::npos);
    EXPECT_NE(csvError("h,t,rh\n0\n"), "");                // missing columns
    EXPECT_NE(csvError("h,t,rh\n0,10.0,50,9,9\n"), "");    // extra columns
    // rh_percent is optional; a 2-cell row is well-formed.
    EXPECT_EQ(csvError("h,t\n0,10.0\n"), "");
}

TEST(WeatherCsv, RejectsBadHourIndices)
{
    EXPECT_NE(csvError("h,t,rh\n-1,10.0,50\n"), "");       // negative
    EXPECT_NE(csvError("h,t,rh\n0.5,10.0,50\n"), "");      // fractional
    EXPECT_NE(csvError("h,t,rh\n99999999,10.0,50\n"), ""); // past a year
    EXPECT_NE(csvError("h,t,rh\n5,10.0,50\n5,11.0,50\n"),  // not increasing
              "");
    EXPECT_NE(csvError("h,t,rh\n5,10.0,50\n4,11.0,50\n"), "");
}

TEST(WeatherCsv, RejectsEmptyInput)
{
    EXPECT_NE(csvError("hour,temp_c,rh\n"), "");  // header only
    EXPECT_NE(csvError(""), "");
}

// --------------------------------------------------- store size headers

namespace {

/** The single .res entry file in @p dir. */
fs::path
onlyEntry(const fs::path &dir)
{
    fs::path found;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".res")
            found = e.path();
    return found;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const fs::path &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/** Replace one whole header line ("name old" -> "name new"). */
std::string
patchHeader(std::string blob, const std::string &name,
            const std::string &value)
{
    const std::string prefix = name + " ";
    const size_t at = blob.find("\n" + prefix) + 1;
    const size_t end = blob.find('\n', at);
    return blob.replace(at, end - at, prefix + value);
}

struct TempDir
{
    fs::path path;
    TempDir()
    {
        path = fs::temp_directory_path() /
               ("coolair_strict." +
                std::to_string(uint64_t(::getpid())) + "." +
                std::string(
                    ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name()));
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

TEST(StoreSizeHeaders, OverflowingCountIsCorruptNotCrash)
{
    TempDir dir;
    store::ResultStore store(dir.path.string(), "salt", 1);
    ASSERT_TRUE(store.store("spec-id", "payload text\n"));

    // A header whose digits wrap a 64-bit accumulator: with unchecked
    // accumulation this parsed as a small number and mis-framed the
    // payload read.
    const fs::path entry = onlyEntry(dir.path);
    ASSERT_FALSE(entry.empty());
    writeFile(entry, patchHeader(readFile(entry), "payload_bytes",
                                 "18446744073709551629"));  // wraps to 13

    std::string payload;
    EXPECT_FALSE(store.lookup("spec-id", payload));
    EXPECT_EQ(store.stats().corruptEntries, 1u);
    EXPECT_FALSE(fs::exists(entry));  // corrupt entries are removed
}

TEST(StoreSizeHeaders, AbsurdButNonWrappingCountIsCorrupt)
{
    TempDir dir;
    store::ResultStore store(dir.path.string(), "salt", 1);
    ASSERT_TRUE(store.store("spec-id", "payload text\n"));

    const fs::path entry = onlyEntry(dir.path);
    ASSERT_FALSE(entry.empty());
    // 4 GiB claimed: fits in 64 bits but exceeds the per-entry sanity
    // cap, so it must be rejected before any allocation is attempted.
    writeFile(entry, patchHeader(readFile(entry), "id_bytes",
                                 "4294967296"));

    std::string payload;
    EXPECT_FALSE(store.lookup("spec-id", payload));
    EXPECT_EQ(store.stats().corruptEntries, 1u);
}

TEST(StoreSizeHeaders, NonNumericCountIsCorrupt)
{
    TempDir dir;
    store::ResultStore store(dir.path.string(), "salt", 1);
    ASSERT_TRUE(store.store("spec-id", "payload text\n"));

    const fs::path entry = onlyEntry(dir.path);
    ASSERT_FALSE(entry.empty());
    writeFile(entry,
              patchHeader(readFile(entry), "payload_bytes", "13x"));

    std::string payload;
    EXPECT_FALSE(store.lookup("spec-id", payload));
    EXPECT_EQ(store.stats().corruptEntries, 1u);
}

TEST(StoreSizeHeaders, IntactEntryStillRoundTrips)
{
    TempDir dir;
    store::ResultStore store(dir.path.string(), "salt", 1);
    ASSERT_TRUE(store.store("spec-id", "payload text\n"));
    std::string payload;
    ASSERT_TRUE(store.lookup("spec-id", payload));
    EXPECT_EQ(payload, "payload text\n");
}

// --------------------------------------------------- serve protocol lines

namespace {

/** Parse one request line, expecting rejection; returns the error. */
std::string
requestError(const std::string &line)
{
    serve::Request req;
    std::string error;
    if (serve::parseRequest(line, req, error))
        return "";  // parsed fine (the caller EXPECTs a message)
    EXPECT_FALSE(error.empty()) << "silent rejection of '" << line << "'";
    return error;
}

} // anonymous namespace

TEST(ServeProtocol, ParsesTelemetryVerbs)
{
    serve::Request req;
    std::string error;
    ASSERT_TRUE(serve::parseRequest("METRICS", req, error)) << error;
    EXPECT_EQ(req.verb, serve::Verb::Metrics);
    ASSERT_TRUE(serve::parseRequest("HEALTH", req, error)) << error;
    EXPECT_EQ(req.verb, serve::Verb::Health);
    ASSERT_TRUE(serve::parseRequest("SERIES serve.requests 60", req,
                                    error))
        << error;
    EXPECT_EQ(req.verb, serve::Verb::Series);
    EXPECT_EQ(req.arg, "serve.requests 60");
    ASSERT_TRUE(serve::parseRequest("TRACE 7", req, error)) << error;
    EXPECT_EQ(req.verb, serve::Verb::Trace);
    EXPECT_EQ(req.arg, "7");
}

TEST(ServeProtocol, RejectsMalformedTelemetryLines)
{
    // Every rejection must name the problem; none may throw.  The
    // variants cover missing arguments, forbidden arguments, case
    // mangling, and whitespace abuse — all as they arrive off a socket.
    const char *lines[] = {
        "",
        " ",
        "METRICS now",       // METRICS takes no argument
        "HEALTH check",
        "SERIES",            // SERIES needs a stat name
        "TRACE",             // TRACE needs a ticket
        "metrics",           // verbs are case-sensitive
        "Series serve.requests",
        "TRACEROUTE 1",      // prefix of a verb is not the verb
        "METRICSX",
        "\tMETRICS",         // no leading whitespace tolerance
        " METRICS",
    };
    for (const char *line : lines)
        EXPECT_NE(requestError(line), "") << "'" << line << "'";
}

TEST(ServeProtocol, FrameHeaderRejectsHostileSizes)
{
    // The same strict-size discipline the store headers get: a count
    // that wraps, overflows the cap, or trails garbage is a framing
    // error before any allocation happens.
    std::string tag, error;
    uint64_t bytes = 0;
    EXPECT_TRUE(
        serve::parsePayloadHeader("METRICS 12", tag, bytes, error));
    EXPECT_EQ(tag, "METRICS");
    EXPECT_EQ(bytes, 12u);

    const char *bad[] = {
        "METRICS",                                // no size at all
        "METRICS ",                               // empty size
        "METRICS -1",                             // sign is not a size
        "METRICS 12x",                            // trailing garbage
        "METRICS 18446744073709551616",           // wraps uint64
        "METRICS 99999999999999999999999999",     // way past uint64
        "METRICS 16777217",                       // kMaxFrameBytes + 1
        "METRICS 12 13",                          // two sizes
    };
    for (const char *line : bad) {
        EXPECT_FALSE(serve::parsePayloadHeader(line, tag, bytes, error))
            << "'" << line << "'";
        EXPECT_FALSE(error.empty()) << "'" << line << "'";
    }
}

TEST(ServeProtocol, BusyErrIsOneStructuredLine)
{
    // The busy rejection is the one ERR clients key retry logic on:
    // it must keep its `ERR busy: ` prefix and stay a single line even
    // when the human-readable remainder is hostile (embedded newlines
    // would desynchronize the line protocol).
    const std::string framed = serve::frameErr(
        std::string(serve::kBusyPrefix) + "7 specs\nin flight\r\n");
    EXPECT_EQ(framed.rfind("ERR busy: ", 0), 0u) << framed;
    EXPECT_EQ(framed.find('\n'), framed.size() - 1) << framed;
    EXPECT_EQ(framed.find('\r'), std::string::npos) << framed;

    // No other rejection class may squat on the prefix by accident.
    EXPECT_EQ(serve::frameErr("parse failure: busy site").rfind(
                  "ERR busy: ", 0),
              std::string::npos);
}

TEST(ServeProtocol, RequestLineFuzzIsCrashFree)
{
    // Deterministic xorshift fuzz over request lines and frame
    // headers: arbitrary socket bytes must parse or reject with a
    // message — never throw, never reject silently.
    uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    const char *verbs[] = {"PING",   "SUBMIT", "WAIT",  "RUN",
                           "STATS",  "METRICS", "SERIES", "HEALTH",
                           "TRACE",  "SHUTDOWN"};
    for (int round = 0; round < 2000; ++round) {
        std::string line;
        if (round % 3 == 0)
            line = verbs[next() % 10];  // real verb, fuzzed argument
        const size_t len = next() % 48;
        for (size_t i = 0; i < len; ++i) {
            // Bias toward protocol-meaningful bytes, keep raw ones.
            const uint64_t r = next();
            const char pool[] = " \t\r\n;=0123456789-xkMETRICS";
            line += (r & 1) ? pool[(r >> 1) % (sizeof(pool) - 1)]
                            : char(r >> 1 & 0xff);
        }
        serve::Request req;
        std::string error;
        if (!serve::parseRequest(line, req, error)) {
            EXPECT_FALSE(error.empty()) << "silent reject: '" << line
                                        << "'";
        }
        std::string tag;
        uint64_t bytes = 0;
        error.clear();
        if (!serve::parsePayloadHeader(line, tag, bytes, error)) {
            EXPECT_FALSE(error.empty()) << "silent reject: '" << line
                                        << "'";
        } else {
            EXPECT_LE(bytes, serve::kMaxFrameBytes);
        }
    }
}

TEST(ServeSpec, HostileBatchValuesAreStructuredErrors)
{
    // The batch key is the coalescing opt-in and arrives off the
    // socket: out-of-range, non-numeric, and overflowing values must
    // come back as parse errors from a live coalescing service — no
    // crash, no giant lane allocation.
    serve::ServiceConfig config;
    config.coalesceLanes = 2;
    config.coalesceWaitMs = 5.0;
    serve::ExperimentService service(config);

    const char *bad[] = {
        "batch=-1",      "batch=1025",
        "batch=abc",     "batch=4x",
        "batch=1e3",     "batch=99999999999999999999",
    };
    for (const char *key : bad) {
        serve::ExperimentService::Submitted sub =
            service.submit(serve::specTextFromArg(
                std::string("run=day; day=10; site=newark; "
                            "system=baseline; workload=profile; "
                            "physics_step=120; ") +
                key));
        EXPECT_FALSE(sub.ok) << key;
        EXPECT_FALSE(sub.error.empty()) << key;
    }
    EXPECT_EQ(service.stats().counter("serve.parse_errors", "").value(),
              6);

    // The in-range value still parks and runs through the window.
    serve::ExperimentService::Reply ok = service.run(
        serve::specTextFromArg("run=day; day=10; site=newark; "
                               "system=baseline; workload=profile; "
                               "physics_step=120; batch=2"));
    EXPECT_TRUE(ok.ok) << ok.error;
}

TEST(ServeSpec, HostilePhysicsStepIsStructuredError)
{
    // The engine cannot run a step that is not finite, lies outside
    // 1 s to a day, or does not divide the sample interval.  Such a
    // SUBMIT must come back as a parse error: on reaching the engine it
    // would stop the whole serving process.
    serve::ExperimentService service;
    const char *bad[] = {"7",   "0.5", "45", "1e300", "nan",
                         "inf", "0",   "-30", "86401"};
    for (const char *step : bad) {
        serve::ExperimentService::Submitted sub =
            service.submit(serve::specTextFromArg(
                std::string("run=day; day=10; site=newark; "
                            "system=baseline; workload=profile; "
                            "physics_step=") +
                step));
        EXPECT_FALSE(sub.ok) << step;
        EXPECT_FALSE(sub.error.empty()) << step;
    }
    EXPECT_EQ(service.stats().counter("serve.parse_errors", "").value(),
              9);

    // The service still runs a valid spec afterwards.
    serve::ExperimentService::Reply ok = service.run(
        serve::specTextFromArg("run=day; day=10; site=newark; "
                               "system=baseline; workload=profile; "
                               "physics_step=120"));
    EXPECT_TRUE(ok.ok) << ok.error;
}
