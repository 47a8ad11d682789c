/**
 * @file
 * End-to-end tests for the persistent experiment result cache: warm
 * sweeps must be byte-identical to cold ones at any thread count,
 * corrupt or stale entries must transparently re-run, failing specs
 * must never poison the store, and cache activity must show up in
 * RunReport JSON.  The byte forms that decide which entry a spec finds
 * (identity text, store key, %.17g number text, entry bytes) are pinned
 * at the end.  The warm-vs-cold speedup gate lives in
 * tests/test_cache_speedup.cpp (slow-labelled).
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "environment/world_grid.hpp"
#include "sim/result_cache.hpp"
#include "sim/runner.hpp"
#include "sim/spec_io.hpp"
#include "store/result_store.hpp"

using namespace coolair;
using namespace coolair::sim;
namespace fs = std::filesystem;

namespace {

/** A world sweep shrunk to a 1-week year sample, cache enabled. */
std::vector<ExperimentSpec>
cachedSweepSpecs(size_t num_sites, const std::string &cache_dir)
{
    auto sites = environment::worldGrid(num_sites);
    std::vector<ExperimentSpec> specs;
    specs.reserve(sites.size() * 2);
    for (size_t i = 0; i < sites.size(); ++i) {
        ExperimentSpec spec;
        spec.location = sites[i];
        spec.workload = WorkloadKind::FacebookProfile;
        spec.weeks = 1;
        spec.physicsStepS = 120.0;
        spec.seed = ExperimentRunner::deriveSeed(7, i, sites[i].name);
        spec.cacheDirPath = cache_dir;
        spec.system = SystemId::Baseline;
        specs.push_back(spec);
        spec.system = SystemId::AllNd;
        specs.push_back(spec);
    }
    return specs;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** The exact serialized bytes of every result, concatenated in order. */
std::string
sweepBytes(const SweepOutcome &sweep)
{
    std::string bytes;
    for (const auto &r : sweep.results)
        bytes += formatResult(r);
    return bytes;
}

} // anonymous namespace

class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir = (fs::temp_directory_path() /
               (std::string("coolair-cache-") + info->name()))
                  .string();
        fs::remove_all(dir);
    }
    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

TEST_F(ResultCacheTest, WarmSweepIsByteIdenticalAtAnyThreadCount)
{
    std::vector<ExperimentSpec> specs = cachedSweepSpecs(8, dir);

    RunnerConfig cold_config;
    cold_config.threads = 2;
    SweepOutcome cold = ExperimentRunner(cold_config).run(specs);
    ASSERT_TRUE(cold.allOk());
    EXPECT_EQ(0u, cold.cacheHits());
    const std::string cold_bytes = sweepBytes(cold);

    for (int threads : {1, 3, 8}) {
        RunnerConfig config;
        config.threads = threads;
        SweepOutcome warm = ExperimentRunner(config).run(specs);
        ASSERT_TRUE(warm.allOk());
        EXPECT_EQ(specs.size(), warm.cacheHits()) << threads << " threads";
        // The merged output must match the cold run byte for byte.
        EXPECT_EQ(cold_bytes, sweepBytes(warm)) << threads << " threads";
    }
}

TEST_F(ResultCacheTest, CorruptAndStaleEntriesReRunTransparently)
{
    std::vector<ExperimentSpec> specs = cachedSweepSpecs(4, dir);
    SweepOutcome cold = ExperimentRunner(RunnerConfig{1}).run(specs);
    ASSERT_TRUE(cold.allOk());
    const std::string cold_bytes = sweepBytes(cold);

    // Corrupt one entry (bit flip) and truncate another.
    store::ResultStore st = openResultStore(dir);
    const std::string path2 = st.entryPath(resultCacheId(specs[2]));
    std::string bytes = readFile(path2);
    bytes[bytes.size() - 2] ^= 0x10;
    {
        std::ofstream out(path2, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    const std::string path5 = st.entryPath(resultCacheId(specs[5]));
    bytes = readFile(path5);
    {
        std::ofstream out(path5, std::ios::binary | std::ios::trunc);
        out << bytes.substr(0, bytes.size() / 2);
    }

    SweepOutcome warm = ExperimentRunner(RunnerConfig{1}).run(specs);
    ASSERT_TRUE(warm.allOk());
    // Exactly the two damaged specs re-ran; everything else hit.
    EXPECT_EQ(specs.size() - 2, warm.cacheHits());
    EXPECT_EQ(0, warm.fromCache[2]);
    EXPECT_EQ(0, warm.fromCache[5]);
    // Damaged entries were re-run and re-stored, so the merged output
    // is still byte-identical and the next sweep hits everywhere.
    EXPECT_EQ(cold_bytes, sweepBytes(warm));
    SweepOutcome again = ExperimentRunner(RunnerConfig{1}).run(specs);
    EXPECT_EQ(specs.size(), again.cacheHits());
}

TEST_F(ResultCacheTest, SaltBumpInvalidatesEverything)
{
    std::vector<ExperimentSpec> specs = cachedSweepSpecs(2, dir);
    SweepOutcome cold = ExperimentRunner(RunnerConfig{1}).run(specs);
    ASSERT_TRUE(cold.allOk());

    // A store opened under a different salt (simulating a sim-semantics
    // bump) sees none of the old entries.
    store::ResultStore bumped(dir, "coolair-sim-NEXT", kResultFormatVersion);
    for (const auto &spec : specs) {
        std::string payload;
        EXPECT_FALSE(bumped.lookup(resultCacheId(spec), payload));
    }
}

TEST_F(ResultCacheTest, FailingSpecIsReportedAndNeverStored)
{
    std::vector<ExperimentSpec> specs = cachedSweepSpecs(3, dir);
    specs[3].weeks = -1;  // unrunnable: the scenario builder throws

    SweepOutcome cold = ExperimentRunner(RunnerConfig{2}).run(specs);
    ASSERT_EQ(1u, cold.failures.size());
    EXPECT_EQ(3u, cold.failures[0].index);
    EXPECT_EQ(-1, cold.failures[0].spec.weeks);
    EXPECT_FALSE(cold.failures[0].message.empty());
    EXPECT_FALSE(cold.ok(3));
    EXPECT_EQ(0, cold.fromCache[3]);

    // The failing spec wrote nothing: only the good specs are on disk,
    // and its entry path does not exist.
    store::ResultStore st = openResultStore(dir);
    EXPECT_EQ(specs.size() - 1, size_t(st.diskUsage().entries));
    EXPECT_FALSE(fs::exists(st.entryPath(resultCacheId(specs[3]))));

    // A warm re-run serves every good spec and reports the bad one
    // again (it re-runs every time; failures are never cached).
    SweepOutcome warm = ExperimentRunner(RunnerConfig{2}).run(specs);
    ASSERT_EQ(1u, warm.failures.size());
    EXPECT_EQ(3u, warm.failures[0].index);
    EXPECT_EQ(specs.size() - 1, warm.cacheHits());
    for (size_t i = 0; i < specs.size(); ++i) {
        if (i != 3 && cold.ok(i)) {
            EXPECT_EQ(formatResult(cold.results[i]),
                      formatResult(warm.results[i]));
        }
    }
}

TEST_F(ResultCacheTest, TraceSpecsAreNeverCached)
{
    std::vector<ExperimentSpec> specs = cachedSweepSpecs(1, dir);
    specs[0].traceCsvPath = dir + "-trace.csv";
    ASSERT_FALSE(resultCacheUsable(specs[0]));
    ASSERT_TRUE(resultCacheUsable(specs[1]));

    for (int round = 0; round < 2; ++round) {
        SweepOutcome sweep = ExperimentRunner(RunnerConfig{1}).run(specs);
        ASSERT_TRUE(sweep.allOk());
        EXPECT_EQ(0, sweep.fromCache[0]) << "round " << round;
        // The trace side output is produced on every run, not only the
        // first: remove it and check the next round recreates it.
        EXPECT_TRUE(fs::exists(specs[0].traceCsvPath)) << "round " << round;
        fs::remove(specs[0].traceCsvPath);
    }
    store::ResultStore st = openResultStore(dir);
    EXPECT_EQ(1u, st.diskUsage().entries);
}

TEST_F(ResultCacheTest, RunReportsCarryStoreStatsAndProvenance)
{
    std::vector<ExperimentSpec> specs = cachedSweepSpecs(1, dir);
    const std::string report_path = dir + "-report.json";
    specs[1].reportJsonPath = report_path;

    SweepOutcome cold = ExperimentRunner(RunnerConfig{1}).run(specs);
    ASSERT_TRUE(cold.allOk());
    std::string report = readFile(report_path);
    // A cold run's report shows the store's activity (the miss and the
    // store) but no cache provenance: the metrics came from the engine.
    EXPECT_NE(std::string::npos, report.find("\"store.misses\"")) << report;
    EXPECT_NE(std::string::npos, report.find("\"store.stores\"")) << report;
    EXPECT_EQ(std::string::npos, report.find("result_source")) << report;

    fs::remove(report_path);
    SweepOutcome warm = ExperimentRunner(RunnerConfig{1}).run(specs);
    ASSERT_TRUE(warm.allOk());
    EXPECT_EQ(specs.size(), warm.cacheHits());
    report = readFile(report_path);
    // A warm hit still writes the report, now annotated as served from
    // the cache and carrying the hit in its stats block.
    EXPECT_NE(std::string::npos,
              report.find("\"result_source\": \"cache\""))
        << report;
    EXPECT_NE(std::string::npos, report.find("\"store.hits\"")) << report;
}

// ------------------------------------------------------------ identities
//
// Three byte forms decide which on-disk entry a spec finds: the cache
// identity text, the store key hashed from it, and the %.17g number
// text inside every id and payload.  Moving any of them orphans every
// existing store unless kResultCacheSalt is bumped, so these pins were
// recorded once and must never be re-recorded without a salt bump.

namespace {

/** A named-site spec with every side output and cache key set. */
ExperimentSpec
namedSiteSpec()
{
    ExperimentSpec spec;
    spec.location = environment::namedLocation(environment::NamedSite::Chad);
    spec.system = SystemId::AllNd;
    spec.workload = WorkloadKind::FacebookProfile;
    spec.runKind = RunKind::SingleDay;
    spec.day = 200;
    spec.physicsStepS = 120.0;
    spec.seed = 12345;
    spec.resultCache = false;
    spec.cacheDirPath = "cache-dir";
    spec.traceCsvPath = "trace.csv";
    spec.reportJsonPath = "report.json";
    spec.traceJsonPath = "trace.json";
    return spec;
}

/** A world-grid spec that sets every optional key. */
ExperimentSpec
worldGridSpec()
{
    ExperimentSpec spec;
    spec.location = environment::worldGrid()[737];
    spec.system = SystemId::Variation;
    spec.style = cooling::ActuatorStyle::Abrupt;
    spec.variant = PlantVariant::Evaporative;
    spec.workload = WorkloadKind::Nutch;
    spec.maxTempC = 28.5;
    spec.forecastError.biasC = 1.5;
    spec.forecastError.noiseStddevC = 0.1;
    spec.runKind = RunKind::DayRange;
    spec.startDay = 10;
    spec.endDay = 17;
    spec.physicsStepS = 60.0;
    spec.seed = 18446744073709551615ull;
    spec.weatherCache = false;
    spec.cacheDirPath = "cache-dir";
    spec.bandWidthC = 0.1;
    spec.bandOffsetC = -1.0 / 3.0;
    spec.switchPenalty = 2.5e-3;
    spec.sleepDecayPerEpoch = 0.95;
    spec.horizonSteps = 12;
    spec.batch = 8;
    return spec;
}

constexpr char kNamedSiteId[] =
    "run = day\n"
    "site = chad\n"
    "system = allnd\n"
    "style = smooth\n"
    "variant = standard\n"
    "workload = profile\n"
    "max_temp = 30\n"
    "forecast_bias = 0\n"
    "forecast_noise = 0\n"
    "weeks = 52\n"
    "day = 200\n"
    "start_day = 0\n"
    "end_day = 7\n"
    "physics_step = 120\n"
    "seed = 12345\n"
    "weather_cache = true\n";

constexpr char kWorldGridId[] =
    "run = range\n"
    "location.name = site-0737(+60.6,+011.4)\n"
    "location.latitude = 60.625618749739459\n"
    "location.longitude = 11.440038754376985\n"
    "climate.annual_mean = 2.6471411251511157\n"
    "climate.seasonal_amplitude = 14.643745725549502\n"
    "climate.diurnal_amplitude = 3.125551856422891\n"
    "climate.synoptic_amplitude = 4.4214578859607316\n"
    "climate.dew_point_depression = 4.5123205279979626\n"
    "climate.dew_point_variability = 1.5383543988567061\n"
    "climate.southern_hemisphere = false\n"
    "climate.seasonal_peak_day = 201\n"
    "climate.diurnal_peak_hour = 15\n"
    "system = variation\n"
    "style = abrupt\n"
    "variant = evaporative\n"
    "workload = nutch\n"
    "max_temp = 28.5\n"
    "forecast_bias = 1.5\n"
    "forecast_noise = 0.10000000000000001\n"
    "weeks = 52\n"
    "day = 186\n"
    "start_day = 10\n"
    "end_day = 17\n"
    "physics_step = 60\n"
    "seed = 18446744073709551615\n"
    "weather_cache = false\n"
    "band_width = 0.10000000000000001\n"
    "band_offset = -0.33333333333333331\n"
    "switch_penalty = 0.0025000000000000001\n"
    "sleep_decay = 0.94999999999999996\n"
    "horizon = 12\n"
    "batch = 8\n";

/** The Summary field keys of formatResult, in its order. */
constexpr const char *kSummaryKeys[] = {
    "avg_violation",       "avg_worst_daily_range",
    "min_worst_daily_range", "max_worst_daily_range",
    "pue",                 "it_kwh",
    "cooling_kwh",         "humidity_violation_frac",
    "rate_violation_frac", "avg_max_inlet"};

std::array<double *, 10>
summaryFields(Summary &s)
{
    return {&s.avgViolationC,       &s.avgWorstDailyRangeC,
            &s.minWorstDailyRangeC, &s.maxWorstDailyRangeC,
            &s.pue,                 &s.itKwh,
            &s.coolingKwh,          &s.humidityViolationFrac,
            &s.rateViolationFrac,   &s.avgMaxInletC};
}

} // anonymous namespace

TEST(StoreIdentity, NamedSiteCacheIdTextIsPinned)
{
    EXPECT_EQ(kNamedSiteId, resultCacheId(namedSiteSpec()));
}

TEST(StoreIdentity, WorldGridCacheIdTextWithEveryOptionalKeyIsPinned)
{
    EXPECT_EQ(kWorldGridId, resultCacheId(worldGridSpec()));
}

TEST_F(ResultCacheTest, StoreKeysOfBothIdsArePinned)
{
    // Pinned under the shipped salt and format version: bumping either
    // must fail here, and re-recording these keys is part of the bump.
    EXPECT_STREQ("coolair-sim-6", kResultCacheSalt);
    EXPECT_EQ(1, kResultFormatVersion);
    store::ResultStore st = openResultStore(dir);
    EXPECT_EQ("dff189883bdcb23cfc49b0796d2d0a75", st.keyFor(kNamedSiteId));
    EXPECT_EQ("50878456a48e55953c61f8498372f8e2", st.keyFor(kWorldGridId));
}

TEST(StoreIdentity, AwkwardResultTextAndCrcArePinned)
{
    ExperimentResult r;
    r.system = {0.1,   1.0 / 3.0, -0.0, 1e-310, 1e21, 123456789012345678.0,
                1e22,  5e-324,    1.7976931348623157e308, 2.5, 365};
    r.outside = {-0.1, -2.0 / 3.0, 0.0, 1e-5, 1e15, 9007199254740993.0,
                 1e100, 100.0,     1.0, 0.3,  0};
    const std::string text = formatResult(r);
    EXPECT_EQ("result = 1\n"
              "system.avg_violation = 0.10000000000000001\n"
              "system.avg_worst_daily_range = 0.33333333333333331\n"
              "system.min_worst_daily_range = -0\n"
              "system.max_worst_daily_range = 9.9999999999999694e-311\n"
              "system.pue = 1e+21\n"
              "system.it_kwh = 1.2345678901234568e+17\n"
              "system.cooling_kwh = 1e+22\n"
              "system.humidity_violation_frac = 4.9406564584124654e-324\n"
              "system.rate_violation_frac = 1.7976931348623157e+308\n"
              "system.avg_max_inlet = 2.5\n"
              "system.days = 365\n"
              "outside.avg_violation = -0.10000000000000001\n"
              "outside.avg_worst_daily_range = -0.66666666666666663\n"
              "outside.min_worst_daily_range = 0\n"
              "outside.max_worst_daily_range = 1.0000000000000001e-05\n"
              "outside.pue = 1000000000000000\n"
              "outside.it_kwh = 9007199254740992\n"
              "outside.cooling_kwh = 1e+100\n"
              "outside.humidity_violation_frac = 100\n"
              "outside.rate_violation_frac = 1\n"
              "outside.avg_max_inlet = 0.29999999999999999\n"
              "outside.days = 0\n",
              text);
    EXPECT_EQ(0x38423f72u, store::crc32(text));
    // The text reads back bit for bit, -0.0 and the subnormals included.
    const ExperimentResult back = parseResult(text);
    EXPECT_EQ(0, std::memcmp(&back, &r, sizeof(r)));
}

TEST_F(ResultCacheTest, EntryFileBytesArePinned)
{
    store::ResultStore st(dir, "test-salt-1", 1);
    const std::string id = "site = chad\nsystem = allnd\n";
    ASSERT_TRUE(st.store(id, "result = 1\npue = 1.08\n"));
    EXPECT_EQ(dir + "/51a3fcf5412e55a5171c20e769f7f969.res",
              st.entryPath(id));
    EXPECT_EQ("coolair-store 1\n"
              "salt test-salt-1\n"
              "schema 1\n"
              "id_bytes 27\n"
              "payload_bytes 22\n"
              "crc32 a8e13721\n"
              "site = chad\n"
              "system = allnd\n"
              "result = 1\n"
              "pue = 1.08\n",
              readFile(st.entryPath(id)));
}

TEST(StoreIdentity, FoldedCrcMatchesTableCrc)
{
    // The table CRC is the reference: it holds both pinned values, and
    // the folded crc32 must equal it on every length and alignment.
    ExperimentResult r;
    r.system = {0.1,   1.0 / 3.0, -0.0, 1e-310, 1e21, 123456789012345678.0,
                1e22,  5e-324,    1.7976931348623157e308, 2.5, 365};
    r.outside = {-0.1, -2.0 / 3.0, 0.0, 1e-5, 1e15, 9007199254740993.0,
                 1e100, 100.0,     1.0, 0.3,  0};
    const std::string text = formatResult(r);
    EXPECT_EQ(0x38423f72u, store::crc32Table(text));
    EXPECT_EQ(0x38423f72u, store::crc32(text));
    const std::string body =
        "site = chad\nsystem = allnd\nresult = 1\npue = 1.08\n";
    EXPECT_EQ(0xa8e13721u, store::crc32Table(body));
    EXPECT_EQ(0xa8e13721u, store::crc32(body));
    if (!store::crc32Folds())
        GTEST_SKIP() << "no PCLMULQDQ and SSE4.1: crc32 is the table path";

    std::string bytes(4096 + 16, '\0');
    uint64_t state = 0x13198A2E03707344ull;
    for (char &c : bytes) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        c = char(state >> 56);
    }
    for (size_t start : {0, 1, 7, 15})
        for (size_t len = 0; len <= 4096; ++len) {
            const std::string_view v(bytes.data() + start, len);
            ASSERT_EQ(store::crc32Table(v), store::crc32(v))
                << start << "+" << len;
        }
}

class ResultNumberText : public ::testing::TestWithParam<int>
{
};

TEST_P(ResultNumberText, IsPrintfOnAQuarterOfAMillionSummaries)
{
    // formatResult must write exactly printf's %.17g for every double:
    // raw bit patterns (subnormals, infinities and NaNs included) and
    // values shaped like the metrics.  Four shards of 250k make 1M
    // deterministic Summaries, and ctest runs the shards in parallel.
    // parseResult must read each text back bit for bit; a NaN comes
    // back as the NaN strtod reads from it, sign included.
    uint64_t state = 0x243F6A8885A308D3ull * uint64_t(GetParam() + 1);
    auto next = [&state] {
        uint64_t z = (state += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    };
    char num[32];
    std::array<double, 20> nan_read{};
    for (int n = 0; n < 125000; ++n) {
        ExperimentResult r;
        std::string expected = "result = 1\n";
        for (Summary *s : {&r.system, &r.outside}) {
            const char *prefix = s == &r.system ? "system." : "outside.";
            const auto fields = summaryFields(*s);
            double *nan_of = &nan_read[s == &r.system ? 0 : 10];
            for (size_t f = 0; f < fields.size(); ++f) {
                const uint64_t bits = next();
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
                    v = double(int64_t(bits >> 34) - (int64_t(1) << 29)) /
                        1e4;
                    break;
                }
                *fields[f] = v;
                expected.append(prefix).append(kSummaryKeys[f]).append(" = ");
                expected.append(num, size_t(std::snprintf(
                                         num, sizeof(num), "%.17g", v)));
                expected += '\n';
                if (std::isnan(v))
                    nan_of[f] = std::strtod(num, nullptr);
            }
            const uint64_t days = next();
            s->days = size_t(days >> (days % 64));
            expected.append(prefix).append("days = ");
            expected.append(num, size_t(std::snprintf(num, sizeof(num), "%zu",
                                                      s->days)));
            expected += '\n';
        }
        ASSERT_EQ(expected, formatResult(r)) << "result " << n;

        ExperimentResult back = parseResult(expected);
        for (Summary *s : {&r.system, &r.outside}) {
            Summary &b = s == &r.system ? back.system : back.outside;
            const auto want = summaryFields(*s);
            const auto got = summaryFields(b);
            const double *nan_of = &nan_read[s == &r.system ? 0 : 10];
            for (size_t f = 0; f < want.size(); ++f) {
                if (std::isnan(*want[f])) {
                    ASSERT_TRUE(std::isnan(*got[f])) << "result " << n;
                    ASSERT_EQ(std::signbit(nan_of[f]), std::signbit(*got[f]))
                        << "result " << n;
                } else {
                    ASSERT_EQ(0, std::memcmp(want[f], got[f], sizeof(double)))
                        << "result " << n << " field " << kSummaryKeys[f];
                }
            }
            ASSERT_EQ(s->days, b.days) << "result " << n;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Shards, ResultNumberText, ::testing::Range(0, 4));
