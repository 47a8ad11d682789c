#include "sim/spec_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "util/logging.hpp"
#include "util/parse.hpp"

namespace coolair {
namespace sim {

namespace {

// ---------------------------------------------------------------------------
// Enumerator tables (sized against the enum-count constants, so adding
// an enumerator without a spec key fails to compile).
// ---------------------------------------------------------------------------

constexpr std::array kWorkloadTable = {
    WorkloadKind::Facebook, WorkloadKind::Nutch,
    WorkloadKind::FacebookProfile, WorkloadKind::SteadyHalf};
static_assert(kWorkloadTable.size() == size_t(kWorkloadKindCount),
              "workload table out of sync with WorkloadKind");

constexpr std::array kVariantTable = {
    PlantVariant::Standard, PlantVariant::Evaporative, PlantVariant::Chiller};
static_assert(kVariantTable.size() == size_t(kPlantVariantCount),
              "variant table out of sync with PlantVariant");

constexpr std::array kStyleTable = {cooling::ActuatorStyle::Abrupt,
                                    cooling::ActuatorStyle::Smooth};
static_assert(kStyleTable.size() == size_t(cooling::kActuatorStyleCount),
              "style table out of sync with ActuatorStyle");

constexpr std::array kRunKindTable = {
    RunKind::YearWeekly, RunKind::SingleDay, RunKind::DayRange};
static_assert(kRunKindTable.size() == size_t(kRunKindCount),
              "run-kind table out of sync with RunKind");

constexpr std::array kSiteTable = {environment::NamedSite::Newark,
                                   environment::NamedSite::Chad,
                                   environment::NamedSite::Santiago,
                                   environment::NamedSite::Iceland,
                                   environment::NamedSite::Singapore};
static_assert(kSiteTable.size() == size_t(environment::kNamedSiteCount),
              "site table out of sync with NamedSite");

// ---------------------------------------------------------------------------
// Lexical helpers.
// ---------------------------------------------------------------------------

std::string_view
trim(std::string_view s)
{
    const size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string_view::npos)
        return {};
    return s.substr(b, s.find_last_not_of(" \t\r\n") - b + 1);
}

/** Call @p f(lineno, line) per trimmed, non-blank, non-`#` line. */
template <typename F>
void
forEachLine(std::string_view text, F &&f)
{
    for (int lineno = 1; !text.empty(); ++lineno) {
        const size_t nl = text.find('\n');
        const std::string_view line = trim(text.substr(0, nl));
        text.remove_prefix(nl == text.npos ? text.size() : nl + 1);
        if (!line.empty() && line[0] != '#')
            f(lineno, line);
    }
}

/** Split @p line at its first '=' into trimmed key and value views. */
bool
splitAssignment(std::string_view line, std::string_view &key,
                std::string_view &value)
{
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos)
        return false;
    key = trim(line.substr(0, eq));
    value = trim(line.substr(eq + 1));
    return true;
}

[[noreturn]] void
badValue(std::string_view key, std::string_view value)
{
    throw std::invalid_argument("spec: bad value for '" + std::string(key) +
                                "': '" + std::string(value) + "'");
}

// Number values are trimmed views into NUL-terminated text: the byte
// after one is whitespace or the terminator, where strto* stops.
/** A result payload number: all of @p value, read as strtod reads it. */
double
parseNumber(std::string_view key, std::string_view value)
{
    double v = 0.0;
    bool range_error = false;
    if (!util::readDecimal(value, v, range_error))
        badValue(key, value);
    return v;
}

/** A spec number: also finite and not hex, which strtod would take. */
double
parseDouble(std::string_view key, std::string_view value)
{
    const double v = parseNumber(key, value);
    if (!std::isfinite(v) || value.find_first_of("xX") != value.npos)
        badValue(key, value);
    return v;
}

int
parseInt(std::string_view key, std::string_view value)
{
    if (value.empty())
        badValue(key, value);
    char *end = nullptr;
    long v = std::strtol(value.data(), &end, 10);
    if (end != value.data() + value.size() || v < INT_MIN || v > INT_MAX)
        badValue(key, value);
    return int(v);
}

uint64_t
parseU64(std::string_view key, std::string_view value)
{
    if (value.empty() || value[0] == '-')
        badValue(key, value);
    char *end = nullptr;
    unsigned long long v = std::strtoull(value.data(), &end, 10);
    if (end != value.data() + value.size())
        badValue(key, value);
    return uint64_t(v);
}

bool
parseBool(std::string_view key, std::string_view value)
{
    if (value == "true" || value == "1")
        return true;
    if (value == "false" || value == "0")
        return false;
    badValue(key, value);
}

/** Append `key = value\n`; doubles get printf's exact %.17g text. */
template <typename T>
void
putLine(std::string &out, std::string_view key, const T &value)
{
    char buf[32];
    out.append(key).append(" = ");
    if constexpr (std::is_floating_point_v<T>)
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), value,
                                      std::chars_format::general, 17)
                            .ptr);
    else if constexpr (std::is_integral_v<T>)
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    else
        out += value;
    out += '\n';
}

template <typename Enum, size_t N, typename KeyFn>
Enum
parseEnum(const std::array<Enum, N> &table, KeyFn key_of,
          std::string_view key, std::string_view value)
{
    for (Enum e : table)
        if (value == key_of(e))
            return e;
    badValue(key, value);
}

SystemId
parseSystem(std::string_view key, std::string_view value)
{
    for (SystemId id : allSystemIds())
        if (value == systemKey(id))
            return id;
    badValue(key, value);
}

/** formatSpec's text; @p outputs adds the cache and output-path keys. */
std::string
formatSpecText(const ExperimentSpec &spec, bool outputs)
{
    static const auto named = [] {
        std::array<environment::Location, kSiteTable.size()> t;
        for (size_t i = 0; i < t.size(); ++i)
            t[i] = environment::namedLocation(kSiteTable[i]);
        return t;
    }();
    std::string out;
    out.reserve(1024);
    putLine(out, "run", runKindKey(spec.runKind));

    const auto site = std::find(named.begin(), named.end(), spec.location);
    if (site != named.end()) {
        putLine(out, "site", siteKey(kSiteTable[size_t(site - named.begin())]));
    } else {
        const environment::ClimateParams &cl = spec.location.climate;
        putLine(out, "location.name", spec.location.name);
        putLine(out, "location.latitude", spec.location.latitude);
        putLine(out, "location.longitude", spec.location.longitude);
        putLine(out, "climate.annual_mean", cl.annualMeanC);
        putLine(out, "climate.seasonal_amplitude", cl.seasonalAmplitudeC);
        putLine(out, "climate.diurnal_amplitude", cl.diurnalAmplitudeC);
        putLine(out, "climate.synoptic_amplitude", cl.synopticAmplitudeC);
        putLine(out, "climate.dew_point_depression", cl.dewPointDepressionC);
        putLine(out, "climate.dew_point_variability",
                cl.dewPointVariabilityC);
        putLine(out, "climate.southern_hemisphere",
                cl.southernHemisphere ? "true" : "false");
        putLine(out, "climate.seasonal_peak_day", cl.seasonalPeakDay);
        putLine(out, "climate.diurnal_peak_hour", cl.diurnalPeakHour);
    }

    putLine(out, "system", systemKey(spec.system));
    putLine(out, "style", styleKey(spec.style));
    putLine(out, "variant", variantKey(spec.variant));
    putLine(out, "workload", workloadKey(spec.workload));
    putLine(out, "max_temp", spec.maxTempC);
    putLine(out, "forecast_bias", spec.forecastError.biasC);
    putLine(out, "forecast_noise", spec.forecastError.noiseStddevC);
    putLine(out, "weeks", spec.weeks);
    putLine(out, "day", spec.day);
    putLine(out, "start_day", spec.startDay);
    putLine(out, "end_day", spec.endDay);
    putLine(out, "physics_step", spec.physicsStepS);
    putLine(out, "seed", spec.seed);
    putLine(out, "weather_cache", spec.weatherCache ? "true" : "false");

    // Cache and output keys are optional (defaults are omitted), so
    // spec texts from before the result store parse unchanged, and the
    // cache identity leaves them out altogether.
    if (outputs && !spec.resultCache)
        putLine(out, "result_cache", "false");
    if (outputs && !spec.cacheDirPath.empty())
        putLine(out, "cache_dir", spec.cacheDirPath);
    if (outputs && !spec.traceCsvPath.empty())
        putLine(out, "trace_csv", spec.traceCsvPath);
    if (outputs && !spec.reportJsonPath.empty())
        putLine(out, "report_json", spec.reportJsonPath);
    if (outputs && !spec.traceJsonPath.empty())
        putLine(out, "trace_json", spec.traceJsonPath);
    if (spec.bandWidthC)
        putLine(out, "band_width", *spec.bandWidthC);
    if (spec.bandOffsetC)
        putLine(out, "band_offset", *spec.bandOffsetC);
    if (spec.switchPenalty)
        putLine(out, "switch_penalty", *spec.switchPenalty);
    if (spec.sleepDecayPerEpoch)
        putLine(out, "sleep_decay", *spec.sleepDecayPerEpoch);
    if (spec.horizonSteps)
        putLine(out, "horizon", *spec.horizonSteps);
    // batch=0 (the scalar path) is the default and omitted; emitting the
    // key only for batched specs gives them a distinct normalized cache
    // identity, so batched and scalar results never alias in the store.
    if (spec.batch != 0)
        putLine(out, "batch", spec.batch);
    return out;
}

} // anonymous namespace

// ---------------------------------------------------------------------------
// Enumerator keys (exhaustive switches; adding an enumerator without a
// key is a compile warning here and a failed static_assert above).
// ---------------------------------------------------------------------------

const char *
systemKey(SystemId id)
{
    switch (id) {
      case SystemId::Baseline:      return "baseline";
      case SystemId::Temperature:   return "temperature";
      case SystemId::Variation:     return "variation";
      case SystemId::Energy:        return "energy";
      case SystemId::AllNd:         return "allnd";
      case SystemId::AllDef:        return "alldef";
      case SystemId::VarLowRecirc:  return "varlow";
      case SystemId::VarHighRecirc: return "varhigh";
      case SystemId::EnergyDef:     return "energydef";
    }
    util::panic("systemKey: unknown system");
}

const char *
workloadKey(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Facebook:        return "facebook";
      case WorkloadKind::Nutch:           return "nutch";
      case WorkloadKind::FacebookProfile: return "profile";
      case WorkloadKind::SteadyHalf:      return "steady";
    }
    util::panic("workloadKey: unknown workload kind");
}

const char *
variantKey(PlantVariant variant)
{
    switch (variant) {
      case PlantVariant::Standard:    return "standard";
      case PlantVariant::Evaporative: return "evaporative";
      case PlantVariant::Chiller:     return "chiller";
    }
    util::panic("variantKey: unknown plant variant");
}

const char *
styleKey(cooling::ActuatorStyle style)
{
    switch (style) {
      case cooling::ActuatorStyle::Abrupt: return "abrupt";
      case cooling::ActuatorStyle::Smooth: return "smooth";
    }
    util::panic("styleKey: unknown actuator style");
}

const char *
runKindKey(RunKind kind)
{
    switch (kind) {
      case RunKind::YearWeekly: return "year";
      case RunKind::SingleDay:  return "day";
      case RunKind::DayRange:   return "range";
    }
    util::panic("runKindKey: unknown run kind");
}

const char *
siteKey(environment::NamedSite site)
{
    switch (site) {
      case environment::NamedSite::Newark:    return "newark";
      case environment::NamedSite::Chad:      return "chad";
      case environment::NamedSite::Santiago:  return "santiago";
      case environment::NamedSite::Iceland:   return "iceland";
      case environment::NamedSite::Singapore: return "singapore";
    }
    util::panic("siteKey: unknown site");
}

// ---------------------------------------------------------------------------
// Formatting.
// ---------------------------------------------------------------------------

std::string
formatSpec(const ExperimentSpec &spec)
{
    return formatSpecText(spec, true);
}

std::string
resultCacheId(const ExperimentSpec &spec)
{
    return formatSpecText(spec, false);
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

namespace {

void
applyKeyValue(ExperimentSpec &spec, std::string_view key,
              std::string_view value)
{
    environment::ClimateParams &cl = spec.location.climate;

    if (key == "run")
        spec.runKind = parseEnum(kRunKindTable, runKindKey, key, value);
    else if (key == "site")
        spec.location = environment::namedLocation(
            parseEnum(kSiteTable, siteKey, key, value));
    else if (key == "location.name")
        spec.location.name = value;
    else if (key == "location.latitude")
        spec.location.latitude = parseDouble(key, value);
    else if (key == "location.longitude")
        spec.location.longitude = parseDouble(key, value);
    else if (key == "climate.annual_mean")
        cl.annualMeanC = parseDouble(key, value);
    else if (key == "climate.seasonal_amplitude")
        cl.seasonalAmplitudeC = parseDouble(key, value);
    else if (key == "climate.diurnal_amplitude")
        cl.diurnalAmplitudeC = parseDouble(key, value);
    else if (key == "climate.synoptic_amplitude")
        cl.synopticAmplitudeC = parseDouble(key, value);
    else if (key == "climate.dew_point_depression")
        cl.dewPointDepressionC = parseDouble(key, value);
    else if (key == "climate.dew_point_variability")
        cl.dewPointVariabilityC = parseDouble(key, value);
    else if (key == "climate.southern_hemisphere")
        cl.southernHemisphere = parseBool(key, value);
    else if (key == "climate.seasonal_peak_day")
        cl.seasonalPeakDay = parseDouble(key, value);
    else if (key == "climate.diurnal_peak_hour")
        cl.diurnalPeakHour = parseDouble(key, value);
    else if (key == "system")
        spec.system = parseSystem(key, value);
    else if (key == "style")
        spec.style = parseEnum(kStyleTable, styleKey, key, value);
    else if (key == "variant")
        spec.variant = parseEnum(kVariantTable, variantKey, key, value);
    else if (key == "workload")
        spec.workload = parseEnum(kWorkloadTable, workloadKey, key, value);
    else if (key == "max_temp")
        spec.maxTempC = parseDouble(key, value);
    else if (key == "forecast_bias")
        spec.forecastError.biasC = parseDouble(key, value);
    else if (key == "forecast_noise")
        spec.forecastError.noiseStddevC = parseDouble(key, value);
    else if (key == "weeks")
        spec.weeks = parseInt(key, value);
    else if (key == "day")
        spec.day = parseInt(key, value);
    else if (key == "start_day")
        spec.startDay = parseInt(key, value);
    else if (key == "end_day")
        spec.endDay = parseInt(key, value);
    else if (key == "physics_step")
        spec.physicsStepS = parseDouble(key, value);
    else if (key == "seed")
        spec.seed = parseU64(key, value);
    else if (key == "weather_cache")
        spec.weatherCache = parseBool(key, value);
    else if (key == "result_cache")
        spec.resultCache = parseBool(key, value);
    else if (key == "cache_dir")
        spec.cacheDirPath = value;
    else if (key == "trace_csv")
        spec.traceCsvPath = value;
    else if (key == "report_json")
        spec.reportJsonPath = value;
    else if (key == "trace_json")
        spec.traceJsonPath = value;
    else if (key == "band_width")
        spec.bandWidthC = parseDouble(key, value);
    else if (key == "band_offset")
        spec.bandOffsetC = parseDouble(key, value);
    else if (key == "switch_penalty")
        spec.switchPenalty = parseDouble(key, value);
    else if (key == "sleep_decay")
        spec.sleepDecayPerEpoch = parseDouble(key, value);
    else if (key == "horizon")
        spec.horizonSteps = parseInt(key, value);
    else if (key == "batch") {
        spec.batch = parseInt(key, value);
        if (spec.batch < 0 || spec.batch > 1024)
            badValue(key, value);
    } else
        throw std::invalid_argument("spec: unknown key '" + std::string(key) +
                                    "'");
}

void
applyAssignment(ExperimentSpec &spec, std::string_view assignment)
{
    std::string_view key, value;
    if (!splitAssignment(assignment, key, value))
        throw std::invalid_argument("spec: expected key=value, got '" +
                                    std::string(assignment) + "'");
    if (key.empty())
        throw std::invalid_argument("spec: empty key in '" +
                                    std::string(assignment) + "'");
    applyKeyValue(spec, key, value);
}

} // anonymous namespace

void
applySpecAssignment(ExperimentSpec &spec, const std::string &assignment)
{
    applyAssignment(spec, assignment);
}

void
applySpecText(ExperimentSpec &spec, const std::string &text)
{
    forEachLine(text, [&spec](int lineno, std::string_view line) {
        try {
            applyAssignment(spec, line);
        } catch (const std::invalid_argument &e) {
            // Re-throw with the 1-based line number so a long spec file
            // points at the offending line, not just the offending key.
            std::string what = e.what();
            const char kPrefix[] = "spec: ";
            if (what.rfind(kPrefix, 0) == 0)
                what = what.substr(sizeof(kPrefix) - 1);
            throw std::invalid_argument(
                "spec line " + std::to_string(lineno) + ": " + what);
        }
    });
}

ExperimentSpec
parseSpec(const std::string &text)
{
    ExperimentSpec spec;
    spec.location = environment::namedLocation(environment::NamedSite::Newark);
    applySpecText(spec, text);
    return spec;
}

// ---------------------------------------------------------------------------
// Result serialization (the persistent result store's payload form).
// ---------------------------------------------------------------------------

namespace {

/** The double-valued Summary fields, in serialization order. */
struct SummaryField
{
    const char *key;
    double Summary::*field;
};

constexpr SummaryField kSummaryFields[] = {
    {"avg_violation", &Summary::avgViolationC},
    {"avg_worst_daily_range", &Summary::avgWorstDailyRangeC},
    {"min_worst_daily_range", &Summary::minWorstDailyRangeC},
    {"max_worst_daily_range", &Summary::maxWorstDailyRangeC},
    {"pue", &Summary::pue},
    {"it_kwh", &Summary::itKwh},
    {"cooling_kwh", &Summary::coolingKwh},
    {"humidity_violation_frac", &Summary::humidityViolationFrac},
    {"rate_violation_frac", &Summary::rateViolationFrac},
    {"avg_max_inlet", &Summary::avgMaxInletC},
};
constexpr size_t kSummaryFieldCount =
    sizeof(kSummaryFields) / sizeof(kSummaryFields[0]);

// If this fires, Summary grew or shrank: extend kSummaryFields (or the
// `days` handling), and bump kResultFormatVersion so stored entries go
// stale instead of silently missing the new field.
static_assert(sizeof(Summary) ==
                  kSummaryFieldCount * sizeof(double) + sizeof(size_t),
              "Summary changed: update kSummaryFields and bump "
              "kResultFormatVersion");

void
formatSummary(std::string &out, const char *prefix, const Summary &s)
{
    for (const SummaryField &f : kSummaryFields)
        putLine(out.append(prefix), f.key, s.*(f.field));
    putLine(out.append(prefix), "days", s.days);
}

/** Apply one `prefix.field` assignment; returns false for unknown keys. */
bool
applySummaryKey(Summary &s, std::string_view key, std::string_view field,
                std::string_view value, bool *seen, size_t &days_seen)
{
    for (size_t i = 0; i < kSummaryFieldCount; ++i) {
        if (field == kSummaryFields[i].key) {
            s.*(kSummaryFields[i].field) = parseNumber(key, value);
            seen[i] = true;
            return true;
        }
    }
    if (field == "days") {
        s.days = size_t(parseU64(key, value));
        ++days_seen;
        return true;
    }
    return false;
}

} // anonymous namespace

std::string
formatResult(const ExperimentResult &result)
{
    std::string out;
    out.reserve(1024);
    putLine(out, "result", kResultFormatVersion);
    formatSummary(out, "system.", result.system);
    formatSummary(out, "outside.", result.outside);
    return out;
}

ExperimentResult
parseResult(const std::string &text)
{
    ExperimentResult result;
    bool seen_system[kSummaryFieldCount] = {};
    bool seen_outside[kSummaryFieldCount] = {};
    size_t days_system = 0, days_outside = 0;
    bool seen_version = false;

    forEachLine(text, [&](int, std::string_view line) {
        std::string_view key, value;
        if (!splitAssignment(line, key, value))
            throw std::invalid_argument(
                "result: expected key = value, got '" + std::string(line) +
                "'");
        if (key == "result") {
            if (parseInt(key, value) != kResultFormatVersion)
                throw std::invalid_argument("result: unsupported version '" +
                                            std::string(value) + "'");
            seen_version = true;
            return;
        }
        const size_t dot = key.find('.');
        const std::string_view prefix = key.substr(0, dot);
        const std::string_view field =
            dot == key.npos ? std::string_view() : key.substr(dot + 1);
        bool ok = false;
        if (prefix == "system")
            ok = applySummaryKey(result.system, key, field, value,
                                 seen_system, days_system);
        else if (prefix == "outside")
            ok = applySummaryKey(result.outside, key, field, value,
                                 seen_outside, days_outside);
        if (!ok)
            throw std::invalid_argument("result: unknown key '" +
                                        std::string(key) + "'");
    });

    if (!seen_version)
        throw std::invalid_argument("result: missing version header");
    for (size_t i = 0; i < kSummaryFieldCount; ++i)
        if (!seen_system[i] || !seen_outside[i])
            throw std::invalid_argument(
                std::string("result: missing field '") +
                kSummaryFields[i].key + "'");
    if (days_system != 1 || days_outside != 1)
        throw std::invalid_argument("result: missing field 'days'");
    return result;
}

} // namespace sim
} // namespace coolair
