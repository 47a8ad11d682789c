#include "util/parse.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/logging.hpp"

namespace coolair {
namespace util {

bool
parseInt(const std::string &s, long long &out)
{
    if (s.empty())
        return false;
    // strtoll skips leading whitespace; " 1" is not a complete number.
    const char c0 = s[0];
    if (!(c0 == '-' || c0 == '+' || (c0 >= '0' && c0 <= '9')))
        return false;
    errno = 0;
    char *end = nullptr;
    long long v = std::strtoll(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size() || errno == ERANGE)
        return false;
    out = v;
    return true;
}

bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    // strtod accepts "inf"/"nan" spellings and hex floats; none of
    // those belong in recorded data, so require a leading digit, sign,
    // or decimal point and check the result is finite.
    const char c = s[0];
    if (!(c == '-' || c == '+' || c == '.' || (c >= '0' && c <= '9')))
        return false;
    if (s.find_first_of("xX") != std::string::npos)  // hex floats
        return false;
    double v = 0.0;
    bool range_error = false;
    if (!readDecimal(s, v, range_error) || range_error)
        return false;
    if (!(v == v) || v > std::numeric_limits<double>::max() ||
        v < -std::numeric_limits<double>::max())
        return false;
    out = v;
    return true;
}

bool
readDecimal(std::string_view s, double &out, bool &range_error)
{
    // Trust from_chars past DBL_MIN (strtod may set ERANGE on texts that
    // round up to it) and on exact zeros (no nonzero digit before 'e').
    double v = 0.0;
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    const bool fast =
        ec == std::errc() && ptr == s.data() + s.size() &&
        ((std::isfinite(v) &&
          std::fabs(v) > std::numeric_limits<double>::min()) ||
         (v == 0.0 && s.substr(0, s.find_first_of("eE"))
                              .find_first_of("123456789") == s.npos));
    range_error = false;
    if (!fast) {
        const std::string text(s);  // strtod reads up to a terminator
        char *end = nullptr;
        errno = 0;
        v = std::strtod(text.c_str(), &end);
        range_error = errno == ERANGE;
        if (text.empty() || end != text.c_str() + text.size())
            return false;
    }
    out = v;
    return true;
}

bool
parseSize(std::string_view s, uint64_t &out, uint64_t max)
{
    if (s.empty())
        return false;
    uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return false;
        const uint64_t d = uint64_t(c - '0');
        // Would v * 10 + d exceed max (or wrap 64 bits)?  Checked
        // before the multiply, so the accumulator itself never wraps.
        if (v > max / 10 || (v == max / 10 && d > max % 10))
            return false;
        v = v * 10 + d;
    }
    out = v;
    return true;
}

int
envInt(const char *name, int fallback, int min, int max)
{
    const char *env = std::getenv(name);
    if (!env || !*env)
        return fallback;
    long long v = 0;
    if (!parseInt(env, v) || v < min || v > max) {
        warn(std::string(name) + "='" + env +
             "' is not an integer in [" + std::to_string(min) + ", " +
             std::to_string(max) + "]; using " + std::to_string(fallback));
        return fallback;
    }
    return int(v);
}

} // namespace util
} // namespace coolair
