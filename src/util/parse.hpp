#ifndef COOLAIR_UTIL_PARSE_HPP
#define COOLAIR_UTIL_PARSE_HPP

/**
 * @file
 * Strict text-to-number parsing for untrusted input.
 *
 * The C `atoi`/`atof` family silently accepts garbage ("8x" parses as
 * 8, "oops" as 0), which turns typo'd environment variables, malformed
 * CSV cells, and corrupt protocol headers into plausible-looking
 * numbers.  Every parser here consumes the *entire* string or fails:
 * no value is ever fabricated from a partial match, and overflow is an
 * error rather than a wrap.
 *
 * These are the building blocks behind spec parsing (sim/spec_io),
 * weather CSV ingestion, the result store's entry framing, and the
 * serve daemon's wire protocol — everywhere bytes cross a trust
 * boundary.
 */

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace coolair {
namespace util {

/**
 * Parse @p s as a base-10 integer (optional leading '-'/'+').  Returns
 * true and sets @p out only when the whole string is a valid in-range
 * number; leading/trailing junk, empty input, and overflow all fail.
 */
bool parseInt(const std::string &s, long long &out);

/**
 * Parse @p s as a double.  Returns true and sets @p out only when the
 * whole string parses (readDecimal-to-end, the sim/spec_io style);
 * "12abc", "", and lone "-" all fail.  Infinities and NaN spellings are
 * rejected too — recorded data and protocol fields never legitimately
 * contain them.
 */
bool parseDouble(const std::string &s, double &out);

/**
 * Read all of @p s as `strtod` does in the "C" locale: true, with its
 * bits in @p out and its ERANGE in @p range_error, only when strtod would
 * consume every byte of a non-empty @p s.  `std::from_chars` answers
 * where it gives strtod's result (DESIGN.md §8 "The decimal reader").
 */
bool readDecimal(std::string_view s, double &out, bool &range_error);

/**
 * Parse @p s as an unsigned byte/element count: digits only, no sign,
 * no whitespace.  Returns true only when the value fits and is at most
 * @p max; a value that would overflow 64 bits (or exceed the cap) is
 * an error, never a wrap.  This is the parser for size headers read
 * from disk or the network, where a wrapped count mis-frames the
 * payload that follows.
 */
bool parseSize(std::string_view s, uint64_t &out,
               uint64_t max = std::numeric_limits<uint64_t>::max());

/**
 * Read integer environment variable @p name.  Unset (or empty) yields
 * @p fallback silently; a set-but-malformed or out-of-[@p min, @p max]
 * value yields @p fallback with a warn() naming the variable and the
 * offending text — a typo'd COOLAIR_THREADS=8x must not silently run
 * 8 threads, and COOLAIR_WORLD_SITES=-1 must not wrap to a huge count.
 */
int envInt(const char *name, int fallback,
           int min = std::numeric_limits<int>::min(),
           int max = std::numeric_limits<int>::max());

} // namespace util
} // namespace coolair

#endif // COOLAIR_UTIL_PARSE_HPP
