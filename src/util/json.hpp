#ifndef COOLAIR_UTIL_JSON_HPP
#define COOLAIR_UTIL_JSON_HPP

/**
 * @file
 * Minimal JSON string escaping shared by every writer in the tree (obs
 * dumps, run reports, the structured logger).  Lives in util so the
 * logger can emit JSON without depending on obs.
 *
 * jsonUnquote is the strict inverse: it exists so tests can prove the
 * escaping round-trips exactly (jsonUnquote(jsonQuote(s)) == s for any
 * byte string), and so lightweight clients can pull string fields out
 * of our own output without a JSON library.
 */

#include <string>

namespace coolair {
namespace util {

/** Escape and quote @p s as one JSON string token. */
std::string jsonQuote(const std::string &s);

/**
 * Parse one quoted JSON string token (the whole of @p token, leading
 * and trailing quote included) back into raw bytes.  Strict: returns
 * false on a missing quote, a truncated or unknown escape, or trailing
 * characters after the closing quote.  \uXXXX escapes are accepted for
 * the Basic Latin range our writers emit (00-7f); anything above that
 * range is refused rather than mis-decoded.
 */
bool jsonUnquote(const std::string &token, std::string &out);

} // namespace util
} // namespace coolair

#endif // COOLAIR_UTIL_JSON_HPP
