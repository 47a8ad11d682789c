#ifndef COOLAIR_SIM_SPEC_IO_HPP
#define COOLAIR_SIM_SPEC_IO_HPP

/**
 * @file
 * Human-readable serialization of ExperimentSpec: a `key = value` text
 * form with a strict round-trip guarantee,
 *
 *     parseSpec(formatSpec(spec)) == spec
 *
 * so any experiment can be stored in a file, diffed, and replayed from
 * examples/experiment_cli.  Parsing is strict: unknown keys and
 * malformed values throw std::invalid_argument naming the offending
 * key (and, when parsing multi-line text, the 1-based line number), so
 * a typo'd spec file fails loudly instead of silently running the
 * default experiment.
 *
 * The same module serializes ExperimentResult (formatResult /
 * parseResult) with the identical exactness guarantee; the persistent
 * result store (src/store/, sim/result_cache.hpp) persists results in
 * this form, so cached sweeps are byte-identical to fresh ones.
 *
 * Lines are `key = value` (spaces optional); blank lines and full-line
 * `#` comments are ignored.  Locations serialize as the `site` shortcut
 * when they exactly match one of the five named sites, and as explicit
 * `location.*` / `climate.*` keys otherwise.
 */

#include <string>

#include "sim/experiment.hpp"

namespace coolair {
namespace sim {

/** Render a spec as spec-file text (ends with a newline). */
std::string formatSpec(const ExperimentSpec &spec);

/** The cache identity (sim/result_cache.hpp): formatSpec without the
    keys that only say where results go (cache and output paths). */
std::string resultCacheId(const ExperimentSpec &spec);

/**
 * Parse spec-file text into a spec, starting from the defaults.
 * @throws std::invalid_argument on unknown keys or malformed values.
 */
ExperimentSpec parseSpec(const std::string &text);

/**
 * Apply spec-file text on top of an existing spec (later keys win).
 * @throws std::invalid_argument on unknown keys or malformed values.
 */
void applySpecText(ExperimentSpec &spec, const std::string &text);

/**
 * Apply one `key=value` assignment (the experiment_cli override form).
 * @throws std::invalid_argument on unknown keys or malformed values.
 */
void applySpecAssignment(ExperimentSpec &spec, const std::string &assignment);

/**
 * Version of the result text form below.  Bump whenever formatResult's
 * shape changes (a field added, removed, or renamed): the result store
 * keys entries on this version, so old entries turn stale instead of
 * failing to parse.
 */
inline constexpr int kResultFormatVersion = 1;

/**
 * Render an ExperimentResult as `key = value` text (ends with a
 * newline).  Values use %.17g, so parseResult(formatResult(r)) == r
 * bit for bit — the round-trip guarantee the result store relies on.
 */
std::string formatResult(const ExperimentResult &result);

/**
 * Parse formatResult() text.  Strict: the version header and every
 * field must be present, unknown keys throw.
 * @throws std::invalid_argument on any malformed or incomplete text.
 */
ExperimentResult parseResult(const std::string &text);

// Spec-file key for each enumerator (the inverse of parsing; exhaustive).
const char *systemKey(SystemId id);
const char *workloadKey(WorkloadKind kind);
const char *variantKey(PlantVariant variant);
const char *styleKey(cooling::ActuatorStyle style);
const char *runKindKey(RunKind kind);
const char *siteKey(environment::NamedSite site);

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_SPEC_IO_HPP
