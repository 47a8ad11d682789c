#ifndef COOLAIR_SIM_EXPERIMENT_HPP
#define COOLAIR_SIM_EXPERIMENT_HPP

/**
 * @file
 * Canned experiment orchestration reproducing the paper's evaluation
 * protocol (§5.1): pick a location and a system (the extended-TKS
 * baseline or a CoolAir version), run the first day of each week for a
 * year on the chosen plant, and report the Figure 8/9/10 metrics.
 *
 * The learned model bundle is expensive to produce and identical across
 * experiments, so sharedBundle() memoizes one (learned on the abrupt
 * Parasol plant; smooth-plant runs *extrapolate* it, exactly as
 * Smooth-Sim does in §5.1).
 */

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cooling/actuators.hpp"
#include "environment/forecast.hpp"
#include "environment/location.hpp"
#include "model/learner.hpp"
#include "sim/metrics.hpp"
#include "workload/job.hpp"
#include "workload/profile.hpp"

namespace coolair {
namespace sim {

/** The systems compared in the evaluation. */
enum class SystemId
{
    Baseline,
    Temperature,
    Variation,
    Energy,
    AllNd,
    AllDef,
    VarLowRecirc,
    VarHighRecirc,
    EnergyDef
};

/** Number of SystemId enumerators (keep in sync with the enum). */
inline constexpr int kSystemIdCount = 9;

/** All systems, in Table 1 order (for CLIs and exhaustiveness tests). */
const std::array<SystemId, kSystemIdCount> &allSystemIds();

/** Display name matching the paper's figures. */
const char *systemName(SystemId id);

/** True for systems that defer jobs (need deferrable traces). */
bool systemIsDeferrable(SystemId id);

/** Which plant hardware variant an experiment runs on. */
enum class PlantVariant
{
    Standard,     ///< Per spec.style (abrupt Parasol or smooth units).
    Evaporative,  ///< Smooth units + adiabatic pre-cooler.
    Chiller       ///< Smooth units + chilled-water backup loop.
};

/** Number of PlantVariant enumerators (keep in sync with the enum). */
inline constexpr int kPlantVariantCount = 3;

/** Workload selection for an experiment. */
enum class WorkloadKind
{
    Facebook,         ///< SWIM-Facebook-like day trace (task-level sim).
    Nutch,            ///< Nutch-like day trace (task-level sim).
    FacebookProfile,  ///< Facebook as a fast utilization profile.
    SteadyHalf        ///< Constant 50 % load (tests, Figure 1).
};

/** Number of WorkloadKind enumerators (keep in sync with the enum). */
inline constexpr int kWorkloadKindCount = 4;

/** What span of simulated time an experiment covers. */
enum class RunKind
{
    YearWeekly,  ///< §5.1 protocol: `weeks` sampled days across a year.
    SingleDay,   ///< One measured calendar day (`day`).
    DayRange     ///< Continuous days [`startDay`, `endDay`).
};

/** Number of RunKind enumerators (keep in sync with the enum). */
inline constexpr int kRunKindCount = 3;

/**
 * Everything needed to run one experiment — the declarative description
 * the scenario layer (sim/scenario.hpp) assembles and runs.  A spec
 * round-trips through the text form in sim/spec_io.hpp, so any
 * experiment can be stored, diffed, and replayed from a config string.
 */
struct ExperimentSpec
{
    environment::Location location;
    SystemId system = SystemId::Baseline;
    cooling::ActuatorStyle style = cooling::ActuatorStyle::Smooth;
    PlantVariant variant = PlantVariant::Standard;
    WorkloadKind workload = WorkloadKind::Facebook;

    /** The operator's desired maximum temperature [°C]. */
    double maxTempC = 30.0;

    /** Forecast error injection (§5.2 forecast-accuracy study). */
    environment::ForecastErrorModel forecastError;

    /** What span of simulated time to run. */
    RunKind runKind = RunKind::YearWeekly;

    /** Weeks simulated for YearWeekly (52 = the full §5.1 protocol). */
    int weeks = 52;

    /** Day of year [0, 365) for SingleDay. */
    int day = 186;

    /** First day (inclusive) of a DayRange run. */
    int startDay = 0;

    /** One past the last day of a DayRange run. */
    int endDay = 7;

    /** Physics step [s] (the world sweep uses a coarser step). */
    double physicsStepS = 30.0;

    uint64_t seed = 7;

    /**
     * Retired: nothing reads it.  Its `weather_cache` line stays in the
     * spec text, which is the result store's cache identity (DESIGN.md
     * §8), so that no cache id moves.
     */
    bool weatherCache = true;

    /**
     * Consult (and fill) the persistent result store under cacheDirPath
     * before running.  Only effective when cacheDirPath is set; turn
     * off to force a fresh run into an existing cache directory.
     */
    bool resultCache = true;

    /**
     * When non-empty, the directory of the persistent content-addressed
     * result store (src/store/): identical specs are served from disk
     * instead of re-simulated.  Excluded from the cache identity, as
     * are the output paths below (see sim/result_cache.hpp).
     */
    std::string cacheDirPath;

    /** When non-empty, the scenario dumps its trace as CSV to this path. */
    std::string traceCsvPath;

    /** When non-empty, write a RunReport JSON manifest here (spec echo,
        seed, wall/sim time, all stats the run touched). */
    std::string reportJsonPath;

    /** When non-empty, export the Chrome trace-event JSON here (and
        enable the tracer for this run). */
    std::string traceJsonPath;

    /**
     * Lane width of the batched (SoA lockstep) execution path: 0 runs
     * the scalar engine (the exactness oracle), N > 0 opts into
     * sim/batch_engine.hpp with batches of up to N lanes.  Batched
     * results match the scalar oracle within the tolerance documented
     * in DESIGN.md §10, not bit-exactly, so batched and scalar specs
     * never share a result-cache identity (the key is emitted only
     * when non-zero).
     */
    int batch = 0;

    /**
     * Tuning overrides for CoolAir systems (the bench_ablation knobs).
     * Unset means "use the Table 1 version preset".
     */
    std::optional<double> bandWidthC;
    std::optional<double> bandOffsetC;
    std::optional<double> switchPenalty;
    std::optional<double> sleepDecayPerEpoch;
    std::optional<int> horizonSteps;

    friend bool operator==(const ExperimentSpec &,
                           const ExperimentSpec &) = default;
};

/** Year-experiment outputs. */
struct ExperimentResult
{
    Summary system;    ///< Inlet-temperature metrics of the run.
    Summary outside;   ///< Outside-temperature ranges for comparison.

    friend bool operator==(const ExperimentResult &,
                           const ExperimentResult &) = default;
};

/**
 * The memoized learned bundle (model + recirculation rank), produced
 * once per process from the abrupt Parasol plant.
 */
const model::LearnedBundle &sharedBundle();

/**
 * The memoized bundle for the evaporative-cooler plant (includes
 * FcEvap regime models).
 */
const model::LearnedBundle &sharedEvaporativeBundle();

/** The memoized Facebook utilization profile (for the world sweep). */
const workload::UtilizationProfile &sharedFacebookProfile();

/**
 * Force initialization of the lazy shared state the given specs will
 * touch (learned bundles, the utilization profile).  Call before
 * fanning specs out over worker threads so first-touch learning cannot
 * serialize the pool (magic-static initialization takes a lock).
 */
void prewarmSharedState(const std::vector<ExperimentSpec> &specs);

/**
 * Run one experiment, honoring spec.runKind (year, single day, or day
 * range).  Assembles the stack through the scenario layer
 * (sim/scenario.hpp).
 *
 * @throws std::invalid_argument for an unrunnable spec (nonpositive
 *         weeks or physics step, empty day range), so sweep drivers can
 *         report the failing spec instead of aborting the process.
 */
ExperimentResult runExperiment(const ExperimentSpec &spec);

/**
 * Run one year-long experiment (the §5.1 protocol) regardless of
 * spec.runKind.  Equivalent to runExperiment with runKind forced to
 * YearWeekly; kept as the historical entry point of the figure benches.
 *
 * @throws std::invalid_argument for an unrunnable spec (nonpositive
 *         weeks or physics step).
 */
ExperimentResult runYearExperiment(const ExperimentSpec &spec);

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_EXPERIMENT_HPP
