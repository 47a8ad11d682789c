#ifndef COOLAIR_SIM_BATCH_ENGINE_HPP
#define COOLAIR_SIM_BATCH_ENGINE_HPP

/**
 * @file
 * The batched simulation engine: N whole experiments ("lanes") stepped
 * in lockstep through one instruction stream.
 *
 * Lanes must share one *shape* — every spec field except the location,
 * the seed, and the output/cache paths — so the batch shares a single
 * physics-step/sample/epoch timeline and one plant::BatchedPlant.  The
 * timeline is sim::Engine's (sim::Timeline), run at N lanes; what
 * changes is execution layout:
 *
 *  - plant physics and sensor noise run as SoA kernels across lanes
 *    (plant/parasol_batch.hpp, fast-math TUs);
 *  - engine-loop weather comes from per-lane pre-evaluated grids
 *    (environment::Climate::sampleGridInto) instead of per-step scalar
 *    sampling;
 *  - workload, controller, forecaster and metrics stay per-lane scalar
 *    objects walked at sample boundaries.
 *
 * The scalar path is the exactness oracle: batched Summary metrics
 * match it within the tolerance documented in DESIGN.md §10, not
 * bit-exactly.  A lane that throws — at construction (e.g. trace output
 * is unsupported here) or mid-run — is captured as a failed LaneResult
 * while the remaining lanes run to completion.
 */

#include <memory>
#include <string>
#include <vector>

#include "environment/forecast.hpp"
#include "plant/parasol_batch.hpp"
#include "sim/engine.hpp"

namespace coolair {
namespace sim {

/**
 * The batch-shape key of a spec: its canonical text with the per-lane
 * fields (location, seed, cache/output paths) cleared.  Specs with
 * equal shape keys may share a BatchedEngine; the sweep runner groups
 * by this key.
 */
std::string batchShapeKey(const ExperimentSpec &spec);

/** Batch-execution counters surfaced through the StatsRegistry. */
struct BatchStats
{
    int64_t batchesExecuted = 0;   ///< BatchedEngine runs completed.
    int64_t lanesStepped = 0;      ///< Lane-steps (lanes x physics steps).
    int64_t raggedTailLanes = 0;   ///< Lanes in under-width tail batches.
    int64_t simMinutes = 0;        ///< Simulated minutes, summed over lanes.
};

/** Outcome of one lane of a batched run. */
struct LaneResult
{
    bool ok = false;
    std::string error;          ///< Set when !ok.
    ExperimentResult result;    ///< Valid when ok.
};

/** Steps a batch of same-shape experiments in lockstep. */
class BatchedEngine : private Timeline
{
  public:
    /**
     * Build a batch, one lane per spec.
     *
     * @param specs  Same-shape specs (see batchShapeKey); every spec
     *               must have batch > 0.
     * @param requested_width  The lane width the caller aimed for; a
     *               batch smaller than it is a ragged tail (counted in
     *               stats().raggedTailLanes).  0 means "exact".
     * @throws std::invalid_argument if the batch is empty, a spec has
     *         batch == 0, shapes differ, or the shared shape is
     *         unrunnable (checkRunnable()).
     *
     * Per-lane construction failures (e.g. trace output requested) do
     * NOT throw: the lane is marked dead and surfaces as a failed
     * LaneResult from run().
     */
    explicit BatchedEngine(std::vector<ExperimentSpec> specs,
                           int requested_width = 0);

    int lanes() const { return int(_parts.size()); }

    /**
     * Run the shared runKind protocol and return one LaneResult per
     * lane, in spec order.  Writes per-lane RunReports (reportJsonPath)
     * and merges stats into obs::registry() when obs is enabled.  Call
     * once.
     */
    std::vector<LaneResult> run();

    /** Batch counters of this engine (valid after run()). */
    const BatchStats &stats() const { return _stats; }

    /** Noise-free plant probe for tests. */
    const plant::BatchedPlant &plant() const { return *_plant; }

  private:
    /** What a lane owns: its spec and the components it runs. */
    struct LaneParts
    {
        ExperimentSpec spec;
        std::unique_ptr<environment::Climate> climate;
        std::unique_ptr<environment::Forecaster> forecaster;
        std::unique_ptr<workload::WorkloadModel> workload;
        std::unique_ptr<Controller> controller;
        std::unique_ptr<MetricsCollector> metrics;

        /** Pre-evaluated weather for the current grid chunk. */
        environment::WeatherGrid grid;
    };

    void beginRange(int64_t start_s, int64_t end_s) override;
    void beginStep(int64_t t_s) override;
    void startPlants(int64_t warm_start_s) override;
    void readSensors() override;
    void stepPlants(double dt_s) override;

    void refreshGrids(int64_t from_s, int64_t end_s);
    void addBatchStats(obs::StatsRegistry &reg) const;

    std::vector<LaneParts> _parts;
    std::unique_ptr<plant::BatchedPlant> _plant;

    // Current grid chunk: lane grids all start at _gridStartS with
    // _gridPoints samples spaced one physics step apart; _gridIndex is
    // the next one to load.
    int64_t _rangeEndS = 0;
    int64_t _gridStartS = 0;
    int _gridPoints = 0;
    int _gridIndex = 0;

    BatchStats _stats;
    bool _ran = false;
};

/**
 * Run one spec through the batched engine (a single-lane batch).
 * The batched counterpart of the scalar scenario path behind
 * runExperiment(); spec.batch must be positive.
 *
 * @throws std::invalid_argument for an unrunnable spec,
 *         std::runtime_error if the lane itself fails.
 */
ExperimentResult runBatchedExperiment(const ExperimentSpec &spec);

/**
 * Run several same-shape specs as one batch, returning per-lane
 * outcomes in spec order (the sweep runner's entry point).
 */
std::vector<LaneResult>
runBatchedGroup(const std::vector<ExperimentSpec> &specs,
                int requested_width);

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_BATCH_ENGINE_HPP
