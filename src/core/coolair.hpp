#ifndef COOLAIR_CORE_COOLAIR_HPP
#define COOLAIR_CORE_COOLAIR_HPP

/**
 * @file
 * The CoolAir manager: ties band selection, the Cooling Optimizer /
 * Predictor, and the Compute Optimizer into the control loop of
 * Figure 2.  Every control epoch (10 minutes) it consumes sensor
 * readings and workload status and emits a cooling regime command plus a
 * compute plan.
 *
 * Table 1's evaluation versions (Temperature, Variation, Energy, All-ND,
 * All-DEF) and the ablation systems (Var-Low-Recirc, Var-High-Recirc,
 * Energy-DEF) are expressed as configuration presets.
 */

#include <cstdint>
#include <string>

#include "cooling/regime.hpp"
#include "core/band.hpp"
#include "core/compute.hpp"
#include "core/optimizer.hpp"
#include "core/predictor.hpp"
#include "environment/forecast.hpp"
#include "model/learner.hpp"
#include "plant/parasol.hpp"
#include "workload/model.hpp"

namespace coolair {
namespace core {

/** The CoolAir versions of the paper's evaluation (Table 1 + §5.2). */
enum class Version
{
    Temperature,    ///< Low setpoint + energy + humidity; low recirc.
    Variation,      ///< Adaptive band + humidity; high recirc.
    Energy,         ///< Max temp + energy + humidity; low recirc.
    AllNd,          ///< Band + energy + humidity; high recirc.
    AllDef,         ///< All-ND + temporal scheduling; low recirc.
    VarLowRecirc,   ///< Fixed 25-30 band; low-recirc placement (ablation).
    VarHighRecirc,  ///< Fixed 25-30 band; high-recirc placement (ablation).
    EnergyDef       ///< Energy + cold-hours temporal (prior-art proxy).
};

/** Name of a version as the paper prints it. */
const char *versionName(Version v);

/** How the day's temperature band is chosen. */
enum class BandMode
{
    Adaptive,  ///< From the outside forecast (§3.2).
    Fixed,     ///< A static band (the Fig. 11 ablation systems).
    None       ///< No band; only the max-temp ceiling applies.
};

/** Full CoolAir configuration. */
struct CoolAirConfig
{
    BandConfig band;
    BandMode bandMode = BandMode::Adaptive;
    double fixedBandLowC = 25.0;
    double fixedBandHighC = 30.0;

    UtilityConfig utility;
    ComputeConfig compute;
    cooling::RegimeMenu menu = cooling::RegimeMenu::parasol();

    /** Control epoch [s] (paper: every 10 minutes). */
    int64_t controlEpochS = 600;

    /** Prediction horizon in model steps (8 x 2 min = 16 min). */
    int horizonSteps = 8;

    /**
     * Build the preset for a Table 1 / §5.2 version.
     *
     * @param v          the version
     * @param menu       the regime menu of the installed cooling units
     * @param max_temp_c the operator's desired maximum temperature
     *                   (§5.2 studies 25 and 30 °C)
     */
    static CoolAirConfig forVersion(Version v,
                                    const cooling::RegimeMenu &menu,
                                    double max_temp_c = 30.0);
};

/** The runtime manager. */
class CoolAir
{
  public:
    /** One control decision. */
    struct Decision
    {
        cooling::Regime regime;
        workload::ComputePlan plan;
        TemperatureBand band;
        double penalty = 0.0;
        double predictedEnergyKwh = 0.0;
    };

    /**
     * @param config     version preset (or custom configuration)
     * @param bundle     the learned cooling model + recirculation rank
     * @param forecaster weather forecast service (not owned)
     */
    CoolAir(const CoolAirConfig &config, model::LearnedBundle bundle,
            environment::Forecaster *forecaster);

    /**
     * Run one control epoch.  Call every config.controlEpochS seconds
     * with fresh readings.
     */
    Decision control(const plant::SensorReadings &sensors,
                     const workload::WorkloadStatus &status,
                     const plant::PodLoad &load, util::SimTime now);

    /** The configuration in effect. */
    const CoolAirConfig &config() const { return _config; }

    /** The learned bundle (model + ranking). */
    const model::LearnedBundle &bundle() const { return _bundle; }

    /** The rollout engine (for stats harvesting / inspection). */
    const CoolingPredictor &predictor() const { return _predictor; }

    /** The regime selector (for stats harvesting / inspection). */
    const CoolingOptimizer &optimizer() const { return _optimizer; }

    /**
     * Route candidate scoring through the lane scorer
     * (CoolingOptimizer::chooseBatched) instead of the strict rollouts.
     * Same decisions up to last-ulp score ties; used by the
     * lane-batched engine, whose tolerance contract (DESIGN.md §10)
     * covers the difference.
     */
    void setBatchedCandidates(bool on) { _batchedCandidates = on; }

  private:
    void refreshDay(util::SimTime now);

    CoolAirConfig _config;
    model::LearnedBundle _bundle;
    environment::Forecaster *_forecaster;

    CoolingPredictor _predictor;
    CoolingOptimizer _optimizer;
    ComputeOptimizer _computeOptimizer;

    TemperatureBand _band;
    environment::Forecast _dayForecast;
    int _bandDay = -1;
    bool _batchedCandidates = false;

    // Controller memory feeding the model's "last" inputs.
    std::vector<double> _prevTemp;
    double _prevFan = 0.0;
    double _prevOutside = 15.0;
    bool _havePrev = false;

    // Per-epoch buffers, reused so steady-state control allocates
    // nothing: predictor inputs, the shared weather outlook every
    // candidate rollout reads, the rollout scratch trajectory, and the
    // charged-pod list.
    PredictorState _state;
    EpochOutlook _outlook;
    Trajectory _trajScratch;
    std::vector<int> _activePods;
};

} // namespace core
} // namespace coolair

#endif // COOLAIR_CORE_COOLAIR_HPP
