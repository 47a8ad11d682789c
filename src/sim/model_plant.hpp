#ifndef COOLAIR_SIM_MODEL_PLANT_HPP
#define COOLAIR_SIM_MODEL_PLANT_HPP

/**
 * @file
 * Real-Sim / Smooth-Sim: simulators whose physics *is* the learned
 * Cooling Model.
 *
 * Paper §5.1: "To compute temperatures and humidity over time, they
 * [Real-Sim and Smooth-Sim] repeatedly call the same code implementing
 * CoolAir's Cooling Predictor."  ModelPlant does exactly that — it
 * advances pod temperatures and humidity one model step at a time using
 * the learned per-regime linear models, instead of the physical plant
 * equations.  Comparing a controller run on the physics Plant ("real")
 * against the same controller run on ModelPlant reproduces the paper's
 * validation methodology (Figures 6 and 7).
 */

#include "cooling/regime.hpp"
#include "environment/climate.hpp"
#include "model/cooling_model.hpp"
#include "plant/parasol.hpp"
#include "sim/controller.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"

namespace coolair {
namespace sim {

/** Learned-model-driven plant. */
class ModelPlant
{
  public:
    /**
     * @param model        the learned cooling model (not owned)
     * @param plant_config geometry/power constants (for IT power and
     *                     actuator emulation)
     */
    ModelPlant(const model::CoolingModel *model,
               const plant::PlantConfig &plant_config);

    /** Set the state from a sensor snapshot (run start). */
    void reset(const plant::SensorReadings &init);

    /**
     * Advance one model step (model->config().stepS seconds) with the
     * commanded regime under the given outside conditions and load.
     */
    void step(const environment::WeatherSample &outside,
              const plant::PodLoad &load, const cooling::Regime &command);

    /** Current (noise-free) synthetic sensor readings. */
    plant::SensorReadings readSensors(util::SimTime now) const;

    /** Model step length [s]. */
    double stepS() const { return _model->config().stepS; }

  private:
    double itPowerFor(const plant::PodLoad &load, double *dc_util) const;

    const model::CoolingModel *_model;
    plant::PlantConfig _plantConfig;
    cooling::Actuators _actuators;

    std::vector<double> _temp;
    std::vector<double> _tempPrev;
    double _absHumidity = 8.0;
    double _fanPrev = 0.0;
    cooling::Regime _prevRegime;
    environment::WeatherSample _outside;
    environment::WeatherSample _outsidePrev;
    double _itPowerW = 0.0;
    double _dcUtilization = 1.0;
};

/**
 * The closed loop over ModelPlant: sim::Timeline at one lane, stepping
 * and sampling at the model's step with no warm-up (the Engine drives
 * the physics plant; this drives Real-Sim/Smooth-Sim at model-step
 * granularity).
 */
class ModelSimRunner : private Timeline
{
  public:
    ModelSimRunner(ModelPlant &plant, workload::WorkloadModel &workload,
                   Controller &controller,
                   const environment::WeatherProvider &climate);

    /** Attach a metrics collector (not owned). */
    void setMetrics(MetricsCollector *metrics)
    {
        _lanes.front().metrics = metrics;
    }

    /** Attach a trace sink: one row per model step. */
    void setTraceSink(TraceSink sink) { _sink = std::move(sink); }

    /**
     * Run one measured day, starting from @p init (typically the
     * physics plant's state at the same instant, so both simulations
     * start identically).
     */
    void runDay(int day_of_year, const plant::SensorReadings &init);

  private:
    void beginStep(int64_t t_s) override;
    void startPlants(int64_t warm_start_s) override;
    void readSensors() override;
    void stepPlants(double dt_s) override;

    ModelPlant &_plant;
    const environment::WeatherProvider &_climate;

    /** The start state of the day being run. */
    const plant::SensorReadings *_init = nullptr;
};

} // namespace sim
} // namespace coolair

#endif // COOLAIR_SIM_MODEL_PLANT_HPP
