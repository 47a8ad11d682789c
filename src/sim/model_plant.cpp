#include "sim/model_plant.hpp"

#include <algorithm>

#include "physics/psychrometrics.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace coolair {
namespace sim {

ModelPlant::ModelPlant(const model::CoolingModel *model,
                       const plant::PlantConfig &plant_config)
    : _model(model),
      _plantConfig(plant_config),
      _actuators(plant_config.actuators),
      _temp(size_t(plant_config.numPods), 22.0),
      _tempPrev(size_t(plant_config.numPods), 22.0)
{
    if (!model)
        util::panic("ModelPlant: null model");
    if (model->config().numPods != plant_config.numPods)
        util::fatal("ModelPlant: model/plant pod count mismatch");
}

void
ModelPlant::reset(const plant::SensorReadings &init)
{
    _temp = init.podInletC;
    _tempPrev = init.podInletC;
    _absHumidity = init.coldAisleAbsHumidity;
    _fanPrev = init.cooling.fcFanSpeed;
    _prevRegime = cooling::Regime::closed();
    _outside.tempC = init.outsideC;
    _outside.rhPercent = init.outsideRhPercent;
    _outside.absHumidity = init.outsideAbsHumidity;
    _outsidePrev = _outside;
    _itPowerW = init.itPowerW;
    _dcUtilization = init.dcUtilization;
}

double
ModelPlant::itPowerFor(const plant::PodLoad &load, double *dc_util) const
{
    double power = 0.0;
    int awake = 0;
    for (int p = 0; p < _plantConfig.numPods; ++p) {
        int act = std::clamp(load.activeServers[size_t(p)], 0,
                             _plantConfig.serversPerPod);
        double u = util::clamp(load.utilization[size_t(p)], 0.0, 1.0);
        power += double(act) * (_plantConfig.serverIdleW +
                                _plantConfig.serverBusySpanW * u);
        power += double(_plantConfig.serversPerPod - act) *
                 _plantConfig.serverSleepW;
        awake += act;
    }
    if (dc_util)
        *dc_util = double(awake) / double(_plantConfig.totalServers());
    return power;
}

void
ModelPlant::step(const environment::WeatherSample &outside,
                 const plant::PodLoad &load,
                 const cooling::Regime &command)
{
    // Actuator emulation so the model sees achievable fan speeds.
    _actuators.setCommand(command);
    _actuators.step(stepS());
    const auto &unit = _actuators.state();
    const cooling::Regime actual = unit.regime();

    _outsidePrev = _outside;
    _outside = outside;
    _itPowerW = itPowerFor(load, &_dcUtilization);

    model::TempInputs tin;
    double outside_c = outside.tempC;
    if (actual.mode == cooling::Mode::FreeCooling && actual.evaporative &&
        _plantConfig.hasEvaporativeCooler) {
        outside_c = physics::evaporativeOutletTemp(
            outside.tempC, outside.rhPercent,
            _plantConfig.evapEffectiveness);
    }
    tin.outsideC = outside_c;
    tin.outsidePrevC = _outsidePrev.tempC;
    tin.fanSpeed = unit.fcFanSpeed;
    tin.fanSpeedPrev = _fanPrev;
    tin.dcUtilization = _dcUtilization;

    std::vector<double> next(_temp.size());
    for (int p = 0; p < _plantConfig.numPods; ++p) {
        tin.insideC = _temp[size_t(p)];
        tin.insidePrevC = _tempPrev[size_t(p)];
        tin.podPowerFraction = load.podPowerFraction(p);
        double pred = _model->predictTemp(_prevRegime, actual, p, tin);
        // Physical guardrails: chained linear models can resonate when a
        // reactive controller flips regimes every step.  Parasol's
        // fastest observed excursion is ~9 C per 12 minutes (~1.5 C per
        // 2-minute step); allow 4x slack.  Absolute bounds span the AC
        // supply floor to thermal-runaway territory.
        pred = util::clamp(pred, _temp[size_t(p)] - 6.0,
                           _temp[size_t(p)] + 6.0);
        pred = util::clamp(pred, 8.0, 55.0);
        next[size_t(p)] = pred;
    }

    model::HumidityInputs hin;
    hin.insideAbs = _absHumidity;
    hin.outsideAbs = outside.absHumidity;
    hin.fanSpeed = unit.fcFanSpeed;
    _absHumidity = std::max(
        0.1, _model->predictHumidity(_prevRegime, actual, hin));

    _tempPrev = std::move(_temp);
    _temp = std::move(next);
    _fanPrev = unit.fcFanSpeed;
    _prevRegime = actual;
}

plant::SensorReadings
ModelPlant::readSensors(util::SimTime now) const
{
    plant::SensorReadings out;
    out.time = now;
    out.podInletC = _temp;

    double avg = 0.0;
    for (double t : _temp)
        avg += t;
    avg /= double(_temp.size());

    out.coldAisleAbsHumidity = _absHumidity;
    out.coldAisleRhPercent =
        util::clamp(physics::relativeHumidity(avg, _absHumidity), 0.0,
                    100.0);
    out.hotAisleC = avg + 8.0;  // nominal; Real-Sim models the cold aisle

    out.outsideC = _outside.tempC;
    out.outsideRhPercent = _outside.rhPercent;
    out.outsideAbsHumidity = _outside.absHumidity;

    out.cooling = _actuators.state();
    out.coolingPowerW = _model->predictCoolingPower(out.cooling.regime());
    out.itPowerW = _itPowerW;
    out.dcUtilization = _dcUtilization;
    return out;
}

ModelSimRunner::ModelSimRunner(ModelPlant &plant,
                               workload::WorkloadModel &workload,
                               Controller &controller,
                               const environment::WeatherProvider &climate)
    : Timeline(EngineConfig{plant.stepS(), int64_t(plant.stepS()),
                            /*warmupS=*/0},
               /*lanes=*/1, /*isolate_lane_errors=*/false),
      _plant(plant),
      _climate(climate)
{
    Lane &lane = _lanes.front();
    lane.workload = &workload;
    lane.controller = &controller;
}

void
ModelSimRunner::runDay(int day_of_year, const plant::SensorReadings &init)
{
    _init = &init;
    Timeline::runDay(day_of_year);
    _init = nullptr;
}

void
ModelSimRunner::beginStep(int64_t t_s)
{
    _outside.front() = _climate.sample(util::SimTime(t_s));
}

void
ModelSimRunner::startPlants(int64_t)
{
    _plant.reset(*_init);
}

void
ModelSimRunner::readSensors()
{
    // Timeline::sample stamps the readings with the step's time.
    _sensors.front() = _plant.readSensors(util::SimTime(0));
}

void
ModelSimRunner::stepPlants(double)
{
    _plant.step(_outside.front(), _loads.front(), _commands.front());
}

} // namespace sim
} // namespace coolair
