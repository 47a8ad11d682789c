#include "core/coolair.hpp"

#include "util/logging.hpp"

namespace coolair {
namespace core {

const char *
versionName(Version v)
{
    switch (v) {
      case Version::Temperature:   return "Temperature";
      case Version::Variation:     return "Variation";
      case Version::Energy:        return "Energy";
      case Version::AllNd:         return "All-ND";
      case Version::AllDef:        return "All-DEF";
      case Version::VarLowRecirc:  return "Var-Low-Recirc";
      case Version::VarHighRecirc: return "Var-High-Recirc";
      case Version::EnergyDef:     return "Energy-DEF";
    }
    util::panic("versionName: unknown version");
}

CoolAirConfig
CoolAirConfig::forVersion(Version v, const cooling::RegimeMenu &menu,
                          double max_temp_c)
{
    CoolAirConfig c;
    c.menu = menu;
    c.band.maxC = max_temp_c;
    c.utility.maxTempC = max_temp_c;
    c.compute.manageServerStates = true;

    switch (v) {
      case Version::Temperature:
        // Absolute temperature only, below a low setpoint — what energy-
        // aware thermal management does in non-free-cooled datacenters.
        c.bandMode = BandMode::None;
        c.utility.maxTempC = max_temp_c - 1.0;
        c.utility.penalizeBand = false;
        c.utility.penalizeRate = false;
        c.utility.energyAware = true;
        c.compute.placement = Placement::LowRecircFirst;
        c.compute.temporal = TemporalPolicy::None;
        break;

      case Version::Variation:
        c.bandMode = BandMode::Adaptive;
        c.utility.energyAware = false;
        c.compute.placement = Placement::HighRecircFirst;
        c.compute.temporal = TemporalPolicy::None;
        break;

      case Version::Energy:
        c.bandMode = BandMode::None;
        c.utility.penalizeBand = false;
        c.utility.penalizeRate = false;
        c.utility.energyAware = true;
        c.compute.placement = Placement::LowRecircFirst;
        c.compute.temporal = TemporalPolicy::None;
        break;

      case Version::AllNd:
        c.bandMode = BandMode::Adaptive;
        c.utility.energyAware = true;
        c.compute.placement = Placement::HighRecircFirst;
        c.compute.temporal = TemporalPolicy::None;
        break;

      case Version::AllDef:
        c.bandMode = BandMode::Adaptive;
        c.utility.energyAware = true;
        c.compute.placement = Placement::LowRecircFirst;
        c.compute.temporal = TemporalPolicy::BandHours;
        break;

      case Version::VarLowRecirc:
        c.bandMode = BandMode::Fixed;
        c.fixedBandLowC = max_temp_c - 5.0;
        c.fixedBandHighC = max_temp_c;
        c.utility.energyAware = false;
        c.compute.placement = Placement::LowRecircFirst;
        c.compute.temporal = TemporalPolicy::None;
        break;

      case Version::VarHighRecirc:
        c.bandMode = BandMode::Fixed;
        c.fixedBandLowC = max_temp_c - 5.0;
        c.fixedBandHighC = max_temp_c;
        c.utility.energyAware = false;
        c.compute.placement = Placement::HighRecircFirst;
        c.compute.temporal = TemporalPolicy::None;
        break;

      case Version::EnergyDef:
        c.bandMode = BandMode::None;
        c.utility.penalizeBand = false;
        c.utility.penalizeRate = false;
        c.utility.energyAware = true;
        c.compute.placement = Placement::LowRecircFirst;
        c.compute.temporal = TemporalPolicy::ColdHours;
        break;
    }
    return c;
}

CoolAir::CoolAir(const CoolAirConfig &config, model::LearnedBundle bundle,
                 environment::Forecaster *forecaster)
    : _config(config),
      _bundle(std::move(bundle)),
      _forecaster(forecaster),
      _predictor(&_bundle.model, config.horizonSteps),
      _optimizer(config.menu, config.utility),
      _computeOptimizer(config.compute, _bundle.recircRankAscending)
{
    if (!forecaster && config.bandMode == BandMode::Adaptive)
        util::fatal("CoolAir: adaptive band requires a forecaster");
    _band = TemperatureBand::fixed(_config.fixedBandLowC,
                                   _config.fixedBandHighC);
}

void
CoolAir::refreshDay(util::SimTime now)
{
    int day = now.dayOfYear();
    if (day == _bandDay)
        return;
    _bandDay = day;

    if (_forecaster)
        _dayForecast = _forecaster->fullDay(now);
    else
        _dayForecast = environment::Forecast{};

    switch (_config.bandMode) {
      case BandMode::Adaptive:
        _band = selectBand(_dayForecast, _config.band);
        break;
      case BandMode::Fixed:
        _band = TemperatureBand::fixed(_config.fixedBandLowC,
                                       _config.fixedBandHighC);
        break;
      case BandMode::None:
        // A vacuous band; the band penalty is off for these versions,
        // but temporal policies may still consult the forecast.
        _band = TemperatureBand::fixed(_config.band.minC,
                                       _config.utility.maxTempC);
        break;
    }
}

CoolAir::Decision
CoolAir::control(const plant::SensorReadings &sensors,
                 const workload::WorkloadStatus &status,
                 const plant::PodLoad &load, util::SimTime now)
{
    refreshDay(now);

    const cooling::Regime current = sensors.cooling.regime();

    if (!_havePrev) {
        _prevTemp = sensors.podInletC;
        _prevFan = sensors.cooling.fcFanSpeed;
        _prevOutside = sensors.outsideC;
        _havePrev = true;
    }

    _state.fill(sensors, _prevTemp, _prevFan, _prevOutside, current,
                &load);
    _outlook.materialize(_state, _predictor.horizonSteps(),
                         _bundle.model.config().evapEffectiveness);

    _activePods.clear();
    for (size_t p = 0; p < load.activeServers.size(); ++p) {
        if (load.activeServers[p] > 0)
            _activePods.push_back(int(p));
    }
    if (_activePods.empty()) {
        // Nothing awake (shouldn't happen with a covering subset); fall
        // back to charging every sensor.
        for (size_t p = 0; p < sensors.podInletC.size(); ++p)
            _activePods.push_back(int(p));
    }

    OptimizerDecision opt =
        _batchedCandidates
            ? _optimizer.chooseBatched(_predictor, _state, _outlook,
                                       _activePods, _band)
            : _optimizer.choose(_predictor, _state, _outlook,
                                _activePods, _band, _trajScratch);

    Decision decision;
    decision.regime = opt.regime;
    decision.band = _band;
    decision.penalty = opt.penalty;
    decision.predictedEnergyKwh = opt.energyKwh;
    decision.plan =
        _computeOptimizer.plan(status, _band, _dayForecast, _config.band);

    _prevTemp = sensors.podInletC;
    _prevFan = sensors.cooling.fcFanSpeed;
    _prevOutside = sensors.outsideC;

    return decision;
}

} // namespace core
} // namespace coolair
