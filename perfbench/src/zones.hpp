// Generated benchmark inputs shared by the workloads: charging-demand
// series from datagen::make_fleet (zone archetypes 102/105/108, including
// spiky 108), labelled attacks from the attack injectors, churn outages,
// and the detection/forecast quality arithmetic over them.
#pragma once

#include <cstdint>
#include <vector>

#include "anomaly/threshold.hpp"
#include "data/scaler.hpp"
#include "forecast/engine.hpp"
#include "runtime/run_context.hpp"

namespace perfbench {

struct ZoneSeries {
  std::vector<float> clean;           // generated demand, physical units
  std::vector<float> raw;             // clean with attacks injected
  std::vector<std::uint8_t> label;    // 1 = injected attack sample
  std::vector<std::uint8_t> present;  // 0 = the zone is out (churn)
  evfl::data::MinMaxScaler scaler;    // fit on the clean calibration prefix
};

/// What make_zones generates.
struct ZoneGen {
  std::size_t count = 0;
  std::size_t hours = 0;  // per zone, all zones report every tick
  std::size_t calib = 0;  // clean prefix before attacks and churn
  /// Attack density relative to about 0.3% of samples.
  double attack_scale = 1.0;
  /// Zones drop out for 2-6 hours at random after the prefix.
  bool churn = false;
  /// datagen::FleetConfig::jitter: 0 gives every zone its archetype's
  /// exact profile.
  double jitter = 0.15;
};

/// Zones reproducible from `seed`.  Zone z takes archetype z % 3 (102,
/// 105, 108) and, after the clean prefix, attack kind z % 5 (DDoS for 0-2,
/// ramp for 3, false-data injection for 4).  Adoption growth is off, so
/// the demand level of a run of any length stays that of the prefix.
std::vector<ZoneSeries> make_zones(std::uint64_t seed, const ZoneGen& gen);

/// Scaled copy of raw[begin, end) (or clean[begin, end)).
std::vector<float> scaled_slice(const ZoneSeries& z, std::size_t begin,
                                std::size_t end, bool clean = false);

struct Confusion {
  std::uint64_t tp = 0, fp = 0, fn = 0, tn = 0;
  void add(bool attack, bool flagged) {
    if (attack) {
      flagged ? ++tp : ++fn;
    } else {
      flagged ? ++fp : ++tn;
    }
  }
  double recall() const { return ratio(tp, tp + fn); }
  double precision() const { return ratio(tp, tp + fp); }
  double fpr() const { return ratio(fp, fp + tn); }

 private:
  static double ratio(std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  }
};

/// Threshold from the zone's calibration windows, as the batch detector
/// sets it: stream::batch_scores over the scaled prefix, then
/// anomaly::compute_threshold under `rule`.  `scores_out` receives the
/// calibration scores.
float calibration_threshold(evfl::forecast::Engine& engine,
                            const ZoneSeries& z, std::size_t calib,
                            const evfl::anomaly::ThresholdRule& rule,
                            const evfl::runtime::RunContext* ctx,
                            std::vector<float>* scores_out = nullptr);

/// R² in physical units of the engine's one-step forecasts of the clean
/// series, targets [t_begin, t_end) of every zone, pooled.
double served_r2(evfl::forecast::Engine& engine,
                 const std::vector<ZoneSeries>& zones, std::size_t t_begin,
                 std::size_t t_end, const evfl::runtime::RunContext* ctx);

}  // namespace perfbench
