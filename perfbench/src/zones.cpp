#include "zones.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "attack/ddos_injector.hpp"
#include "attack/fdi_injector.hpp"
#include "attack/ramp_injector.hpp"
#include "common/error.hpp"
#include "datagen/fleet.hpp"
#include "metrics/regression.hpp"
#include "stream/pipeline.hpp"
#include "tensor/tensor3.hpp"

namespace perfbench {

namespace {

using namespace evfl;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// One outage starts at a given zone-hour with probability 1/kOutageEvery.
constexpr std::uint64_t kOutageEvery = 300;

/// Mean hours between attack episodes per kind at attack_scale 1: sparse
/// enough (about 0.3% of samples) that a 99.5th-percentile threshold is
/// not dragged into the attack tail by the attacks it should flag.
constexpr double kDdosEveryH = 1500.0;
constexpr double kRampEveryH = 8000.0;
constexpr double kFdiEveryH = 8000.0;

/// Episode count with mean len / every: the integer part plus one more
/// with the fractional part's probability, so short series get attacks at
/// the same average density as long ones.
std::size_t episodes(double len, double every, std::uint64_t coin) {
  const double mean = len / every;
  const double whole = std::floor(mean);
  const double u = static_cast<double>(coin >> 11) * 0x1.0p-53;
  return static_cast<std::size_t>(whole) + (u < mean - whole ? 1 : 0);
}

/// Injector for zone `zone` (kind by zone % 5), or null when the zone
/// draws no episode.
std::unique_ptr<attack::Injector> injector_for(std::size_t zone,
                                               std::size_t len, double scale,
                                               std::uint64_t coin) {
  const double l = static_cast<double>(len) * scale;
  switch (zone % 5) {
    case 3: {
      attack::RampConfig c;
      c.ramps = episodes(l, kRampEveryH, coin);
      c.min_ramp_hours = 12;
      c.max_ramp_hours = 36;
      if (c.ramps == 0) return nullptr;
      return std::make_unique<attack::RampInjector>(c);
    }
    case 4: {
      attack::FdiConfig c;
      c.windows = episodes(l, kFdiEveryH, coin);
      c.min_window_hours = 12;
      c.max_window_hours = 36;
      if (c.windows == 0) return nullptr;
      return std::make_unique<attack::FalseDataInjector>(c);
    }
    default: {
      attack::DdosConfig c;
      c.bursts = episodes(l, kDdosEveryH, coin);
      if (c.bursts == 0) return nullptr;
      return std::make_unique<attack::DdosInjector>(c);
    }
  }
}

}  // namespace

std::vector<ZoneSeries> make_zones(std::uint64_t seed, const ZoneGen& gen) {
  const std::size_t count = gen.count, hours = gen.hours, calib = gen.calib;
  EVFL_REQUIRE(hours >= calib + 48, "make_zones: too few hours after calib");
  // One pure-archetype fleet per zone archetype, so every zone count gets
  // the same 102/105/108 rotation.
  std::vector<datagen::ClientSpec> specs[3];
  for (std::size_t a = 0; a < 3; ++a) {
    datagen::FleetConfig fc;
    fc.clients = (count + 2 - a) / 3 + 1;
    fc.hours = hours;
    fc.seed = splitmix64(seed * 3 + a);
    fc.jitter = gen.jitter;
    fc.mix_102 = a == 0 ? 1.0 : 0.0;
    fc.mix_105 = a == 1 ? 1.0 : 0.0;
    fc.mix_108 = a == 2 ? 1.0 : 0.0;
    specs[a] = datagen::make_fleet(fc);
  }

  std::vector<ZoneSeries> zones(count);
  const std::size_t len = hours - calib;
  for (std::size_t z = 0; z < count; ++z) {
    datagen::ClientSpec spec = specs[z % 3][z / 3];
    spec.hours = hours;  // every zone reports the same ticks
    // No adoption growth: a run of any length keeps the demand level the
    // calibration prefix (and its scaler) saw.
    spec.profile.growth_rate = 0.0f;
    ZoneSeries& zs = zones[z];
    zs.clean = datagen::materialize_series(spec).values;

    zs.raw = zs.clean;
    zs.label.assign(hours, 0);
    const std::uint64_t zone_seed = splitmix64(seed ^ splitmix64(z + 0x51ull));
    if (const auto inj = injector_for(z, len, gen.attack_scale, zone_seed)) {
      data::TimeSeries post;
      post.values.assign(zs.clean.begin() + calib, zs.clean.end());
      data::TimeSeries attacked;
      tensor::Rng rng(splitmix64(zone_seed));
      inj->inject(post, attacked, rng);
      for (std::size_t i = 0; i < len; ++i) {
        zs.raw[calib + i] = attacked.values[i];
        zs.label[calib + i] = attacked.labels[i];
      }
    }

    zs.present.assign(hours, 1);
    if (gen.churn) {
      for (std::size_t t = calib; t < hours; ++t) {
        const std::uint64_t h = splitmix64(seed ^ splitmix64(z << 32 | t));
        if (h % kOutageEvery != 0) continue;
        const std::size_t out = 2 + (h >> 32) % 5;
        for (std::size_t k = 0; k < out && t + k < hours; ++k) {
          zs.present[t + k] = 0;
        }
        t += out;
      }
    }

    zs.scaler.fit(std::vector<float>(zs.clean.begin(),
                                     zs.clean.begin() + calib));
  }
  return zones;
}

std::vector<float> scaled_slice(const ZoneSeries& z, std::size_t begin,
                                std::size_t end, bool clean) {
  const std::vector<float>& src = clean ? z.clean : z.raw;
  std::vector<float> out(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    out[i - begin] = z.scaler.transform_one(src[i]);
  }
  return out;
}

float calibration_threshold(forecast::Engine& engine, const ZoneSeries& z,
                            std::size_t calib,
                            const anomaly::ThresholdRule& rule,
                            const runtime::RunContext* ctx,
                            std::vector<float>* scores_out) {
  std::vector<float> scores =
      stream::batch_scores(engine, scaled_slice(z, 0, calib), ctx);
  const float threshold = anomaly::compute_threshold(scores, rule);
  if (scores_out != nullptr) *scores_out = std::move(scores);
  return threshold;
}

double served_r2(forecast::Engine& engine,
                 const std::vector<ZoneSeries>& zones, std::size_t t_begin,
                 std::size_t t_end, const runtime::RunContext* ctx) {
  const std::size_t lookback = engine.model_config().sequence_length;
  const std::size_t batch = engine.config().max_batch;
  std::vector<float> actual, predicted;
  tensor::Tensor3 x(batch, lookback, 1);
  std::vector<float> out(batch);
  for (const ZoneSeries& z : zones) {
    const std::vector<float> scaled =
        scaled_slice(z, t_begin - lookback, t_end, /*clean=*/true);
    std::size_t rows = 0;
    const auto score_rows = [&] {
      if (rows == 0) return;
      engine.score_prefix(x, rows, out.data(), ctx);
      for (std::size_t r = 0; r < rows; ++r) {
        predicted.push_back(z.scaler.inverse_one(out[r]));
      }
      rows = 0;
    };
    for (std::size_t t = t_begin; t < t_end; ++t) {
      const float* src = scaled.data() + (t - t_begin);
      std::copy(src, src + lookback, x.data() + rows * lookback);
      actual.push_back(z.clean[t]);
      if (++rows == batch) score_rows();
    }
    score_rows();
  }
  return metrics::r2_score(actual, predicted);
}

}  // namespace perfbench
