// stream_fleet and stream_narrow: the sharded streaming detector
// (stream::ShardedPipeline, 4 shards on a 3-thread pool) fed by one
// producer thread with aligned hourly ticks, first as fast as ingest
// accepts (saturate), then on an open-loop schedule at a fixed rate
// (paced).  Both workloads run the same code; only the zone count and the
// rates differ.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "core/pipeline.hpp"
#include "data/window.hpp"
#include "forecast/engine.hpp"
#include "forecast/model.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "obs/telemetry.hpp"
#include "runtime/run_context.hpp"
#include "runtime/thread_pool.hpp"
#include "stream/pipeline.hpp"
#include "stream/sharded.hpp"
#include "workloads.hpp"
#include "zones.hpp"

namespace perfbench {

namespace {

using namespace evfl;

constexpr std::size_t kShards = 4;
constexpr std::size_t kPoolThreads = 3;  // control thread + 2 workers
constexpr std::size_t kCalibScores = 200;  // threshold-seeding windows/zone
constexpr std::size_t kTrainZones = 4;
constexpr std::size_t kTrainEpochs = 8;
constexpr std::size_t kReplayTicks = 32;  // frozen-threshold replay prefix
constexpr std::size_t kR2Zones = 64;
constexpr std::size_t kR2Ticks = 512;
constexpr int kSetups = 3;
constexpr double kDriftZ = 8.0;
/// Share of --seconds the saturate phase takes at the reference rate; the
/// paced phase takes the rest.  The saturate phase runs as one warm-up
/// chunk (rings, queues and engine scratch grow to size) and kSatChunks
/// measured back-to-back chunks whose median rate is reported.
constexpr double kSaturateShare = 0.4;
constexpr std::size_t kSatChunks = 8;
/// Saturate-phase flow control: the producer stays at most this many
/// samples ahead of the control thread, so ring and queue memory (and
/// peak RSS) do not depend on how far a fast producer races ahead.
constexpr std::uint64_t kMaxAheadSamples = 65536;

/// The paced phase runs at this share of the run's own saturated tick rate
/// (median of the measured chunks).  A fixed absolute rate put a slowed
/// host (a shared 4-vCPU machine's speed varied up to 3x between runs)
/// into backlog, where latency measures the queue rather than the program;
/// at a fixed share of measured capacity it degrades in step with the
/// rates instead.
constexpr double kPacedLoad = 0.25;

/// `ref_ticks_per_s` is the saturated tick rate measured when the
/// benchmark was defined (4-core x86-64 host, AVX2, Release); with
/// --seconds it fixes the tick counts of both phases, so every run and
/// every later commit processes the same ticks.  `jitter` is the
/// zone-profile jitter: a heterogeneous fleet, but exact archetype
/// profiles for 8 zones.
struct Shape {
  std::size_t zones;
  double ref_ticks_per_s;
  double jitter;
};
constexpr Shape kFleet{1024, 200.0, 0.15};
constexpr Shape kNarrow{8, 14000.0, 0.0};

struct Plan {
  std::size_t zones = 0;
  std::size_t lookback = 0;
  std::size_t calib = 0;  // clean prefix: threshold seeding and scalers
  std::size_t sat_ticks = 0;
  std::size_t paced_ticks = 0;
  std::size_t hours = 0;
  double jitter = 0.0;
  std::uint64_t seed = 0;

  std::size_t ticks() const { return sat_ticks + paced_ticks; }
};

struct Setup {
  std::vector<ZoneSeries> zones;
  std::vector<float> calib_threshold;
  /// Scores setup calibration and the output checks; `engine` serves the
  /// pipeline (and carries the registry in traced runs).
  std::unique_ptr<forecast::Engine> ref_engine;
  std::unique_ptr<forecast::Engine> engine;
  std::unique_ptr<stream::ShardedPipeline> pipe;
  double publish_ms = 0.0;
  double train_windows_per_s = 0.0;
  std::uint64_t warm_samples = 0;
};

/// The served model is trained on its own zones, generated from a fixed
/// seed, so every seed's stream is scored by the same model and the seed
/// varies only the traffic.
constexpr std::uint64_t kModelSeed = 2024;

std::vector<float> train_weights(const Plan& plan,
                                 const forecast::ForecasterConfig& mc,
                                 double& windows_per_s) {
  ZoneGen gen;
  gen.count = kTrainZones;
  gen.hours = plan.calib + 48;
  gen.calib = plan.calib;
  gen.jitter = plan.jitter;
  const std::vector<ZoneSeries> zones = make_zones(kModelSeed, gen);
  const std::size_t nz = zones.size();
  const std::size_t per = plan.calib - plan.lookback;
  tensor::Tensor3 x(nz * per, plan.lookback, 1);
  tensor::Tensor3 y(nz * per, 1, 1);
  for (std::size_t z = 0; z < nz; ++z) {
    const data::SequenceDataset ds = data::make_forecast_sequences(
        scaled_slice(zones[z], 0, plan.calib), plan.lookback);
    std::memcpy(x.data() + z * per * plan.lookback, ds.x.data(),
                ds.x.size() * sizeof(float));
    std::memcpy(y.data() + z * per, ds.y.data(), ds.y.size() * sizeof(float));
  }
  tensor::Rng rng(kModelSeed);
  nn::Sequential model = forecast::make_forecaster(mc, rng);
  nn::MseLoss loss;
  nn::Adam adam(1e-2f);
  nn::Trainer trainer(model, loss, adam, rng);
  nn::FitConfig fit;
  fit.epochs = kTrainEpochs;
  fit.batch_size = mc.batch_size;
  const std::int64_t t0 = now_ns();
  trainer.fit(x, y, fit);
  windows_per_s = static_cast<double>(x.batch() * kTrainEpochs) /
                  (static_cast<double>(now_ns() - t0) / 1e9);
  return model.get_weights();
}

/// Data generation, model training, publish, zone registration, threshold
/// seeding and window warm-up: everything before the first timed tick.
std::unique_ptr<Setup> build_setup(const Plan& plan, std::size_t shards,
                                   obs::Registry* registry,
                                   const runtime::RunContext& ctx) {
  const core::ExperimentConfig cfg;
  const forecast::ForecasterConfig& mc = cfg.forecaster;
  auto s = std::make_unique<Setup>();
  ZoneGen gen;
  gen.count = plan.zones;
  gen.hours = plan.hours;
  gen.calib = plan.calib;
  gen.churn = true;
  gen.jitter = plan.jitter;
  s->zones = make_zones(plan.seed, gen);
  const std::vector<float> weights =
      train_weights(plan, mc, s->train_windows_per_s);

  forecast::EngineConfig ref_cfg;
  ref_cfg.max_batch = 256;
  s->ref_engine = std::make_unique<forecast::Engine>(mc, ref_cfg);
  s->ref_engine->publish(weights);
  forecast::EngineConfig serve_cfg;
  serve_cfg.max_batch = std::max<std::size_t>(2, plan.zones);
  s->engine = std::make_unique<forecast::Engine>(mc, serve_cfg, registry);
  const std::int64_t p0 = now_ns();
  s->engine->publish(weights);
  s->publish_ms = static_cast<double>(now_ns() - p0) / 1e6;

  // Rings and the event queue hold twice what the saturate producer may
  // have in flight, so nothing is dropped.
  stream::ShardedConfig sc = core::make_sharded_config(cfg, plan.zones);
  sc.shards = shards;
  sc.stream.drift_z = kDriftZ;
  sc.stream.queue_max = 2 * kMaxAheadSamples;
  sc.stream.queue_shrink = 4096;
  sc.ring_max = 2 * kMaxAheadSamples;
  sc.ring_shrink = 4096;
  s->pipe = std::make_unique<stream::ShardedPipeline>(*s->engine, sc);

  std::vector<float> scores;
  for (std::size_t z = 0; z < plan.zones; ++z) {
    const std::uint32_t id = s->pipe->add_zone(s->zones[z].scaler);
    s->calib_threshold.push_back(calibration_threshold(
        *s->ref_engine, s->zones[z], plan.calib, cfg.filter.threshold, &ctx,
        &scores));
    s->pipe->seed_threshold(id, scores);
  }

  // Fill every window with the end of the clean prefix, so the first timed
  // tick is scored.
  for (std::size_t t = plan.calib - plan.lookback; t < plan.calib; ++t) {
    for (std::size_t z = 0; z < plan.zones; ++z) {
      s->pipe->ingest(static_cast<std::uint32_t>(z), t, s->zones[z].raw[t]);
      ++s->warm_samples;
    }
  }
  s->pipe->flush(shards > 1 ? &ctx : nullptr);
  std::vector<stream::AnomalyEvent> none;
  s->pipe->drain(none);
  return s;
}

/// flagged[z][t] = 1 once the stream reported an event for (z, t).
using Flags = std::vector<std::vector<std::uint8_t>>;

struct Phase {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  // every produced sample processed
  std::int64_t producer_start_ns = 0;  // the producer thread's own lifetime
  std::int64_t producer_end_ns = 0;
  std::uint64_t produced = 0;
  std::vector<double> latency_ms;  // paced: flagged sample due -> drain
  /// Paced: per-sample decision latency, from the sample's due time to the
  /// drain after the first flush that started once its tick was fully
  /// ingested.
  std::vector<double> decision_ms;
  std::vector<double> lag_ms;      // paced: tick emission lateness
  std::vector<std::pair<double, double>> backlog;  // (s since start, samples)
  std::vector<double> flush_ms;    // flushes that processed samples
  std::vector<double> flush_samples;
  std::vector<double> drain_us;
  std::int64_t busy_ns = 0;  // flush + drain time on the control thread
  std::uint64_t duplicate_events = 0;
  std::uint64_t stray_events = 0;

  double seconds() const {
    return static_cast<double>(end_ns - start_ns) / 1e9;
  }
  double rate() const { return static_cast<double>(produced) / seconds(); }
};

/// Sleep (never spin) until `due`: the producer must not take a core the
/// pipeline's own threads need.  Oversleeping shows as generator lag.
void wait_until_ns(std::int64_t due) {
  const std::int64_t ahead = due - now_ns();
  if (ahead > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ahead));
}

/// Ticks [k_begin, k_end) through the pipeline: a producer thread ingests
/// every present zone's sample of a tick at once (aligned burst), as fast
/// as it can when `rate` is 0, else on an open-loop schedule at `rate`
/// ticks/s; the calling thread is the control thread and flushes and
/// drains until every produced sample is processed.
Phase run_phase(Setup& s, const Plan& plan, std::size_t k_begin,
                std::size_t k_end, double rate,
                const runtime::RunContext* ctx, SpanLog* prod_log,
                SpanLog* ctrl_log, Flags& flagged) {
  Phase ph;
  stream::ShardedPipeline& pipe = *s.pipe;
  const bool paced = rate > 0.0;
  std::atomic<std::uint64_t> produced{0};
  std::atomic<std::uint64_t> processed_pub{0};
  std::atomic<bool> done{false};
  std::atomic<bool> abort{false};
  std::exception_ptr producer_error;

  ph.start_ns = now_ns();
  OpenLoop sched;
  sched.start_ns = ph.start_ns + 2'000'000;  // producer start-up slack
  sched.period_ns = paced ? 1e9 / rate : 0.0;
  if (paced) ph.lag_ms.reserve(k_end - k_begin);

  std::thread producer([&] {
    ph.producer_start_ns = now_ns();
    try {
      std::uint64_t mine = 0;
      for (std::size_t k = k_begin; k < k_end; ++k) {
        if (abort.load(std::memory_order_relaxed)) break;
        const std::uint64_t i = k - k_begin;
        const std::int64_t w0 = prod_log != nullptr ? now_ns() : 0;
        bool waited = paced;
        while (!paced && mine - processed_pub.load(std::memory_order_acquire) >
                             kMaxAheadSamples) {
          if (abort.load(std::memory_order_relaxed)) break;
          waited = true;
          std::this_thread::yield();
        }
        if (paced) {
          wait_until_ns(sched.due_ns(i));
          ph.lag_ms.push_back(
              static_cast<double>(sched.lateness_ns(i, now_ns())) / 1e6);
        }
        if (prod_log != nullptr && waited) {
          prod_log->add(SpanKind::kWait, w0, now_ns());
        }
        ScopedSpan tick(prod_log, SpanKind::kGenTick);
        const std::size_t t = plan.calib + k;
        for (std::size_t z = 0; z < plan.zones; ++z) {
          const ZoneSeries& zs = s.zones[z];
          if (zs.present[t] == 0) continue;
          if (prod_log != nullptr) {
            const std::int64_t a = now_ns();
            pipe.ingest(static_cast<std::uint32_t>(z), t, zs.raw[t]);
            prod_log->add(SpanKind::kIngest, a, now_ns());
          } else {
            pipe.ingest(static_cast<std::uint32_t>(z), t, zs.raw[t]);
          }
          ++mine;
        }
        produced.store(mine, std::memory_order_release);
      }
    } catch (...) {
      producer_error = std::current_exception();
    }
    ph.producer_end_ns = now_ns();
    done.store(true, std::memory_order_release);
  });

  // cum[i] = samples in ticks [k_begin, k_begin + i], the produced count
  // at which tick i is fully ingested.
  std::vector<std::uint64_t> cum(k_end - k_begin);
  std::vector<std::uint32_t> tick_samples(k_end - k_begin);
  {
    std::uint64_t c = 0;
    for (std::size_t k = k_begin; k < k_end; ++k) {
      std::uint32_t n = 0;
      for (const ZoneSeries& zs : s.zones) n += zs.present[plan.calib + k];
      tick_samples[k - k_begin] = n;
      c += n;
      cum[k - k_begin] = c;
    }
  }
  std::size_t next_tick = 0;
  std::uint64_t flushed_upto = 0;  // produced count when the last flush began
  // Reserved up front: growing these in the control loop would stall it.
  const std::size_t ticks = k_end - k_begin;
  ph.flush_ms.reserve(ticks);
  ph.flush_samples.reserve(ticks);
  ph.drain_us.reserve(ticks);
  if (paced) {
    ph.decision_ms.reserve(cum.empty() ? 0 : cum.back());
    ph.latency_ms.reserve(cum.empty() ? 0 : cum.back() / 16);
    ph.backlog.reserve(ticks);
  }

  std::vector<stream::AnomalyEvent> events;
  std::uint64_t processed = 0;
  const std::uint64_t t_lo = plan.calib + k_begin;
  const std::uint64_t t_hi = plan.calib + k_end;
  std::int64_t idle_from = -1;  // traced: start of the current idle stretch
  try {
    for (;;) {
      const bool fin = done.load(std::memory_order_acquire);
      const std::uint64_t avail = produced.load(std::memory_order_acquire);
      if (avail == flushed_upto) {
        if (fin) break;
        if (ctrl_log != nullptr && idle_from < 0) idle_from = now_ns();
        std::this_thread::yield();
        continue;
      }
      flushed_upto = avail;
      const std::int64_t t0 = now_ns();
      if (idle_from >= 0) {
        ctrl_log->add(SpanKind::kWait, idle_from, t0);
        idle_from = -1;
      }
      const std::size_t n = pipe.flush(ctx);
      const std::int64_t t1 = now_ns();
      pipe.drain(events);
      const std::int64_t t2 = now_ns();
      if (ctrl_log != nullptr) {
        ctrl_log->add(SpanKind::kFlush, t0, t1);
        ctrl_log->add(SpanKind::kDrain, t1, t2);
      }
      processed += n;
      processed_pub.store(processed, std::memory_order_release);
      ph.busy_ns += t2 - t0;
      if (n > 0) {
        ph.flush_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        ph.flush_samples.push_back(static_cast<double>(n));
      }
      ph.drain_us.push_back(static_cast<double>(t2 - t1) / 1e3);
      for (const stream::AnomalyEvent& ev : events) {
        if (ev.zone >= plan.zones || ev.t < t_lo || ev.t >= t_hi) {
          ++ph.stray_events;
          continue;
        }
        std::uint8_t& f = flagged[ev.zone][ev.t];
        if (f != 0) ++ph.duplicate_events;
        f = 1;
        if (paced) {
          ph.latency_ms.push_back(
              static_cast<double>(sched.latency_ns(ev.t - t_lo, t2)) / 1e6);
        }
      }
      events.clear();
      for (; next_tick < cum.size() && cum[next_tick] <= flushed_upto;
           ++next_tick) {
        if (!paced) continue;
        const double ms =
            static_cast<double>(sched.latency_ns(next_tick, t2)) / 1e6;
        ph.decision_ms.insert(ph.decision_ms.end(), tick_samples[next_tick], ms);
      }
      if (paced) {
        const double backlog =
            static_cast<double>(produced.load(std::memory_order_acquire)) -
            static_cast<double>(processed);
        ph.backlog.emplace_back(static_cast<double>(t2 - ph.start_ns) / 1e9,
                                std::max(0.0, backlog));
      }
    }
  } catch (...) {
    abort.store(true);
    producer.join();
    throw;
  }
  ph.end_ns = now_ns();
  if (idle_from >= 0) ctrl_log->add(SpanKind::kWait, idle_from, ph.end_ns);
  producer.join();
  if (producer_error) std::rethrow_exception(producer_error);
  ph.produced = produced.load();
  if (processed != ph.produced) {
    throw std::runtime_error("phase ended with unprocessed samples");
  }
  return ph;
}

/// The saturate phase: ticks [0, sat_ticks) in 1 + kSatChunks back-to-back
/// chunks, each drained completely before the next starts; the first is
/// warm-up and not part of the rates.
struct Saturate {
  std::vector<Phase> chunks;
  std::vector<double> rates;            // samples/s per chunk
  std::vector<double> forecast_rates;   // engine forecasts/s per chunk
  std::vector<double> tick_rates;       // ticks/s per chunk

  double rate() const { return median(rates); }
  double paced_rate() const { return kPacedLoad * median(tick_rates); }
};

Saturate run_saturate(Setup& s, const Plan& plan,
                      const runtime::RunContext* ctx, SpanLog* prod_log,
                      SpanLog* ctrl_log, Flags& flagged) {
  Saturate sat;
  for (std::size_t c = 0; c <= kSatChunks; ++c) {
    const std::size_t k0 = plan.sat_ticks * c / (kSatChunks + 1);
    const std::size_t k1 = plan.sat_ticks * (c + 1) / (kSatChunks + 1);
    const std::uint64_t scored0 = s.pipe->stats().scored_total;
    sat.chunks.push_back(
        run_phase(s, plan, k0, k1, 0.0, ctx, prod_log, ctrl_log, flagged));
    const Phase& ph = sat.chunks.back();
    if (c == 0) continue;
    sat.rates.push_back(ph.rate());
    sat.tick_rates.push_back(static_cast<double>(k1 - k0) / ph.seconds());
    sat.forecast_rates.push_back(
        static_cast<double>(s.pipe->stats().scored_total - scored0) /
        ph.seconds());
  }
  return sat;
}

/// Detection quality and the sample accounting the stream must agree with,
/// from a replay of each zone's window/gap state machine over what was
/// ingested (all inputs are finite and repair keeps windows full, so
/// readiness depends only on fill and gaps).
struct Evaluation {
  Confusion confusion;
  std::uint64_t expected_not_ready = 0;
  std::uint64_t flagged = 0;
  std::uint64_t flagged_unscored = 0;
};

Evaluation evaluate(const Setup& s, const Plan& plan, const Flags& flagged) {
  Evaluation ev;
  const std::size_t t_end = plan.calib + plan.ticks();
  for (std::size_t z = 0; z < plan.zones; ++z) {
    const ZoneSeries& zs = s.zones[z];
    std::size_t filled = 0;
    std::size_t last = 0;
    bool has_last = false;
    for (std::size_t t = plan.calib - plan.lookback; t < t_end; ++t) {
      if (zs.present[t] == 0) continue;
      if (has_last && t != last + 1) filled = 0;
      const bool scored = filled >= plan.lookback;
      if (!scored) {
        ++filled;
        ++ev.expected_not_ready;
      }
      last = t;
      has_last = true;
      const bool f = flagged[z][t] != 0;
      ev.flagged += f;
      if (f && !scored) ++ev.flagged_unscored;
      if (scored && t >= plan.calib) ev.confusion.add(zs.label[t] != 0, f);
    }
  }
  return ev;
}

/// Replays the first kReplayTicks ticks after the calibration prefix
/// through a fresh 4-shard pipeline with repair off, flushing off cadence,
/// and counts (zone, t) whose score differs from stream::batch_scores.
/// Every zone is frozen below any score (scores are squared errors), so
/// every scored sample emits an event carrying its score and all of them
/// are compared bit for bit; the flags at the calibration thresholds
/// (anomaly::compute_threshold) follow from those scores and are counted
/// in `batch_flagged`.
std::size_t frozen_replay_mismatches(Setup& s, const Plan& plan,
                                     const runtime::RunContext& ctx,
                                     std::size_t& batch_flagged) {
  const core::ExperimentConfig cfg;
  const std::size_t t0 = plan.calib - plan.lookback;
  const std::size_t t1 = plan.calib + kReplayTicks;
  stream::ShardedConfig sc = core::make_sharded_config(cfg, plan.zones);
  sc.shards = kShards;
  sc.stream.repair_inputs = false;
  sc.stream.adapt_thresholds = false;
  sc.stream.drift_z = 0.0;
  sc.stream.queue_max = plan.zones * (t1 - t0);
  sc.stream.queue_shrink = std::min<std::size_t>(1024, sc.stream.queue_max);
  sc.ring_max = plan.zones * (t1 - t0) + 64;
  sc.ring_shrink = std::min<std::size_t>(1024, sc.ring_max);
  stream::ShardedPipeline pipe(*s.engine, sc);
  for (std::size_t z = 0; z < plan.zones; ++z) {
    pipe.add_zone(s.zones[z].scaler);
    pipe.freeze_threshold(static_cast<std::uint32_t>(z), -1.0f);
  }
  for (std::size_t t = t0; t < t1; ++t) {
    for (std::size_t z = 0; z < plan.zones; ++z) {
      pipe.ingest(static_cast<std::uint32_t>(z), t, s.zones[z].raw[t]);
    }
    if ((t - t0) % 7 == 6) pipe.flush(&ctx);
  }
  pipe.flush(&ctx);
  std::vector<stream::AnomalyEvent> events;
  pipe.drain(events);

  std::vector<std::vector<float>> streamed(
      plan.zones, std::vector<float>(kReplayTicks, std::nanf("")));
  std::size_t mismatches = 0;
  for (const stream::AnomalyEvent& ev : events) {
    if (ev.zone >= plan.zones || ev.t < plan.calib || ev.t >= t1 ||
        !std::isnan(streamed[ev.zone][ev.t - plan.calib])) {
      ++mismatches;  // out of range, unscored or duplicated
      continue;
    }
    streamed[ev.zone][ev.t - plan.calib] = ev.score;
  }
  batch_flagged = 0;
  for (std::size_t z = 0; z < plan.zones; ++z) {
    const std::vector<float> scores = stream::batch_scores(
        *s.ref_engine, scaled_slice(s.zones[z], t0, t1), &ctx);
    for (std::size_t i = 0; i < kReplayTicks; ++i) {
      // Unequal also when either side is missing (NaN).
      if (!(streamed[z][i] == scores[i])) ++mismatches;
      batch_flagged += scores[i] > s.calib_threshold[z];
    }
  }
  return mismatches;
}

/// The output checks every stream run makes, and the detection quality.
Evaluation check_outputs(Setup& s, const Plan& plan, const Flags& flagged,
                         const std::vector<const Phase*>& phases,
                         const runtime::RunContext& ctx, Result& res) {
  const stream::StreamStats st = s.pipe->stats();
  std::uint64_t produced = 0, dup = 0, stray = 0;
  for (const Phase* ph : phases) {
    produced += ph->produced;
    dup += ph->duplicate_events;
    stray += ph->stray_events;
  }
  const std::uint64_t ingested = s.warm_samples + produced;
  res.check(st.samples_total + st.ingest_dropped == ingested,
            "ingested samples != drained + ring-dropped");
  res.check(st.scored_total + st.not_ready_total == st.samples_total,
            "drained samples != scored + not-ready");
  res.check(dup == 0 && stray == 0, "duplicate or out-of-range events");

  const Evaluation ev = evaluate(s, plan, flagged);
  res.check(ev.expected_not_ready == st.not_ready_total,
            "not-ready count differs from the window replay");
  res.check(ev.flagged_unscored == 0, "events for samples that were not scored");
  res.check(ev.flagged + st.events_dropped == st.events_total,
            "events drained + dropped != events pushed");

  std::size_t batch_flagged = 0;
  const std::size_t mism = frozen_replay_mismatches(s, plan, ctx, batch_flagged);
  std::printf("frozen replay: %zu ticks x %zu zones, every score compared, "
              "%zu flagged at the calibration thresholds, %zu mismatches\n",
              kReplayTicks, plan.zones, batch_flagged, mism);
  res.check(mism == 0,
            "frozen-threshold replay differs from the batch detector");
  res.add_attempts(produced, st.ingest_dropped + st.events_dropped);
  return ev;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Mean backlog over the last quarter of the phase minus the first quarter.
double backlog_growth(const std::vector<std::pair<double, double>>& b) {
  if (b.size() < 4) return 0.0;
  const std::size_t q = b.size() / 4;
  double first = 0.0, last = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    first += b[i].second;
    last += b[b.size() - 1 - i].second;
  }
  return (last - first) / static_cast<double>(q);
}

/// Share of each thread's wall time in `phases` spent inside its top-level
/// spans (waits included), the lower of producer and control thread: what
/// the spans leave unexplained is the benchmark's own bookkeeping.
double thread_coverage(const std::vector<const Phase*>& phases,
                       const SpanLog& prod_log, const SpanLog& ctrl_log) {
  std::int64_t prod_cov = 0, prod_wall = 0, ctrl_cov = 0, ctrl_wall = 0;
  for (const Phase* ph : phases) {
    prod_cov += covered_ns(prod_log.spans(), ph->producer_start_ns,
                           ph->producer_end_ns);
    prod_wall += ph->producer_end_ns - ph->producer_start_ns;
    ctrl_cov += covered_ns(ctrl_log.spans(), ph->start_ns, ph->end_ns);
    ctrl_wall += ph->end_ns - ph->start_ns;
  }
  if (prod_wall <= 0 || ctrl_wall <= 0) return 0.0;
  return std::min(
      static_cast<double>(prod_cov) / static_cast<double>(prod_wall),
      static_cast<double>(ctrl_cov) / static_cast<double>(ctrl_wall));
}

void set_unused_layers(Result& res) {
  for (const char* name :
       {"engine.publish_to_score_ms", "engine.score_latency_p99_ms",
        "fl.round_s", "fl.client_train_s_p50",
        "fl.client_train_s_max", "fl.train_share", "fl.bytes_up_per_round",
        "fl.bytes_down_per_round", "fl.compression_ratio",
        "fl.updates_accepted", "fl.rejected_updates",
        "fl.timed_out_clients"}) {
    res.set(name, 0.0);
  }
}

}  // namespace

void run_stream_workload(const Args& args, bool fleet, Result& res) {
  const Shape shape = fleet ? kFleet : kNarrow;
  const core::ExperimentConfig cfg;
  Plan plan;
  plan.zones = shape.zones;
  plan.lookback = cfg.forecaster.sequence_length;
  plan.calib = plan.lookback + kCalibScores;
  plan.sat_ticks = static_cast<std::size_t>(
      std::llround(shape.ref_ticks_per_s * kSaturateShare * args.seconds));
  plan.paced_ticks = static_cast<std::size_t>(
      std::llround(kPacedLoad * shape.ref_ticks_per_s *
                   (1.0 - kSaturateShare) * args.seconds));
  plan.hours = plan.calib + plan.ticks();
  plan.jitter = shape.jitter;
  plan.seed = args.seed;

  res.param("zones", static_cast<double>(plan.zones));
  res.param("shards", static_cast<double>(kShards));
  res.param("pool_threads", static_cast<double>(kPoolThreads));
  res.param("saturate_ticks", static_cast<double>(plan.sat_ticks));
  res.param("paced_ticks", static_cast<double>(plan.paced_ticks));
  res.param("paced_load", kPacedLoad);
  res.param("calib_hours", static_cast<double>(plan.calib));
  res.param("seq", static_cast<double>(plan.lookback));
  res.param("hidden", static_cast<double>(cfg.forecaster.lstm_units));
  res.param("drift_z", kDriftZ);
  res.param("profile_jitter", plan.jitter);

  runtime::ThreadPool pool(kPoolThreads);
  runtime::RunContext ctx;
  ctx.pool = &pool;
  Flags flagged;
  const auto reset_flags = [&] {
    flagged.assign(plan.zones, std::vector<std::uint8_t>(plan.hours, 0));
  };
  const std::size_t k_sat = plan.sat_ticks;
  const std::size_t k_end = plan.ticks();

  if (!args.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<Setup> s;
    for (int i = 0; i < kSetups; ++i) {
      s.reset();
      const std::int64_t t0 = now_ns();
      s = build_setup(plan, kShards, nullptr, ctx);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    reset_flags();
    const Saturate sat = run_saturate(*s, plan, &ctx, nullptr, nullptr, flagged);
    const double paced_rate = sat.paced_rate();
    res.param("paced_ticks_per_s", paced_rate);
    const Phase paced = run_phase(*s, plan, k_sat, k_end, paced_rate, &ctx,
                                  nullptr, nullptr, flagged);
    std::vector<const Phase*> phases;
    for (const Phase& ph : sat.chunks) phases.push_back(&ph);
    phases.push_back(&paced);
    const Evaluation ev = check_outputs(*s, plan, flagged, phases, ctx, res);
    const double r2 = served_r2(
        *s->ref_engine,
        std::vector<ZoneSeries>(
            s->zones.begin(),
            s->zones.begin() + std::min(kR2Zones, plan.zones)),
        plan.calib, plan.calib + std::min(kR2Ticks, plan.ticks()), &ctx);
    res.check(std::isfinite(r2), "r2_final is not finite");

    const std::size_t n = paced.decision_ms.size();
    for (const double r : sat.rates) std::printf("saturate chunk: %.0f samples/s\n", r);
    std::printf("saturate: %zu chunks, median %.0f samples/s; paced: %zu "
                "sample latencies over %zu ticks at %.1f ticks/s (p99 %.3f "
                "ms, p%g %.3f ms); %zu flagged-sample event latencies (p99 "
                "%.3f ms)\n",
                kSatChunks, sat.rate(), n, plan.paced_ticks, paced_rate,
                quantile(paced.decision_ms, 0.99),
                supported_percentile(plan.paced_ticks),
                quantile(paced.decision_ms,
                         supported_percentile(plan.paced_ticks) / 100.0),
                paced.latency_ms.size(), quantile(paced.latency_ms, 0.99));
    res.check(supported_percentile(n) >= 50.0,
              "too few paced samples for a median latency");
    res.set("samples_per_s", sat.rate());
    res.set("forecasts_per_s", median(sat.forecast_rates));
    res.set("latency_p50_ms", quantile(paced.decision_ms, 0.50));
    res.set("recall", ev.confusion.recall());
    res.set("precision", ev.confusion.precision());
    res.set("fpr", ev.confusion.fpr());
    res.set("r2_final", r2);
    res.set("setup_s", median(setup_s));
    res.set("peak_rss_mib", peak_rss_mib());
    return;
  }

  // Traced run.  Three set-ups, one per job: (A) the untraced saturate
  // phase, the baseline for tracing overhead and shard scaling; (B) the
  // traced saturate + paced phases with the engine registry attached,
  // which give the per-layer numbers and the span table; (C) the same
  // saturate phase at shards = 1 with no pool, the single-threaded
  // baseline.
  double sharded_rate = 0.0;
  {
    auto s = build_setup(plan, kShards, nullptr, ctx);
    reset_flags();
    sharded_rate =
        run_saturate(*s, plan, &ctx, nullptr, nullptr, flagged).rate();
  }
  double serial_rate = 0.0;
  {
    auto s = build_setup(plan, 1, nullptr, ctx);
    reset_flags();
    serial_rate =
        run_saturate(*s, plan, nullptr, nullptr, nullptr, flagged).rate();
  }

  obs::Registry registry;
  auto s = build_setup(plan, kShards, &registry, ctx);
  // At most one flush (a flush and a drain span) and one wait per tick on
  // the control thread; one tick, its ingests and one wait on the producer.
  SpanLog prod_log(plan.zones * k_end + 2 * k_end + 16);
  SpanLog ctrl_log(3 * (k_end + 16));
  obs::Counter& batches = registry.counter("engine.batches_total");
  obs::Counter& forecasts = registry.counter("engine.forecasts_total");
  obs::Histogram& batch_s = registry.histogram("engine.batch_seconds");
  reset_flags();
  const double b0 = batches.value(), f0 = forecasts.value();
  const double e0 = batch_s.sum();
  const Saturate sat =
      run_saturate(*s, plan, &ctx, &prod_log, &ctrl_log, flagged);
  const double b1 = batches.value(), f1 = forecasts.value();
  const double e1 = batch_s.sum();
  res.param("paced_ticks_per_s", sat.paced_rate());
  const Phase paced = run_phase(*s, plan, k_sat, k_end, sat.paced_rate(), &ctx,
                                &prod_log, &ctrl_log, flagged);
  const double score_p50_ms = batch_s.quantile(0.5) * 1e3;

  std::vector<double> ingest_us;
  for (const Span& sp : prod_log.spans()) {
    if (sp.kind == SpanKind::kIngest && sp.start_ns >= paced.start_ns) {
      ingest_us.push_back(static_cast<double>(sp.end_ns - sp.start_ns) / 1e3);
    }
  }
  double sat_flush_ns = 0.0, sat_flushes = 0.0;
  double sat_busy_ns = 0.0, sat_wall_ns = 0.0;
  for (const Phase& ph : sat.chunks) {
    for (const double ms : ph.flush_ms) sat_flush_ns += ms * 1e6;
    sat_flushes += static_cast<double>(ph.flush_ms.size());
    sat_busy_ns += static_cast<double>(ph.busy_ns);
    sat_wall_ns += static_cast<double>(ph.end_ns - ph.start_ns);
  }
  const stream::StreamStats st = s->pipe->stats();

  res.set("stream.ingest_us_p50", quantile(ingest_us, 0.50));
  res.set("stream.ingest_us_p99", quantile(ingest_us, 0.99));
  res.set("stream.flush_ms_p50", quantile(paced.flush_ms, 0.50));
  res.set("stream.flush_ms_p99", quantile(paced.flush_ms, 0.99));
  res.set("stream.samples_per_flush", mean(paced.flush_samples));
  res.set("stream.drain_us_p50", quantile(paced.drain_us, 0.50));
  res.set("stream.control_busy_share", sat_busy_ns / sat_wall_ns);
  double backlog_max = 0.0;
  for (const auto& b : paced.backlog) backlog_max = std::max(backlog_max, b.second);
  res.set("stream.backlog_max", backlog_max);
  res.set("stream.backlog_growth", backlog_growth(paced.backlog));
  res.set("stream.generator_lag_p99_ms", quantile(paced.lag_ms, 0.99));
  res.set("stream.event_latency_p99_ms", quantile(paced.latency_ms, 0.99));
  res.set("stream.decision_latency_p99_ms",
          quantile(paced.decision_ms, 0.99));
  res.set("stream.ingest_dropped", static_cast<double>(st.ingest_dropped));
  res.set("stream.events_dropped", static_cast<double>(st.events_dropped));
  res.set("stream.gaps", static_cast<double>(st.gaps_total));
  res.set("stream.not_ready", static_cast<double>(st.not_ready_total));
  res.set("stream.repaired", static_cast<double>(st.repaired_total));
  res.set("stream.serial_samples_per_s", serial_rate);
  res.set("stream.shard_scaling", sharded_rate / serial_rate);
  res.set("engine.calls_per_flush",
          sat_flushes > 0.0 ? (b1 - b0) / sat_flushes : 0.0);
  res.set("engine.rows_per_call", b1 > b0 ? (f1 - f0) / (b1 - b0) : 0.0);
  res.set("engine.score_ms_p50", score_p50_ms);
  res.set("engine.flush_share", sat_flush_ns > 0.0 ? (e1 - e0) * 1e9 / sat_flush_ns : 0.0);
  res.set("engine.publish_ms", s->publish_ms);
  res.set("anomaly.flag_rate",
          st.scored_total > 0 ? static_cast<double>(st.events_total) /
                                    static_cast<double>(st.scored_total)
                              : 0.0);
  res.set("anomaly.reseeds", static_cast<double>(st.reseeds_total));
  res.set("nn.train_windows_per_s", s->train_windows_per_s);
  res.set("trace.overhead_share", sharded_rate / sat.rate() - 1.0);
  std::vector<const Phase*> phases;
  for (const Phase& ph : sat.chunks) phases.push_back(&ph);
  phases.push_back(&paced);
  res.set("trace.span_coverage", thread_coverage(phases, prod_log, ctrl_log));
  set_unused_layers(res);

  std::printf("saturate: sharded %.0f samples/s untraced, %.0f traced, "
              "serial %.0f\n",
              sharded_rate, sat.rate(), serial_rate);
  report_spans({{"producer", &prod_log}, {"control", &ctrl_log}},
               args.trace_out);
  check_outputs(*s, plan, flagged, phases, ctx, res);
}

}  // namespace perfbench
