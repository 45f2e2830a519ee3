// fl_train_serve: the paper's federated training (fl::FleetDriver rounds
// at the ExperimentConfig model and local-training defaults) with the
// global model published into a forecast::Engine after every round, while
// one scorer thread queries that engine in a closed loop.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "datagen/fleet.hpp"
#include "fl/fleet.hpp"
#include "fl/server.hpp"
#include "forecast/engine.hpp"
#include "forecast/model.hpp"
#include "obs/round_telemetry.hpp"
#include "obs/telemetry.hpp"
#include "runtime/run_context.hpp"
#include "runtime/thread_pool.hpp"
#include "stream/pipeline.hpp"
#include "workloads.hpp"
#include "zones.hpp"

namespace perfbench {

namespace {

using namespace evfl;

constexpr std::size_t kPopulation = 64;
constexpr std::size_t kLeafHours = 168;
constexpr std::size_t kCohort = 4;  // two leaves per pool thread
constexpr std::size_t kEdges = 2;
constexpr std::size_t kPoolThreads = 2;  // round thread + 1 worker
/// Rounds per run = --seconds / kRoundBudgetS, a fixed count so the final
/// model (and r2_final) is the same on every run of a seed.  The budget is
/// the round time measured when the benchmark was defined (4-core x86-64
/// host, AVX2, Release).
constexpr double kRoundBudgetS = 0.7;
constexpr std::size_t kHeldOutZones = 48;
/// Calibration windows per held-out zone: enough that the 99.5th
/// percentile threshold rests on several scores, not on the maximum.
constexpr std::size_t kHeldOutCalibScores = 1000;
constexpr std::size_t kHeldOutTicks = 1000;
/// Held-out attacks at ten times the stream density: detection here uses
/// frozen calibration thresholds, which attacks cannot drag upward.
constexpr double kHeldOutAttackScale = 10.0;
constexpr std::size_t kQueryBatches = 64;
constexpr int kSetups = 3;
/// Initial global weights come from a fixed seed, so the seed varies the
/// fleet and the held-out traffic, not the starting model.
constexpr std::uint64_t kModelSeed = 2024;

struct Setup {
  std::vector<ZoneSeries> held_out;
  std::unique_ptr<fl::Server> root;
  std::unique_ptr<fl::FleetDriver> driver;
  std::unique_ptr<forecast::Engine> engine;
  std::vector<tensor::Tensor3> queries;  // scorer batches
  std::size_t windows_per_round = 0;
};

std::unique_ptr<Setup> build_setup(std::uint64_t seed, std::size_t calib,
                                   const runtime::RunContext& ctx,
                                   obs::Registry* registry,
                                   obs::RoundTelemetrySink* telemetry) {
  const core::ExperimentConfig cfg;
  const forecast::ForecasterConfig mc = cfg.forecaster;
  auto s = std::make_unique<Setup>();

  datagen::FleetConfig fc;
  fc.clients = kPopulation;
  fc.hours = kLeafHours;
  fc.hours_jitter = 0.0;  // equal work per leaf, so rounds are comparable
  fc.seed = seed;
  std::vector<datagen::ClientSpec> fleet = datagen::make_fleet(fc);
  s->windows_per_round = kCohort * (kLeafHours - mc.sequence_length);

  tensor::Rng init_rng(kModelSeed);
  s->root = std::make_unique<fl::Server>(
      forecast::make_forecaster(mc, init_rng).get_weights(), cfg.fedavg);
  fl::FleetDriverConfig drv;
  drv.edges = kEdges;
  drv.lookback = mc.sequence_length;
  drv.sampling.mode = fl::SamplingMode::kFixedSize;
  drv.sampling.count = kCohort;
  drv.sampling.seed = seed;
  drv.client.epochs_per_round = cfg.epochs_per_round;
  drv.client.batch_size = mc.batch_size;
  drv.client.learning_rate = mc.learning_rate;
  drv.client.codec = cfg.codec;
  drv.fedavg = cfg.fedavg;
  const fl::ModelFactory factory = [mc](tensor::Rng& rng) {
    return forecast::make_forecaster(mc, rng);
  };
  s->driver = std::make_unique<fl::FleetDriver>(
      *s->root, std::move(fleet), factory, drv, &ctx, nullptr, telemetry);

  // Warm-up round: the first round grows the pool's workspace lanes and
  // the wire buffers (bench_scale does the same); it is part of set-up, so
  // the timed rounds are steady-state rounds.
  const fl::FederatedRunResult warm = s->driver->run(1);
  forecast::EngineConfig ec;
  ec.max_batch = cfg.serve_batch;
  s->engine = std::make_unique<forecast::Engine>(mc, ec, registry);
  s->engine->publish(warm.final_weights);

  ZoneGen gen;
  gen.count = kHeldOutZones;
  gen.hours = calib + kHeldOutTicks;
  gen.calib = calib;
  gen.attack_scale = kHeldOutAttackScale;
  s->held_out = make_zones(seed ^ 0x4E1Dull, gen);
  // Scorer queries: consecutive clean windows of the held-out zones.
  const std::size_t lookback = mc.sequence_length;
  for (std::size_t b = 0; b < kQueryBatches; ++b) {
    tensor::Tensor3 x(cfg.serve_batch, lookback, 1);
    for (std::size_t r = 0; r < cfg.serve_batch; ++r) {
      const std::size_t i = b * cfg.serve_batch + r;
      const ZoneSeries& z = s->held_out[i % kHeldOutZones];
      const std::size_t t = calib + (i / kHeldOutZones) % kHeldOutTicks;
      const std::vector<float> w = scaled_slice(z, t - lookback, t, true);
      std::copy(w.begin(), w.end(), x.data() + r * lookback);
    }
    s->queries.push_back(std::move(x));
  }
  std::vector<float> out;
  for (const tensor::Tensor3& q : s->queries) s->engine->score(q, out);
  return s;
}

struct Training {
  std::vector<double> round_s;
  std::vector<double> publish_ms;
  std::vector<std::int64_t> publish_end_ns;
  std::vector<double> score_ms;
  std::uint64_t forecasts = 0;
  std::uint64_t failed_scores = 0;
  std::uint64_t sampled = 0, accepted = 0, rejected = 0, timed_out = 0;
  std::int64_t start_ns = 0, end_ns = 0;  // first round -> last publish
  std::vector<float> final_weights;

  double forecasts_per_s() const {
    return static_cast<double>(forecasts) /
           (static_cast<double>(end_ns - start_ns) / 1e9);
  }
};

/// `rounds` FleetDriver rounds on the calling thread, each followed by a
/// publish, while a scorer thread scores query batches back to back.
Training train_while_serving(Setup& s, std::size_t rounds,
                             SpanLog* main_log, SpanLog* scorer_log) {
  Training tr;
  std::atomic<bool> stop{false};
  std::exception_ptr scorer_error;
  tr.score_ms.reserve(1 << 20);  // growing it would stall the scorer
  tr.start_ns = now_ns();
  std::thread scorer([&] {
    try {
      std::vector<float> out(s.queries.front().batch());
      for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const tensor::Tensor3& x = s.queries[i % s.queries.size()];
        const std::int64_t t0 = now_ns();
        s.engine->score(x, out);
        const std::int64_t t1 = now_ns();
        if (scorer_log != nullptr) scorer_log->add(SpanKind::kScore, t0, t1);
        tr.score_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
        tr.forecasts += out.size();
        for (const float v : out) tr.failed_scores += !std::isfinite(v);
      }
    } catch (...) {
      scorer_error = std::current_exception();
    }
  });

  try {
    for (std::size_t r = 0; r < rounds; ++r) {
      fl::FederatedRunResult rr;
      {
        ScopedSpan span(main_log, SpanKind::kFlRound);
        const std::int64_t t0 = now_ns();
        rr = s.driver->run(1);
        tr.round_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      }
      for (const fl::RoundMetrics& rm : rr.rounds) {
        tr.sampled += rm.sampled_clients;
        tr.accepted += rm.updates_received;
        tr.rejected += rm.rejected_updates;
        tr.timed_out += rm.timed_out_clients;
      }
      ScopedSpan span(main_log, SpanKind::kPublish);
      const std::int64_t p0 = now_ns();
      s.engine->publish(rr.final_weights);
      const std::int64_t p1 = now_ns();
      tr.publish_ms.push_back(static_cast<double>(p1 - p0) / 1e6);
      tr.publish_end_ns.push_back(p1);
      tr.final_weights = std::move(rr.final_weights);
    }
  } catch (...) {
    stop.store(true);
    scorer.join();
    throw;
  }
  tr.end_ns = now_ns();
  stop.store(true);
  scorer.join();
  if (scorer_error) std::rethrow_exception(scorer_error);
  return tr;
}

/// Forecast quality and detection of the final global model on the
/// held-out zones, both scored through a forecast::Engine.
struct Quality {
  Confusion confusion;
  double r2 = 0.0;
  std::uint64_t scored = 0, flagged = 0;
};

Quality evaluate(const Setup& s, std::size_t calib,
                 const std::vector<float>& weights,
                 const runtime::RunContext& ctx) {
  const core::ExperimentConfig cfg;
  forecast::EngineConfig ec;
  ec.max_batch = 256;
  forecast::Engine engine(cfg.forecaster, ec);
  engine.publish(weights);
  Quality q;
  const std::size_t lookback = cfg.forecaster.sequence_length;
  const std::size_t hours = calib + kHeldOutTicks;
  for (const ZoneSeries& z : s.held_out) {
    const float threshold = calibration_threshold(
        engine, z, calib, cfg.filter.threshold, &ctx);
    const std::vector<float> scores = stream::batch_scores(
        engine, scaled_slice(z, calib - lookback, hours), &ctx);
    for (std::size_t i = 0; i < scores.size(); ++i) {
      const bool flag = scores[i] > threshold;
      q.confusion.add(z.label[calib + i] != 0, flag);
      ++q.scored;
      q.flagged += flag;
    }
  }
  q.r2 = served_r2(engine, s.held_out, calib, hours, &ctx);
  return q;
}

void set_unused_layers(Result& res) {
  for (const char* name :
       {"stream.ingest_us_p50", "stream.ingest_us_p99", "stream.flush_ms_p50",
        "stream.flush_ms_p99", "stream.samples_per_flush",
        "stream.drain_us_p50", "stream.control_busy_share",
        "stream.backlog_max", "stream.backlog_growth",
        "stream.generator_lag_p99_ms", "stream.event_latency_p99_ms",
        "stream.decision_latency_p99_ms", "stream.ingest_dropped",
        "stream.events_dropped", "stream.gaps", "stream.not_ready",
        "stream.repaired", "stream.serial_samples_per_s",
        "stream.shard_scaling", "engine.calls_per_flush",
        "engine.flush_share", "anomaly.reseeds"}) {
    res.set(name, 0.0);
  }
}

}  // namespace

void run_fl_workload(const Args& args, Result& res) {
  const core::ExperimentConfig cfg;
  const std::size_t calib = cfg.forecaster.sequence_length + kHeldOutCalibScores;
  const std::size_t rounds = std::max<std::size_t>(
      3, static_cast<std::size_t>(std::llround(args.seconds / kRoundBudgetS)));
  res.param("population", static_cast<double>(kPopulation));
  res.param("cohort", static_cast<double>(kCohort));
  res.param("edges", static_cast<double>(kEdges));
  res.param("pool_threads", static_cast<double>(kPoolThreads));
  res.param("rounds", static_cast<double>(rounds));
  res.param("leaf_hours", static_cast<double>(kLeafHours));
  res.param("local_epochs", static_cast<double>(cfg.epochs_per_round));
  res.param("seq", static_cast<double>(cfg.forecaster.sequence_length));
  res.param("hidden", static_cast<double>(cfg.forecaster.lstm_units));
  res.param("batch", static_cast<double>(cfg.forecaster.batch_size));
  res.param("serve_batch", static_cast<double>(cfg.serve_batch));

  runtime::ThreadPool pool(kPoolThreads);
  runtime::RunContext ctx;
  ctx.pool = &pool;

  const auto check_training = [&](const Training& tr, const Quality& q) {
    res.check(tr.failed_scores == 0, "scorer returned non-finite forecasts");
    res.check(tr.accepted == tr.sampled,
              "fault-free rounds lost or rejected updates");
    res.check(std::isfinite(q.r2), "r2_final is not finite");
    res.add_attempts(tr.sampled + tr.score_ms.size(),
                     tr.timed_out + tr.rejected + tr.failed_scores);
  };
  const auto samples_per_s = [&](const Setup& s, const Training& tr) {
    return static_cast<double>(s.windows_per_round * cfg.epochs_per_round) /
           median(tr.round_s);
  };

  if (!args.trace) {
    std::vector<double> setup_s;
    std::unique_ptr<Setup> s;
    for (int i = 0; i < kSetups; ++i) {
      s.reset();
      const std::int64_t t0 = now_ns();
      s = build_setup(args.seed, calib, ctx, nullptr, nullptr);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    }
    const Training tr = train_while_serving(*s, rounds, nullptr, nullptr);
    const Quality q = evaluate(*s, calib, tr.final_weights, ctx);
    check_training(tr, q);
    const std::size_t n = tr.score_ms.size();
    std::printf("%zu rounds, median %.3f s; %zu score calls (p99 %.3f ms, "
                "p%g %.3f ms)\n",
                rounds, median(tr.round_s), n, quantile(tr.score_ms, 0.99),
                supported_percentile(n),
                quantile(tr.score_ms, supported_percentile(n) / 100.0));
    res.check(supported_percentile(n) >= 50.0,
              "too few score calls for a median latency");
    res.set("samples_per_s", samples_per_s(*s, tr));
    res.set("forecasts_per_s", tr.forecasts_per_s());
    res.set("latency_p50_ms", quantile(tr.score_ms, 0.50));
    res.set("recall", q.confusion.recall());
    res.set("precision", q.confusion.precision());
    res.set("fpr", q.confusion.fpr());
    res.set("r2_final", q.r2);
    res.set("setup_s", median(setup_s));
    res.set("peak_rss_mib", peak_rss_mib());
    return;
  }

  // Traced run: an untraced pass on one set-up is the overhead baseline;
  // a traced pass with the registry and round telemetry attached on a
  // second set-up gives the per-layer numbers.
  double untraced_rate = 0.0;
  {
    auto s = build_setup(args.seed, calib, ctx, nullptr, nullptr);
    untraced_rate =
        train_while_serving(*s, rounds, nullptr, nullptr).forecasts_per_s();
  }
  obs::Registry registry;
  obs::RoundTelemetrySink sink;
  auto s = build_setup(args.seed, calib, ctx, &registry, &sink);
  SpanLog main_log(4 * rounds + 16);
  SpanLog scorer_log(1 << 20);
  const double b0 = registry.counter("engine.batches_total").value();
  const double f0 = registry.counter("engine.forecasts_total").value();
  const Training tr = train_while_serving(*s, rounds, &main_log, &scorer_log);
  const double b1 = registry.counter("engine.batches_total").value();
  const double f1 = registry.counter("engine.forecasts_total").value();

  std::vector<double> train_s;
  double train_total = 0.0, wall_total = 0.0;
  double up = 0.0, down = 0.0, compression = 0.0;
  std::vector<obs::RoundTelemetry> rts = sink.rounds();
  rts.erase(rts.begin());  // the set-up warm-up round
  for (const obs::RoundTelemetry& rt : rts) {
    for (const double c : rt.client_train_seconds) {
      train_s.push_back(c);
      train_total += c;
    }
    wall_total += rt.wall_seconds;
    up += static_cast<double>(rt.bytes_up);
    down += static_cast<double>(rt.bytes_down);
    compression += rt.compression_ratio();
  }
  const double nr = static_cast<double>(std::max<std::size_t>(1, rts.size()));

  // Publish -> first score: from a publish's end to the end of the first
  // score call that started after it.
  std::vector<double> to_score_ms;
  const std::vector<Span>& scores = scorer_log.spans();
  for (const std::int64_t p : tr.publish_end_ns) {
    const auto it = std::lower_bound(
        scores.begin(), scores.end(), p,
        [](const Span& sp, std::int64_t t) { return sp.start_ns < t; });
    if (it != scores.end()) {
      to_score_ms.push_back(static_cast<double>(it->end_ns - p) / 1e6);
    }
  }

  const Quality q = evaluate(*s, calib, tr.final_weights, ctx);
  res.set("engine.rows_per_call", b1 > b0 ? (f1 - f0) / (b1 - b0) : 0.0);
  res.set("engine.score_ms_p50",
          registry.histogram("engine.batch_seconds").quantile(0.5) * 1e3);
  res.set("engine.score_latency_p99_ms", quantile(tr.score_ms, 0.99));
  res.set("engine.publish_ms", median(tr.publish_ms));
  res.set("engine.publish_to_score_ms", median(to_score_ms));
  res.set("anomaly.flag_rate",
          q.scored > 0 ? static_cast<double>(q.flagged) /
                             static_cast<double>(q.scored)
                       : 0.0);
  res.set("fl.round_s", median(tr.round_s));
  res.set("fl.client_train_s_p50", median(train_s));
  res.set("fl.client_train_s_max",
          train_s.empty() ? 0.0 : *std::max_element(train_s.begin(),
                                                    train_s.end()));
  res.set("fl.train_share",
          wall_total > 0.0
              ? train_total / (wall_total * static_cast<double>(kPoolThreads))
              : 0.0);
  res.set("fl.bytes_up_per_round", up / nr);
  res.set("fl.bytes_down_per_round", down / nr);
  res.set("fl.compression_ratio", compression / nr);
  res.set("fl.updates_accepted", static_cast<double>(tr.accepted));
  res.set("fl.rejected_updates", static_cast<double>(tr.rejected));
  res.set("fl.timed_out_clients", static_cast<double>(tr.timed_out));
  res.set("nn.train_windows_per_s",
          train_total > 0.0
              ? static_cast<double>(s->windows_per_round * rounds *
                                    cfg.epochs_per_round) /
                    train_total
              : 0.0);
  res.set("trace.overhead_share", untraced_rate / tr.forecasts_per_s() - 1.0);
  // The lower of the round thread's and the scorer's coverage.
  res.set("trace.span_coverage",
          std::min(span_coverage(main_log.spans(), tr.start_ns, tr.end_ns),
                   span_coverage(scorer_log.spans(), tr.start_ns, tr.end_ns)));
  set_unused_layers(res);

  std::printf("%zu rounds, median %.3f s; scorer %.0f forecasts/s untraced, "
              "%.0f traced\n",
              rounds, median(tr.round_s), untraced_rate, tr.forecasts_per_s());
  report_spans({{"round", &main_log}, {"scorer", &scorer_log}},
               args.trace_out);
  check_training(tr, q);
}

}  // namespace perfbench
