// Microbenchmarks of the substrate hot paths (google-benchmark): GEMM
// kernels at LSTM-relevant shapes, LSTM forward/backward, autoencoder
// scoring, wire serialization, and FedAvg aggregation.  After the
// google-benchmark suite, main() runs a parallel-vs-serial comparison of
// the runtime layer (context-aware matmul, parallel prepare_clients) and
// writes the speedups to build/artifacts/BENCH_runtime.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>

#include "anomaly/autoencoder.hpp"
#include "core/pipeline.hpp"
#include "data/csv.hpp"
#include "fl/fedavg.hpp"
#include "fl/serialize.hpp"
#include "forecast/model.hpp"
#include "harness.hpp"
#include "metrics/timer.hpp"
#include "nn/loss.hpp"
#include "runtime/run_context.hpp"
#include "tensor/linalg.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

using namespace evfl;

namespace {

tensor::Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  tensor::Rng rng(seed);
  tensor::Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

void BM_MatmulLstmGateShape(benchmark::State& state) {
  // The LSTM hot call: [batch x hidden] x [hidden x 4*hidden].
  const std::size_t h = static_cast<std::size_t>(state.range(0));
  const tensor::Matrix a = random_matrix(32, h, 1);
  const tensor::Matrix b = random_matrix(h, 4 * h, 2);
  tensor::Matrix c(32, 4 * h);
  for (auto _ : state) {
    c.set_zero();
    tensor::matmul_acc(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 32 * h * 4 * h);
}
BENCHMARK(BM_MatmulLstmGateShape)->Arg(25)->Arg(50)->Arg(100);

void BM_MatmulTn(benchmark::State& state) {
  const std::size_t h = static_cast<std::size_t>(state.range(0));
  const tensor::Matrix a = random_matrix(32, h, 3);
  const tensor::Matrix b = random_matrix(32, 4 * h, 4);
  tensor::Matrix c(h, 4 * h);
  for (auto _ : state) {
    c.set_zero();
    tensor::matmul_tn_acc(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_MatmulTn)->Arg(50);

void BM_ForecasterForward(benchmark::State& state) {
  tensor::Rng rng(5);
  forecast::ForecasterConfig cfg;  // paper architecture LSTM(50)
  nn::Sequential model = forecast::make_forecaster(cfg, rng);
  tensor::Tensor3 x(32, 24, 1);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(0, 1);
  for (auto _ : state) {
    tensor::Tensor3 y = model.forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ForecasterForward);

void BM_ForecasterTrainStep(benchmark::State& state) {
  tensor::Rng rng(6);
  forecast::ForecasterConfig cfg;
  nn::Sequential model = forecast::make_forecaster(cfg, rng);
  nn::MseLoss loss;
  tensor::Tensor3 x(32, 24, 1), y(32, 1, 1);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(0, 1);
  for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] = rng.uniform(0, 1);
  for (auto _ : state) {
    const tensor::Tensor3 pred = model.forward(x, true);
    model.zero_grads();
    const nn::LossResult lr = loss.value_and_grad(pred, y);
    model.backward(lr.grad);
    benchmark::DoNotOptimize(model.get_grads().data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_ForecasterTrainStep);

void BM_SerializeWeights(benchmark::State& state) {
  fl::WeightUpdate u;
  u.client_id = 1;
  u.sample_count = 3456;
  tensor::Rng rng(7);
  u.weights.resize(10921);  // paper forecaster parameter count
  for (float& w : u.weights) w = rng.normal();
  for (auto _ : state) {
    const auto bytes = fl::serialize(u);
    const fl::WeightUpdate back = fl::deserialize_update(bytes);
    benchmark::DoNotOptimize(back.weights.data());
  }
  state.SetBytesProcessed(state.iterations() * u.weights.size() *
                          sizeof(float));
}
BENCHMARK(BM_SerializeWeights);

void BM_FedAvgAggregate(benchmark::State& state) {
  const std::size_t clients = static_cast<std::size_t>(state.range(0));
  tensor::Rng rng(8);
  std::vector<fl::WeightUpdate> updates(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    updates[c].client_id = static_cast<int>(c);
    updates[c].sample_count = 1000 + c;
    updates[c].weights.resize(10921);
    for (float& w : updates[c].weights) w = rng.normal();
  }
  for (auto _ : state) {
    const auto avg = fl::fed_avg(updates);
    benchmark::DoNotOptimize(avg.data());
  }
}
BENCHMARK(BM_FedAvgAggregate)->Arg(3)->Arg(30);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> payload(1 << 16);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fl::crc32(payload.data(), payload.size()));
  }
  state.SetBytesProcessed(state.iterations() * payload.size());
}
BENCHMARK(BM_Crc32);

void BM_AutoencoderScore(benchmark::State& state) {
  tensor::Rng rng(9);
  anomaly::AutoencoderConfig cfg;
  cfg.window = 24;
  cfg.encoder_units = 12;  // shrunken: scoring-path shape, not training cost
  cfg.latent_units = 6;
  cfg.max_epochs = 1;
  anomaly::LstmAutoencoder ae(cfg, rng);
  std::vector<float> series(500);
  for (float& v : series) v = rng.uniform(0, 1);
  ae.train(series, rng);
  for (auto _ : state) {
    const auto scores = ae.score(series);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * series.size());
}
BENCHMARK(BM_AutoencoderScore);

// ---- parallel-vs-serial comparison of the runtime layer --------------------

/// Median wall time of fn() in seconds over `trials` measured runs, after
/// `warmup` unmeasured runs.  The warmup runs absorb one-time costs (page
/// faults, cache/TLB fill, thread-pool spin-up); the median is robust to the
/// occasional scheduler hiccup that min/mean are not.
template <typename Fn>
double time_median_of(std::size_t trials, std::size_t warmup, Fn&& fn) {
  for (std::size_t r = 0; r < warmup; ++r) fn();
  std::vector<double> samples(trials);
  for (std::size_t r = 0; r < trials; ++r) {
    const metrics::WallTimer timer;
    fn();
    samples[r] = timer.seconds();
  }
  std::sort(samples.begin(), samples.end());
  return samples[trials / 2];
}

struct Comparison {
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  double speedup() const {
    return parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  }
};

Comparison compare_matmul(const runtime::RunContext& ctx) {
  const std::size_t n = 256;
  const tensor::Matrix a = random_matrix(n, n, 21);
  const tensor::Matrix b = random_matrix(n, n, 22);
  tensor::Matrix c(n, n);
  Comparison cmp;
  cmp.serial_seconds = time_median_of(5, 2, [&] {
    c.set_zero();
    tensor::matmul_acc(a, b, c);
    benchmark::DoNotOptimize(c.data());
  });
  cmp.parallel_seconds = time_median_of(5, 2, [&] {
    c.set_zero();
    tensor::matmul_acc(a, b, c, ctx);
    benchmark::DoNotOptimize(c.data());
  });
  return cmp;
}

Comparison compare_prepare_clients(const runtime::RunContext& ctx) {
  core::ExperimentConfig cfg;
  cfg.generator.hours = 600;
  cfg.ddos.bursts = 8;
  cfg.filter.autoencoder.window = 12;
  cfg.filter.autoencoder.encoder_units = 10;
  cfg.filter.autoencoder.latent_units = 5;
  cfg.filter.autoencoder.max_epochs = 4;
  cfg.cache_dir.clear();  // measure the real fit, not a cache hit
  Comparison cmp;
  // prepare_clients is seconds-scale: median-of-3 with one warmup keeps the
  // comparison honest without blowing up the bench's runtime.
  cmp.serial_seconds = time_median_of(3, 1, [&] {
    benchmark::DoNotOptimize(core::prepare_clients(cfg));
  });
  cmp.parallel_seconds = time_median_of(3, 1, [&] {
    benchmark::DoNotOptimize(core::prepare_clients(cfg, &ctx));
  });
  return cmp;
}

void write_json(std::ostream& out, std::size_t threads,
                const Comparison& matmul, const Comparison& prep) {
  auto entry = [&](const char* name, const Comparison& c, const char* tail) {
    out << "  \"" << name << "\": {\"serial_seconds\": " << c.serial_seconds
        << ", \"parallel_seconds\": " << c.parallel_seconds
        << ", \"speedup\": " << c.speedup() << "}" << tail << "\n";
  };
  out << "{\n  \"threads\": " << threads << ",\n";
  entry("matmul_256", matmul, ",");
  entry("prepare_clients", prep, "");
  out << "}\n";
}

void run_runtime_comparison() {
  runtime::ThreadPool pool(0);  // hardware_concurrency
  runtime::RunContext ctx{&pool, nullptr};
  std::cout << "\n=== runtime layer: parallel vs serial (threads="
            << pool.concurrency() << ") ===\n";

  const Comparison matmul = compare_matmul(ctx);
  std::cout << "matmul 256x256x256:  serial " << matmul.serial_seconds
            << "s, parallel " << matmul.parallel_seconds << "s, speedup "
            << matmul.speedup() << "x\n";

  const Comparison prep = compare_prepare_clients(ctx);
  std::cout << "prepare_clients:     serial " << prep.serial_seconds
            << "s, parallel " << prep.parallel_seconds << "s, speedup "
            << prep.speedup() << "x\n";

  const std::string json_path = data::artifact_path("BENCH_runtime.json");
  std::ofstream json(json_path);
  write_json(json, pool.concurrency(), matmul, prep);
  std::cout << "wrote " << json_path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);  // consumes the --benchmark_* flags
  if (const int rc = bench::extra_args(argc, argv, "--benchmark_*")) return rc;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  run_runtime_comparison();
  return 0;
}
