// Microbench of the LSTM training fast path at the paper's forecaster shape
// (forecast::ForecasterConfig: batch 32, seq 24, LSTM(50) -> Dense(10) ->
// Dense(1)): step throughput plus *heap allocations per step* — the metric
// the workspace/fused-kernel work drives to zero and the perf-smoke CI job
// pins (allocation counts are deterministic; timings are not) — and the
// per-call time of the three GEMMs one LSTM timestep runs.  Writes
// build/artifacts/BENCH_kernels.json.
//
//   bench_lstm_kernels                 # full run, prints + writes JSON
//   bench_lstm_kernels --check-allocs  # short run; exit 1 if the steady
//                                      # state still allocates
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "core/config.hpp"
#include "data/csv.hpp"
#include "forecast/model.hpp"
#include "harness.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "nn/loss.hpp"
#include "nn/lstm.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "tensor/matrix.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace evfl;
using bench::OpStats;
using tensor::Matrix;
using tensor::Rng;
using tensor::Tensor3;

const forecast::ForecasterConfig kShape{};

/// Forward+backward through the forecaster's Lstm layer alone, as training
/// runs it: last-step output, and (first layer) no input gradient.
OpStats bench_lstm_fwd_bwd(std::size_t warmup, std::size_t iters,
                           obs::Histogram* latency) {
  const std::size_t n = kShape.batch_size, t = kShape.sequence_length;
  const std::size_t h = kShape.lstm_units, in = kShape.input_features;
  Rng rng(1);
  nn::Lstm lstm(h, /*return_sequences=*/false, rng, in);
  Tensor3 x(n, t, in), grad(n, 1, h);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(0, 1);
  for (std::size_t i = 0; i < grad.size(); ++i) {
    grad.data()[i] = rng.normal(0.0f, 0.01f);
  }
  const auto step = [&] {
    const Tensor3 out = lstm.forward(x, /*training=*/true);
    lstm.backward(grad, /*input_grad=*/false);
    if (out.size() == 0) std::abort();  // keep the work alive
  };
  return bench::measure(warmup, iters, step, latency);
}

/// A complete training step of the paper's forecaster:
/// forward, loss, backward, Adam update.
OpStats bench_train_step(std::size_t warmup, std::size_t iters,
                         obs::Histogram* latency) {
  Rng rng(2);
  nn::Sequential model = forecast::make_forecaster(kShape, rng);
  nn::MseLoss loss;
  nn::Adam opt(kShape.learning_rate);
  nn::Trainer trainer(model, loss, opt, rng);

  const std::size_t n = kShape.batch_size;
  Tensor3 x(n, kShape.sequence_length, kShape.input_features), y(n, 1, 1);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = rng.uniform(0, 1);
  for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] = rng.uniform(0, 1);

  const auto step = [&] {
    const float l = trainer.train_batch(x, y);
    if (!(l >= 0.0f)) std::abort();
  };
  return bench::measure(warmup, iters, step, latency);
}

/// The three recurrent GEMMs of one LSTM timestep at the forecaster shape
/// (N = batch, H = lstm_units): forward z += h·Wh (acc, [N,H]·[H,4H]),
/// backward gWh += h_prevᵀ·dZ (tn, [N,H]ᵀ·[N,4H]) and dh = dZ·Whᵀ (nt,
/// [N,4H]·[H,4H]ᵀ).  Each op is one call.
struct KernelStats {
  OpStats acc, tn, nt;
};

KernelStats bench_gemms(std::size_t warmup, std::size_t iters) {
  const std::size_t n = kShape.batch_size, h = kShape.lstm_units;
  Rng rng(3);
  const auto fill = [&](std::size_t r, std::size_t c) {
    Matrix m(r, c);
    for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.uniform(-1, 1);
    return m;
  };
  const Matrix hs = fill(n, h), wh = fill(h, 4 * h), dz = fill(n, 4 * h);
  Matrix z(n, 4 * h), gwh(h, 4 * h), dh(n, h);
  KernelStats s;
  s.acc = bench::measure(warmup, iters,
                         [&] { tensor::matmul_acc(hs, wh, z); });
  s.tn = bench::measure(warmup, iters,
                        [&] { tensor::matmul_tn_acc(hs, dz, gwh); });
  s.nt = bench::measure(warmup, iters,
                        [&] { tensor::matmul_nt_acc(dz, wh, dh); });
  if (!(z(0, 0) == z(0, 0)) || !(gwh(0, 0) == gwh(0, 0)) ||
      !(dh(0, 0) == dh(0, 0))) {
    std::abort();  // keep the work alive (and finite)
  }
  return s;
}

double micros(const OpStats& s) {
  return s.ops_per_sec > 0.0 ? 1e6 / s.ops_per_sec : 0.0;
}

void print_stats(const char* name, const OpStats& s) {
  std::printf("%-14s %10.1f steps/s   %8.1f allocs/step   %10.0f B/step\n",
              name, s.ops_per_sec, s.allocs_per_op, s.bytes_per_op);
}

void print_kernel(const char* name, const OpStats& s) {
  std::printf("%-14s %10.2f us/call %8.1f allocs/call\n", name, micros(s),
              s.allocs_per_op);
}

void write_json(const std::string& path, const OpStats& kernel,
                const OpStats& train, const KernelStats& gemms) {
  std::ofstream out(path);
  auto entry = [&](const char* name, const OpStats& s, const char* tail) {
    out << "  \"" << name << "\": {\"steps_per_sec\": " << s.ops_per_sec
        << ", \"allocs_per_step\": " << s.allocs_per_op
        << ", \"bytes_per_step\": " << s.bytes_per_op << "}" << tail
        << "\n";
  };
  out << "{\n  \"config\": {\"batch\": " << kShape.batch_size
      << ", \"seq\": " << kShape.sequence_length
      << ", \"hidden\": " << kShape.lstm_units
      << ", \"dense\": " << kShape.dense_units << "},\n";
  entry("lstm_fwd_bwd", kernel, ",");
  entry("train_step", train, ",");
  out << "  \"gemm_us\": {\"acc\": " << micros(gemms.acc)
      << ", \"tn\": " << micros(gemms.tn) << ", \"nt\": " << micros(gemms.nt)
      << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool check_allocs = core::take_flag(argc, argv, "--check-allocs");
  if (const int rc = bench::extra_args(argc, argv, "--check-allocs")) return rc;

  const std::size_t warmup = check_allocs ? 3 : 10;
  const std::size_t iters = check_allocs ? 5 : 200;

  // Telemetry is skipped entirely under --check-allocs: the TraceWriter and
  // the latency-sampling pass both touch the heap, and that mode exists to
  // prove the training steady state does not.
  evfl::obs::Registry registry;
  std::unique_ptr<evfl::obs::TraceWriter> trace;
  evfl::obs::Histogram* kernel_hist = nullptr;
  evfl::obs::Histogram* train_hist = nullptr;
  std::string trace_path, metrics_path;
  if (!check_allocs) {
    trace_path = evfl::data::artifact_path("kernels_trace.jsonl");
    metrics_path = evfl::data::artifact_path("kernels_metrics.json");
    trace = std::make_unique<evfl::obs::TraceWriter>(trace_path);
    kernel_hist = &registry.histogram("lstm_fwd_bwd_step_seconds");
    train_hist = &registry.histogram("train_step_seconds");
  }

  const std::uint64_t t0 = trace ? trace->now_us() : 0;
  const OpStats kernel = bench_lstm_fwd_bwd(warmup, iters, kernel_hist);
  if (trace) {
    trace->complete("bench.lstm_fwd_bwd", "bench", t0, trace->now_us() - t0);
  }
  const std::uint64_t t1 = trace ? trace->now_us() : 0;
  const OpStats train = bench_train_step(warmup, iters, train_hist);
  if (trace) {
    trace->complete("bench.train_step", "bench", t1, trace->now_us() - t1);
    trace->counter("lstm_fwd_bwd.steps_per_sec", kernel.ops_per_sec);
    trace->counter("train_step.steps_per_sec", train.ops_per_sec);
    trace->flush();
  }
  const KernelStats gemms = bench_gemms(warmup * 10, iters * 10);
  std::printf("=== LSTM kernel bench (batch %zu, seq %zu, hidden %zu) ===\n",
              kShape.batch_size, kShape.sequence_length, kShape.lstm_units);
  print_stats("lstm_fwd_bwd", kernel);
  print_stats("train_step", train);
  print_kernel("gemm acc", gemms.acc);
  print_kernel("gemm tn", gemms.tn);
  print_kernel("gemm nt", gemms.nt);

  if (check_allocs) {
    // The deterministic regression gate: the steady-state training step
    // must not touch the heap at all.
    const double gemm_allocs = gemms.acc.allocs_per_op +
                               gemms.tn.allocs_per_op + gemms.nt.allocs_per_op;
    if (kernel.allocs_per_op > 0.0 || train.allocs_per_op > 0.0 ||
        gemm_allocs > 0.0) {
      std::printf("FAIL: steady-state heap allocations detected "
                  "(lstm_fwd_bwd %.1f/step, train_step %.1f/step, "
                  "gemms %.1f/call)\n",
                  kernel.allocs_per_op, train.allocs_per_op, gemm_allocs);
      return 1;
    }
    std::printf("OK: steady state is allocation-free\n");
    return 0;
  }

  const std::string json_path = data::artifact_path("BENCH_kernels.json");
  write_json(json_path, kernel, train, gemms);
  std::printf("wrote %s\n", json_path.c_str());

  registry.write_json_file(metrics_path);
  std::printf("latency p50/p95/p99 (ms): lstm_fwd_bwd %.3f/%.3f/%.3f, "
              "train_step %.3f/%.3f/%.3f\n",
              kernel_hist->quantile(0.50) * 1e3,
              kernel_hist->quantile(0.95) * 1e3,
              kernel_hist->quantile(0.99) * 1e3,
              train_hist->quantile(0.50) * 1e3,
              train_hist->quantile(0.95) * 1e3,
              train_hist->quantile(0.99) * 1e3);
  std::printf("trace: %s\nmetrics: %s\n", trace_path.c_str(),
              metrics_path.c_str());
  return 0;
}
