// Scaffolding shared by the bench binaries: the bad-argument exit path, the
// allocation windows and measure loop behind the --check-allocs gates, and
// the linear y = 2x fleet the adversarial and fault-matrix grids train.
// alloc_totals() lives in alloc_counter.cpp, which only the alloc-gated
// benches link, so only they may use AllocWindow and measure().
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "fl/client.hpp"
#include "metrics/timer.hpp"
#include "obs/telemetry.hpp"

namespace evfl::fl {
class AdversarySuite;
}

namespace evfl::bench {

// ---- command line -----------------------------------------------------------
/// Print "argument error: <what>" to stderr and return 2, the exit code of
/// every bench given a bad command line.
int argument_error(const std::string& what);

/// core::apply_cli_overrides, with a bad key or value reported through
/// argument_error: returns 0, or 2 after printing the error.
int apply_overrides(core::ExperimentConfig& cfg, int argc, char** argv);

/// ExperimentConfig defaults for the benches that run the paper's
/// pipeline: the pool sized to the machine (--threads N overrides), and the
/// one expensive pipeline pass (generation, attack injection, autoencoder
/// fitting) shared across benches through an on-disk cache keyed by the
/// config fingerprint (--cache-dir "" disables it).
core::ExperimentConfig shared_pipeline_config();

/// For benches whose own flags are already taken out of argv: 0 when
/// nothing is left, else argument_error naming the first extra argument and
/// what the bench `expected`.
int extra_args(int argc, char** argv, const char* expected);

// ---- allocation counting ----------------------------------------------------
/// Heap allocations since process start, every global operator new form.
struct AllocTotals {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
AllocTotals alloc_totals();

/// The allocations made since the window opened.
class AllocWindow {
 public:
  AllocWindow() : start_(alloc_totals()) {}

  /// Allocations since construction or the previous take(); the window
  /// then reopens at the current totals.
  AllocTotals take() {
    const AllocTotals now = alloc_totals();
    const AllocTotals since{now.count - start_.count,
                            now.bytes - start_.bytes};
    start_ = now;
    return since;
  }

 private:
  AllocTotals start_;
};

struct OpStats {
  double ops_per_sec = 0.0;    // fastest timing window
  double allocs_per_op = 0.0;  // over every timing window
  double bytes_per_op = 0.0;
};

/// Run `op` `warmup` times unmeasured (first-use buffer growth is not the
/// steady state), then `iters` times split into 5 equal timing windows (one
/// when iters < 5).  Throughput is the fastest window's: on a shared host a
/// single window absorbs co-tenant bursts, and the minimum is the
/// low-variance estimate of the intrinsic cost.  Allocations are averaged
/// over every window.  A non-null `latency` then gets 100 single-op
/// timings in a separate pass, so the timed windows stay untouched.
template <typename Fn>
OpStats measure(std::size_t warmup, std::size_t iters, Fn&& op,
                obs::Histogram* latency = nullptr) {
  for (std::size_t i = 0; i < warmup; ++i) op();
  const std::size_t windows = iters >= 5 ? 5 : 1;
  const std::size_t per_window = iters / windows;
  AllocWindow allocs;
  double best_secs = 0.0;
  for (std::size_t w = 0; w < windows; ++w) {
    const metrics::WallTimer timer;
    for (std::size_t i = 0; i < per_window; ++i) op();
    const double secs = timer.seconds();
    if (w == 0 || secs < best_secs) best_secs = secs;
  }
  const AllocTotals spent = allocs.take();
  const double measured = static_cast<double>(windows * per_window);
  OpStats s;
  s.ops_per_sec =
      best_secs > 0.0 ? static_cast<double>(per_window) / best_secs : 0.0;
  s.allocs_per_op = static_cast<double>(spent.count) / measured;
  s.bytes_per_op = static_cast<double>(spent.bytes) / measured;
  if (latency != nullptr) {
    for (std::size_t i = 0; i < 100; ++i) {
      const metrics::WallTimer timer;
      op();
      latency->record(timer.seconds());
    }
  }
  return s;
}

// ---- the linear fleet -------------------------------------------------------
/// A homogeneous fleet fitting y = 2x: `clients` one-weight linear models
/// with 96 noisy samples each, 10 local epochs per round.  Every client
/// agrees on the optimum, so any quality loss in a grid is the attack's or
/// the fault's.  A data-poisoning `adversary` relabels each client's
/// tensors before the Client takes ownership, so its poisoned update comes
/// out of the real training path.
std::vector<std::unique_ptr<fl::Client>> linear_fleet(
    int clients, const fl::AdversarySuite* adversary = nullptr);

/// R² of a linear fleet model (weights {w, b}) against y = 2x on a fixed
/// 512-point holdout.
double linear_holdout_r2(const std::vector<float>& weights);

}  // namespace evfl::bench
