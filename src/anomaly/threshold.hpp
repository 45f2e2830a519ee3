// Anomaly-score thresholding strategies.
//
// The paper's primary rule is the 98th percentile of training-set
// reconstruction MSE.  The MSD (mean + k·std) and MAD (median absolute
// deviation) rules from its cited prior work [4] are provided as ablation
// alternatives (bench_ablation_threshold).
//
// Two evaluation modes share the ThresholdRule description:
//   compute_threshold    — batch: one pass over a score vector (train-time).
//   IncrementalThreshold — streaming: O(1)/O(R) per-score state updates so a
//                          long-running detector adapts its cutoff without
//                          rescanning history (evfl::stream).
//
// Both modes reject non-finite scores with a counted drop: a NaN entering
// std::sort is undefined behaviour and silently corrupts the order (and any
// mean/percentile built on it), and scores from a just-initialized or
// poisoned model do produce NaN/Inf.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace evfl::anomaly {

enum class ThresholdKind {
  kPercentile,  // param = percentile in (0, 100)        (paper: 98)
  kMeanStd,     // param = k in  mean + k * std          (MSD rule)
  kMad,         // param = k in  median + k * 1.4826*MAD (MAD rule)
};

std::string to_string(ThresholdKind kind);

struct ThresholdRule {
  ThresholdKind kind = ThresholdKind::kPercentile;
  /// The paper applies the 98th percentile to its window-level MSE scores.
  /// Our per-point scores use min-aggregation across covering windows
  /// (data::ErrorAggregation::kMin), which concentrates the clean-score
  /// distribution, so the percentile realizing the paper's operating point
  /// (precision ≈ 0.9, FPR ≈ 1.2%) sits higher; 99.5 is the calibrated
  /// default.  bench_ablation_threshold sweeps the full range including 98.
  double param = 99.5;
};

/// Remove non-finite entries in place (order of the finite entries is
/// preserved); returns how many were dropped.
std::size_t drop_nonfinite(std::vector<float>& values);

/// Compute the scalar threshold from training scores under the rule.
/// Non-finite scores are dropped first (reported through
/// `nonfinite_dropped` when non-null); throws if no finite score remains.
float compute_threshold(const std::vector<float>& train_scores,
                        const ThresholdRule& rule,
                        std::size_t* nonfinite_dropped = nullptr);

/// Linear-interpolated percentile (inclusive method, like numpy default)
/// over the finite entries of `values`; non-finite entries are dropped
/// (counted into `nonfinite_dropped` when non-null) and an all-non-finite
/// input throws.
float percentile(std::vector<float> values, double pct,
                 std::size_t* nonfinite_dropped = nullptr);

float median(std::vector<float> values);

/// Streaming threshold state behind a ThresholdRule — the incremental
/// counterpart of compute_threshold for continuous ingestion:
///
///   kPercentile — P² quantile estimator (Jain & Chlamtac 1985): five
///                 markers tracking {0, p/2, p, (1+p)/2, 1} quantile
///                 positions with parabolic height adjustment.  O(1) per
///                 observation, exact for the first five.
///   kMeanStd    — Welford mean/variance recurrence; matches
///                 data::compute_stats (population stddev) in the limit.
///   kMad        — deterministic reservoir sample (splitmix-hashed
///                 Algorithm R, fixed capacity) with an exact
///                 median + k·1.4826·MAD recompute over the reservoir,
///                 cached between observations.
///
/// Non-finite observations are rejected and counted, never folded into
/// state.  All storage is fixed at construction — observe() never
/// allocates, which is what the streaming zero-alloc ingest contract
/// (bench_stream --check-allocs) relies on.
class IncrementalThreshold {
 public:
  explicit IncrementalThreshold(const ThresholdRule& rule = {});

  /// Fold one score in.  Returns false (and counts the drop) for NaN/Inf.
  bool observe(float score);

  /// Forget every observation while keeping the rule and all storage
  /// (reservoir/scratch capacity survives, so a drift-triggered re-seed in
  /// a streaming zone never allocates).  The non-finite drop counter is
  /// cumulative across resets — it audits inputs, not estimator state.
  void reset();

  /// Current threshold estimate; requires at least one accepted score.
  float value() const;

  /// Accepted (finite) observations so far.
  std::size_t count() const { return count_; }
  std::uint64_t nonfinite_dropped() const { return nonfinite_dropped_; }
  const ThresholdRule& rule() const { return rule_; }

 private:
  static constexpr std::size_t kReservoirCap = 256;

  float percentile_value() const;
  void observe_p2(float score);

  ThresholdRule rule_;
  std::size_t count_ = 0;
  std::uint64_t nonfinite_dropped_ = 0;

  // kPercentile (P²): marker heights, integer positions, desired positions.
  std::array<double, 5> q_{};
  std::array<double, 5> n_{};
  std::array<double, 5> np_{};
  std::array<double, 5> dn_{};

  // kMeanStd (Welford).
  double mean_ = 0.0;
  double m2_ = 0.0;

  // kMad: fixed-capacity deterministic reservoir + reusable sort scratch.
  std::vector<float> reservoir_;
  mutable std::vector<float> mad_scratch_;
  mutable float mad_cached_ = 0.0f;
  mutable bool mad_dirty_ = true;
};

/// Drift probe for streaming thresholds (DESIGN.md §14): detects a
/// sustained shift of the score distribution that winsorized adaptation
/// would take thousands of samples to track, and hands the caller the
/// evidence to re-seed its IncrementalThreshold from.
///
/// Mechanics: scores enter a fixed trailing window (the re-seed
/// reservoir); scores that age out of the window graduate into a Welford
/// baseline, so baseline and window never overlap — the first `window`
/// post-shift samples are compared against a pre-shift baseline.  observe()
/// trips when the window mean sits more than `z_bound` standard errors
/// (baseline σ / √window) from the baseline mean.  After reseed() the
/// window graduates wholesale into a fresh baseline, giving a built-in
/// cooldown of one full window between trips.
///
/// All storage is fixed at construction; observe() and reseed() never
/// allocate (the streaming zero-alloc contract).  A default-constructed
/// probe is disabled: observe() accepts scores but never trips.
class DriftProbe {
 public:
  DriftProbe() = default;
  /// `z_bound` > 0 arms the probe; `window` is the trailing-window length
  /// (and the re-seed sample count).
  DriftProbe(double z_bound, std::size_t window);

  bool enabled() const { return z_bound_ > 0.0; }

  /// Fold one finite score; returns true when the window mean has drifted
  /// past the z-bound and the caller should reseed().  Non-finite scores
  /// are ignored (the caller's estimator already dropped them).
  bool observe(float score);

  /// Rebuild `estimator` from the trailing window (reset + oldest-first
  /// replay), then graduate the window into a fresh baseline and clear it.
  /// Call only after observe() returned true (requires a full window).
  void reseed(IncrementalThreshold& estimator);

  /// Windows replayed into an estimator so far (monotonic).
  std::uint64_t reseeds() const { return reseeds_; }
  std::size_t window() const { return window_; }
  double z_bound() const { return z_bound_; }

 private:
  double z_bound_ = 0.0;
  std::size_t window_ = 0;

  std::vector<float> ring_;  // trailing window, ring order
  std::size_t head_ = 0;     // slot of the oldest score
  std::size_t filled_ = 0;

  // Welford baseline over scores older than the window.
  std::size_t base_count_ = 0;
  double base_mean_ = 0.0;
  double base_m2_ = 0.0;

  std::uint64_t reseeds_ = 0;
};

}  // namespace evfl::anomaly
