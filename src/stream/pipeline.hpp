// evfl::stream — continuous-ingestion anomaly detection (DESIGN.md §14).
//
// The batch pipeline (core/pipeline) detects anomalies after the fact: it
// windows a finished series, scores every window, computes one threshold
// from the whole score vector, and repairs flagged segments with full
// lookahead.  A deployed detector sees none of that — samples arrive one
// at a time per zone, thresholds have to adapt without rescanning history,
// and repair can only use the past.  The stream pipeline
// (stream::ShardedPipeline, sharded.hpp) is that online counterpart, built
// from the same parts; this header holds its per-zone configuration and
// the batch scorer it is pinned against.
//
// Determinism: the engine runs the same kernels for every batch size and
// a row's score depends on that row alone, so a round with one ready zone
// scores exactly like a wide round or a batch_scores() chunk — a
// frozen-threshold stream replay of a series is bit-identical to the batch
// detector (tests/test_stream.cpp pins this).
#pragma once

#include <cstdint>
#include <vector>

#include "anomaly/threshold.hpp"
#include "forecast/engine.hpp"
#include "runtime/run_context.hpp"

namespace evfl::stream {

/// Per-zone semantics and sizing of the stream pipeline.
struct StreamConfig {
  /// Upper bound on add_zone() calls across all shards; sizes the staging
  /// tensor (the engine must accept batches of max_zones).
  std::size_t max_zones = 16;
  /// Threshold rule every zone's incremental estimator runs.
  anomaly::ThresholdRule threshold{};
  /// Fold each finite score into the zone's estimator after the flag
  /// decision (the decision always uses the pre-observation threshold).
  /// Flagged scores fold in winsorized — clamped at twice the threshold
  /// that flagged them — so genuine drift can still raise the threshold
  /// but an anomaly burst cannot drag the null-distribution estimate up
  /// past later attacks.  Frozen zones never adapt regardless.
  bool adapt_thresholds = true;
  /// Repair flagged (and non-finite) samples at the window edge before
  /// they extend the window.  Disable for strict batch equivalence.
  bool repair_inputs = true;
  /// Drift-triggered threshold re-seeding (anomaly::DriftProbe): when the
  /// mean of the last `drift_window` folded scores sits more than
  /// `drift_z` standard errors from the pre-window baseline, the zone's
  /// estimator is rebuilt from that window instead of adapting one P²
  /// step at a time.  0 disables the probe.  Frozen zones never re-seed.
  double drift_z = 0.0;
  std::size_t drift_window = 64;
  /// Event queue hard bound (drop-oldest beyond it) and post-drain storage
  /// watermark (MpscRing contract: 8 <= shrink <= max; a shrink above the
  /// bound is clamped to it).
  std::size_t queue_max = 4096;
  std::size_t queue_shrink = 1024;
};

/// Score every complete window of an already-scaled series the way the
/// stream does: out[i] = (forecast(window starting at i) - series[i +
/// lookback])², batched through the engine in chunks of up to max_batch
/// rows.  A frozen-threshold stream replay of `series` flags exactly the
/// samples whose batch_scores() entry exceeds the threshold.  Returns
/// series.size() - lookback scores.
std::vector<float> batch_scores(forecast::Engine& engine,
                                const std::vector<float>& series,
                                const runtime::RunContext* ctx = nullptr);

}  // namespace evfl::stream
