#include "stream/zone_state.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace evfl::stream::detail {

void ZoneState::init(const data::MinMaxScaler& fitted_scaler,
                     std::size_t lookback,
                     const anomaly::ThresholdRule& rule, double drift_z,
                     std::size_t drift_window) {
  EVFL_REQUIRE(fitted_scaler.fitted(), "ZoneState::init: unfitted scaler");
  scaler = fitted_scaler;
  ring.assign(lookback, 0.0f);
  estimator = anomaly::IncrementalThreshold(rule);
  if (drift_z > 0.0) drift = anomaly::DriftProbe(drift_z, drift_window);
}

void RepairScratch::init(std::size_t lookback) {
  vals.assign(lookback + 1, 0.0f);
  flags.assign(lookback + 1, 0);
  flags[lookback] = 1;
  segs.assign(1, anomaly::Segment{lookback, lookback});
  cfg.method = anomaly::ImputationMethod::kLinear;
}

float RepairScratch::edge_repair(const ZoneState& z, std::size_t lookback) {
  for (std::size_t i = 0; i < lookback; ++i) {
    std::size_t j = z.head + i;
    if (j >= lookback) j -= lookback;
    vals[i] = z.ring[j];
  }
  // The trailing slot is the point under repair; kLinear never reads it
  // (no right anchor at the live edge -> hold the nearest trustworthy
  // left neighbour, exactly the paper's rule truncated to the past).
  vals[lookback] = 0.0f;
  anomaly::impute_segments(vals, segs, flags, cfg);
  return vals[lookback];
}

bool prepare_sample(ZoneState& z, const PendingSample& p,
                    std::size_t lookback, const ZonePolicy& pol,
                    RepairScratch& repair, StreamStats& stats,
                    float& scaled_out) {
  if (z.has_last && p.t != z.last_t + 1) {
    // Churn: restart or dropped samples — the window no longer holds
    // this sample's actual history, so it must refill from scratch.
    z.reset_window();
    ++stats.gaps_total;
  }
  z.last_t = p.t;
  z.has_last = true;

  const float scaled = z.scaler.transform_one(p.raw);
  const bool finite_in = std::isfinite(scaled);
  if (!finite_in) ++stats.nonfinite_inputs;

  if (z.filled < lookback) {
    // Not ready: fewer than lookback in-order samples since the zone
    // started or last gapped.  Never scored — zero-padding here would
    // fabricate history for the LSTM.
    ++stats.not_ready_total;
    if (finite_in) {
      z.push_window(scaled, lookback);
    } else if (pol.repair_inputs && z.filled > 0) {
      z.push_window(repair.edge_repair(z, lookback), lookback);
      ++stats.repaired_total;
    } else {
      // Nothing trustworthy to extend the partial window with.
      z.reset_window();
    }
    return false;
  }

  scaled_out = scaled;
  return true;
}

bool apply_forecast(ZoneState& z, std::uint32_t zone,
                    const PendingSample& p, float scaled, float forecast,
                    std::size_t lookback, const ZonePolicy& pol,
                    RepairScratch& repair, StreamStats& stats,
                    std::vector<AnomalyEvent>& events) {
  const float err = forecast - scaled;
  const float score = err * err;
  ++stats.scored_total;

  const bool finite_score = std::isfinite(score);
  if (!finite_score) ++stats.nonfinite_scores;
  // NaN threshold (unarmed zone) and NaN score both compare false:
  // nothing is flagged until a threshold exists and the score is real.
  const float thr = z.threshold;
  const bool flagged = finite_score && score > thr;

  float stored = scaled;
  bool repaired = false;
  if ((flagged || !std::isfinite(scaled)) && pol.repair_inputs) {
    stored = repair.edge_repair(z, lookback);
    repaired = true;
    ++stats.repaired_total;
  }

  if (flagged) {
    AnomalyEvent ev;
    ev.zone = zone;
    ev.t = p.t;
    ev.value = p.raw;
    ev.score = score;
    ev.threshold = thr;
    ev.repaired = repaired ? z.scaler.inverse_one(stored) : p.raw;
    events.push_back(ev);
    ++stats.events_total;
  }

  // Adapt after the decision: the flag always reflects the threshold
  // as of the previous sample, matching what a deployed detector knew.
  // Flagged scores fold in winsorized — clamped at twice the threshold
  // that flagged them.  Unclamped, a handful of attack-sized outliers
  // drags the P² markers (and so the threshold) far above later
  // attacks; clamped at the threshold itself (or excluded), the
  // threshold could never rise, and any persistent mass above it —
  // e.g. scores inflated by the detector's own repairs — would flag
  // forever.  The 2x headroom lets sustained moderate exceedance walk
  // the threshold up until the flag rate matches the rule's tail
  // again, while an anomaly burst still contributes a bounded amount.
  // Until the zone arms (threshold NaN) nothing is flagged, so raw
  // scores adapt freely.
  if (pol.adapt_thresholds && !z.frozen) {
    const float folded = flagged ? std::min(score, 2.0f * thr) : score;
    if (z.estimator.observe(folded)) z.threshold = z.estimator.value();
    // Winsorized folding bounds how far an attack burst can move the
    // trailing window (each burst sample contributes at most 2x the
    // threshold), but a *sustained* shift saturates the window and trips
    // the probe: re-seed the estimator from the window instead of
    // walking the P² markers up one observation at a time.
    if (z.drift.observe(folded)) {
      z.drift.reseed(z.estimator);
      z.threshold = z.estimator.value();
      ++stats.reseeds_total;
    }
  }

  if (std::isfinite(stored)) {
    z.push_window(stored, lookback);
    return !repaired;
  }
  // Non-finite sample with repair disabled: the window would be poisoned
  // for the next lookback scores — drop to not-ready.
  z.reset_window();
  return false;
}

}  // namespace evfl::stream::detail
