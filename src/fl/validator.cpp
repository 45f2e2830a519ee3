#include "fl/validator.hpp"

#include <cmath>

#include "common/error.hpp"

namespace evfl::fl {

UpdateValidator::UpdateValidator(ValidatorConfig cfg) : cfg_(cfg) {
  EVFL_REQUIRE(cfg_.max_update_norm >= 0.0,
               "max_update_norm must be non-negative");
  EVFL_REQUIRE(cfg_.min_updates >= 1, "quorum must be at least 1");
}

bool all_finite(const std::vector<float>& weights) {
  for (const float w : weights) {
    if (!std::isfinite(w)) return false;
  }
  return true;
}

RoundGate::RoundGate(const ValidatorConfig& cfg, std::uint32_t expected_round,
                     const std::vector<float>& global_weights)
    : cfg_(cfg),
      expected_round_(expected_round),
      global_weights_(global_weights) {}

bool RoundGate::admit(WeightUpdate& u) {
  ++audit_.received;
  if (cfg_.reject_stale && u.round != expected_round_) {
    ++audit_.rejected_stale;
    return false;
  }
  if (cfg_.reject_duplicates && !seen_clients_.insert(u.client_id).second) {
    ++audit_.rejected_duplicate;
    return false;
  }
  // Wrong-dimension payloads are unconditionally unaggregatable — a
  // malformed update degrades the round, it never terminates the server.
  if (u.weights.size() != global_weights_.size()) {
    ++audit_.rejected_dimension;
    return false;
  }
  if (cfg_.reject_nonfinite && !all_finite(u.weights)) {
    ++audit_.rejected_nonfinite;
    return false;
  }
  if (cfg_.max_update_norm > 0.0) {
    // Clip the *movement* ||u - global||, not the raw weight norm: a
    // legitimate large model is fine, a huge per-round jump is not.  A
    // delta-coded update already *is* the movement, so its norm is taken
    // directly and clipping rescales it in place.
    double sq = 0.0;
    for (std::size_t i = 0; i < u.weights.size(); ++i) {
      const double d = u.is_delta ? static_cast<double>(u.weights[i])
                                  : static_cast<double>(u.weights[i]) -
                                        static_cast<double>(global_weights_[i]);
      sq += d * d;
    }
    const double norm = std::sqrt(sq);
    if (norm > cfg_.max_update_norm) {
      const double scale = cfg_.max_update_norm / norm;
      for (std::size_t i = 0; i < u.weights.size(); ++i) {
        if (u.is_delta) {
          u.weights[i] =
              static_cast<float>(static_cast<double>(u.weights[i]) * scale);
        } else {
          const double d = static_cast<double>(u.weights[i]) -
                           static_cast<double>(global_weights_[i]);
          u.weights[i] =
              static_cast<float>(static_cast<double>(global_weights_[i]) +
                                 d * scale);
        }
      }
      // A clipped aggregate's exact sums no longer describe its (rescaled)
      // mean view; drop them so the parent averages the clipped floats.
      // Forfeiting a whole shard's exactness is audited, not silent.
      if (!u.agg_terms.empty() || u.agg_contributors > 0) {
        ++audit_.clipped_aggregates;
      }
      u.agg_terms.clear();
      ++audit_.clipped;
    }
  }
  ++accepted_;
  return true;
}

const RoundAudit& RoundGate::finish() {
  audit_.accepted = accepted_;
  audit_.quorum_met = accepted_ >= cfg_.min_updates;
  return audit_;
}

std::vector<WeightUpdate> UpdateValidator::filter(
    std::vector<WeightUpdate> updates, std::uint32_t expected_round,
    const std::vector<float>& global_weights, RoundAudit& audit) const {
  RoundGate gate(cfg_, expected_round, global_weights);
  std::vector<WeightUpdate> accepted;
  accepted.reserve(updates.size());
  for (WeightUpdate& u : updates) {
    if (gate.admit(u)) accepted.push_back(std::move(u));
  }
  audit = gate.finish();
  return accepted;
}

}  // namespace evfl::fl
