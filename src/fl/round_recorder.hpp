// Round close-out shared by the federated drivers (driver.cpp, fleet.cpp).
// Internal to src/fl — not part of the public evfl::fl surface.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "fl/driver.hpp"
#include "fl/validator.hpp"
#include "obs/round_telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/run_context.hpp"

namespace evfl::fl {

/// Bytes one round put on each leg: wire size, and the dense-equivalent
/// ("logical") size an uncompressed kDense exchange would have paid.
struct RoundBytes {
  std::uint64_t down = 0;
  std::uint64_t up = 0;
  std::uint64_t logical_down = 0;
  std::uint64_t logical_up = 0;
};

/// One round from open to close, the bookkeeping every driver shares.  The
/// constructor starts the round clock and the "fl.round" span (in ctx's
/// trace writer, when one is attached).
class RoundRecorder {
 public:
  RoundRecorder(const runtime::RunContext* ctx, std::uint32_t round,
                std::size_t population, std::size_t sampled);

  /// The one round-close path.  Completes `rm` — round, population, cohort
  /// and wall time; accepted / rejected / late counts from `audit`;
  /// max_client_seconds from `client_seconds` (the sampled cohort's
  /// training times) — then adds the robustness counters to ctx's registry,
  /// ends the span, records one RoundTelemetry into `telemetry` (optional)
  /// and appends the round to `result`.
  void record_round(RoundMetrics rm, const RoundAudit& audit,
                    std::vector<double> client_seconds,
                    const RoundBytes& bytes,
                    obs::RoundTelemetrySink* telemetry,
                    FederatedRunResult& result);

 private:
  const runtime::RunContext* ctx_;
  std::uint32_t round_;
  std::size_t population_;
  std::size_t sampled_;
  std::chrono::steady_clock::time_point t0_;
  obs::TraceSpan span_;
};

}  // namespace evfl::fl
