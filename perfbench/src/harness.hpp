// The benchmark harness's own arithmetic: percentiles and the tail
// percentile a sample supports, open-loop due times and lateness, and the
// in-memory span log with self-time and coverage analysis.  Header-only so
// the self-test (tests/harness_test.cpp) checks exactly the code the
// runner uses.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- percentiles ------------------------------------------------------------

/// Linear-interpolated quantile of an ascending vector (numpy's default
/// "linear" method), q in [0, 1]; 0 for an empty vector.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The highest percentile of the ladder {50, 90, 99, 99.9, 99.99} that
/// leaves at least ten of `n` samples above it, i.e. the tail a sample of
/// that size can support.  Returns 0 when not even the median qualifies.
/// Integer arithmetic in units of 0.01%, so ladder boundaries are exact
/// (n = 1000 supports p99 with exactly ten samples beyond).
inline double supported_percentile(std::size_t n) {
  static constexpr std::uint64_t kLadder[] = {5000, 9000, 9900, 9990, 9999};
  static constexpr std::uint64_t kBeyond = 10;
  double best = 0.0;
  for (const std::uint64_t p : kLadder) {
    if (static_cast<std::uint64_t>(n) * (10000 - p) >= kBeyond * 10000ull) {
      best = static_cast<double>(p) / 100.0;
    }
  }
  return best;
}

// ---- open loop ----------------------------------------------------------------

/// Fixed-rate schedule: tick k is due at start + k * period, independent of
/// how late earlier ticks went out, so a generator stall makes later ticks
/// late instead of silently lowering the offered rate.
struct OpenLoop {
  std::int64_t start_ns = 0;
  double period_ns = 0.0;

  std::int64_t due_ns(std::uint64_t k) const {
    return start_ns +
           static_cast<std::int64_t>(std::llround(static_cast<double>(k) *
                                                  period_ns));
  }
  /// How late tick k went out when it was emitted at `emitted_ns` (0 when
  /// on time or early).
  std::int64_t lateness_ns(std::uint64_t k, std::int64_t emitted_ns) const {
    return std::max<std::int64_t>(0, emitted_ns - due_ns(k));
  }
  /// Latency of a result for tick k delivered at `done_ns`, counted from
  /// the tick's due time, so generator lateness is part of it.
  std::int64_t latency_ns(std::uint64_t k, std::int64_t done_ns) const {
    return done_ns - due_ns(k);
  }
};

// ---- spans --------------------------------------------------------------------

enum class SpanKind : std::uint8_t {
  kGenTick,
  kIngest,
  kFlush,
  kDrain,
  kFlRound,
  kPublish,
  kScore,
  kWait,  // a thread idle: flow control, open-loop sleep, nothing to flush
};
constexpr std::size_t kSpanKinds = 8;
constexpr const char* kSpanNames[kSpanKinds] = {
    "gen.tick",  "stream.ingest",  "stream.flush", "stream.drain",
    "fl.round",  "engine.publish", "engine.score", "wait",
};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index in the same log; -1 = top level
  SpanKind kind = SpanKind::kGenTick;
};

/// One thread's spans, kept in memory in open order.  Not thread-safe:
/// every thread records into its own log.
class SpanLog {
 public:
  explicit SpanLog(std::size_t reserve = 0) { spans_.reserve(reserve); }

  std::int32_t open(SpanKind kind, std::int64_t start_ns) {
    Span s;
    s.start_ns = start_ns;
    s.end_ns = start_ns;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.kind = kind;
    spans_.push_back(s);
    const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx, std::int64_t end_ns) {
    spans_[static_cast<std::size_t>(idx)].end_ns = end_ns;
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }
  /// Record an already-timed child-free span under the open parent.
  void add(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns) {
    Span s;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.kind = kind;
    spans_.push_back(s);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; inert (no clock reads) when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanKind kind) : log_(log) {
    if (log_ != nullptr) idx_ = log_->open(kind, now_ns());
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(idx_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t idx_ = -1;
};

/// Length of the union of half-open intervals.
inline std::int64_t union_length(
    std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (hi <= lo) continue;
    if (!open || lo > cur_hi) {
      if (open) total += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    } else {
      cur_hi = std::max(cur_hi, hi);
    }
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its child spans (children clipped to the parent, overlaps
/// between children counted once).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> out(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t dur = spans[i].end_ns - spans[i].start_ns;
    out[i] = dur - union_length(std::move(children[i]));
  }
  return out;
}

/// Length of [begin, end) covered by the log's top-level spans.
inline std::int64_t covered_ns(const std::vector<Span>& spans,
                               std::int64_t begin, std::int64_t end) {
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const Span& s : spans) {
    if (s.parent >= 0) continue;
    const std::int64_t lo = std::max(s.start_ns, begin);
    const std::int64_t hi = std::min(s.end_ns, end);
    if (hi > lo) iv.emplace_back(lo, hi);
  }
  return union_length(std::move(iv));
}

/// Share of [begin, end) covered by the log's top-level spans.
inline double span_coverage(const std::vector<Span>& spans,
                            std::int64_t begin, std::int64_t end) {
  if (end <= begin) return 0.0;
  return static_cast<double>(covered_ns(spans, begin, end)) /
         static_cast<double>(end - begin);
}

}  // namespace perfbench
