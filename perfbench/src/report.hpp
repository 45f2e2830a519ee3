// Result assembly for one benchmark run: metric values, output checks, the
// host/config fingerprint, and the traced run's per-layer span table and
// trace file.  Metric names and units are defined in BENCHMARK.json;
// run.py checks the names and attaches the units.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_id = "unknown";
  std::string trace_out;  // traced runs write their spans here
};

/// What one run reports: the metrics of its mode (end-to-end untraced,
/// per-layer traced); checks that fail make the run incorrect (and exit
/// nonzero).
class Result {
 public:
  void set(const std::string& name, double value);
  void check(bool ok, const std::string& what);
  void add_attempts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Configuration echoed in the fingerprint line.
  void param(const std::string& key, double value);

  /// Print the fingerprint line, any check failures, and the final result
  /// line, whose "metrics" maps each name to its value.  Returns the
  /// process exit code.
  int emit(const Args& args) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> params_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set size of this process (VmHWM), MiB.
double peak_rss_mib();

/// One thread's span log with the name printed for it in the trace.
struct ThreadSpans {
  std::string thread;
  const SpanLog* log = nullptr;
};

/// Print the per-layer table (count, total and self time per span name)
/// and write every span as a Chrome trace_event JSON file to `path`.
void report_spans(const std::vector<ThreadSpans>& threads,
                  const std::string& path);

}  // namespace perfbench
