#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

void Result::set(const std::string& name, double value) {
  values_[name] = value;
}

void Result::param(const std::string& key, double value) {
  params_[key] = number(value);
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) failures_.push_back(what);
}

int Result::emit(const Args& args) const {
  std::ostringstream fp;
  fp << "{\"workload\":\"" << json_escape(args.workload) << "\""
     << ",\"seed\":" << args.seed << ",\"seconds\":" << number(args.seconds)
     << ",\"trace\":" << (args.trace ? 1 : 0)
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"avx2\":" << (cpu_has_avx2() ? "true" : "false")
     << ",\"compiler\":\"" << json_escape(__VERSION__) << "\""
     << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
     << ",\"cxx_flags\":\"" << PERFBENCH_CXX_FLAGS << "\""
     << ",\"source\":\"" << json_escape(args.source_id) << "\"";
  for (const auto& [k, v] : params_) {
    fp << ",\"" << json_escape(k) << "\":\"" << json_escape(v) << "\"";
  }
  fp << "}";
  std::printf("fingerprint %s\n", fp.str().c_str());

  std::vector<std::string> failures = failures_;
  std::ostringstream metrics;
  bool first = true;
  for (const auto& [name, value] : values_) {
    if (!std::isfinite(value)) {
      failures.push_back("metric " + name + " is not finite");
      continue;
    }
    metrics << (first ? "" : ", ") << "\"" << json_escape(name)
            << "\": " << number(value);
    first = false;
  }
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool ok = failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              ok ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              metrics.str().c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void report_spans(const std::vector<ThreadSpans>& threads,
                  const std::string& path) {
  struct Row {
    std::size_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  Row rows[kSpanKinds];
  std::int64_t self_sum = 0;
  for (const ThreadSpans& t : threads) {
    const std::vector<Span>& spans = t.log->spans();
    const std::vector<std::int64_t> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      Row& r = rows[static_cast<std::size_t>(spans[i].kind)];
      ++r.count;
      r.total_ns += spans[i].end_ns - spans[i].start_ns;
      r.self_ns += self[i];
      self_sum += self[i];
    }
  }
  std::printf("%-16s %10s %12s %12s %8s\n", "span", "count", "total_ms",
              "self_ms", "self_%");
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    const Row& r = rows[k];
    if (r.count == 0) continue;
    std::printf("%-16s %10zu %12.3f %12.3f %8.2f\n", kSpanNames[k], r.count,
                static_cast<double>(r.total_ns) / 1e6,
                static_cast<double>(r.self_ns) / 1e6,
                self_sum > 0 ? 100.0 * static_cast<double>(r.self_ns) /
                                   static_cast<double>(self_sum)
                             : 0.0);
  }

  if (path.empty()) return;
  std::int64_t origin = INT64_MAX;
  for (const ThreadSpans& t : threads) {
    for (const Span& s : t.log->spans()) origin = std::min(origin, s.start_ns);
  }
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write trace %s\n", path.c_str());
    return;
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t tid = 0; tid < threads.size(); ++tid) {
    out << (first ? "" : ",") << "\n{\"name\":\"thread_name\",\"ph\":\"M\","
        << "\"pid\":1,\"tid\":" << tid << ",\"args\":{\"name\":\""
        << json_escape(threads[tid].thread) << "\"}}";
    first = false;
    for (const Span& s : threads[tid].log->spans()) {
      out << ",\n{\"name\":\"" << kSpanNames[static_cast<std::size_t>(s.kind)]
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << number(static_cast<double>(s.start_ns - origin) / 1e3)
          << ",\"dur\":" << number(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
          << "}";
    }
  }
  out << "\n]}\n";
  std::printf("trace written to %s\n", path.c_str());
}

}  // namespace perfbench
