// perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                  [--source-id ID] [--trace-out FILE]
//
// Runs one benchmark workload and prints, as its last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"} whose metrics
// map names to values: the end-to-end metrics untraced, the per-layer
// metrics traced (run.py attaches the units of BENCHMARK.json).  Exits 1
// when an output check fails and 2 on a usage or runtime error (no result
// line).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "report.hpp"
#include "workloads.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (*end != '\0' || !(a.seconds >= 1.0 && a.seconds <= 600.0)) {
        return false;
      }
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0) {
        return false;
      }
      a.trace = val[0] == '1';
    } else if (key == "--source-id") {
      a.source_id = val;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload stream_fleet|stream_narrow|"
                 "fl_train_serve --seed N --seconds S --trace 0|1 "
                 "[--source-id ID] [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  try {
    perfbench::Result result;
    if (args.workload == "stream_fleet") {
      perfbench::run_stream_workload(args, /*fleet=*/true, result);
    } else if (args.workload == "stream_narrow") {
      perfbench::run_stream_workload(args, /*fleet=*/false, result);
    } else if (args.workload == "fl_train_serve") {
      perfbench::run_fl_workload(args, result);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
      return 2;
    }
    return result.emit(args);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "benchmark error: %s\n", e.what());
    return 2;
  }
}
