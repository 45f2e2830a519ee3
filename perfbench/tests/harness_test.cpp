// Self-test of the benchmark harness's own arithmetic (src/harness.hpp):
// percentile choice, open-loop due times and lateness, span self time and
// coverage.  Exits nonzero on the first failed expectation.
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "harness_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

void test_supported_percentile() {
  EXPECT(supported_percentile(0) == 0.0);
  EXPECT(supported_percentile(19) == 0.0);
  EXPECT(supported_percentile(20) == 50.0);
  EXPECT(supported_percentile(99) == 50.0);
  EXPECT(supported_percentile(100) == 90.0);
  EXPECT(supported_percentile(999) == 90.0);
  EXPECT(supported_percentile(1000) == 99.0);  // exactly ten beyond p99
  EXPECT(supported_percentile(9999) == 99.0);
  EXPECT(supported_percentile(10000) == 99.9);
  EXPECT(supported_percentile(100000) == 99.99);
}

void test_quantile() {
  EXPECT(quantile({}, 0.5) == 0.0);
  EXPECT(near(quantile({5, 1, 4, 2, 3}, 0.5), 3.0));
  EXPECT(near(quantile({5, 1, 4, 2, 3}, 0.25), 2.0));
  EXPECT(near(quantile({1, 2}, 0.5), 1.5));
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(100 - i);
  EXPECT(near(quantile(v, 0.99), 99.0));
  EXPECT(near(median({7}), 7.0));
}

void test_open_loop() {
  OpenLoop ol;
  ol.start_ns = 1'000'000;
  ol.period_ns = 1e9 / 3.0;  // a period that is not a whole nanosecond
  EXPECT(ol.due_ns(0) == 1'000'000);
  EXPECT(ol.due_ns(3) == 1'001'000'000);  // no drift over whole seconds
  EXPECT(ol.due_ns(1) == 1'000'000 + 333'333'333);

  // A generator stalled 12 ms at tick 2 of a 4 ms schedule: ticks 2-4
  // all go out at the end of the stall, tick 5 on time.
  OpenLoop q;
  q.start_ns = 0;
  q.period_ns = 4e6;
  const std::int64_t emitted[] = {0, 4'000'000, 20'000'000, 20'000'000,
                                  20'000'000, 20'000'000};
  const std::int64_t late[] = {0, 0, 12'000'000, 8'000'000, 4'000'000, 0};
  for (std::uint64_t k = 0; k < 6; ++k) {
    EXPECT(q.lateness_ns(k, emitted[k]) == late[k]);
    // A result 1 ms after emission is late by the stall plus 1 ms.
    EXPECT(q.latency_ns(k, emitted[k] + 1'000'000) == late[k] + 1'000'000);
  }
  EXPECT(q.lateness_ns(1, 3'000'000) == 0);  // early is not negative
}

void test_self_time() {
  SpanLog log;
  const std::int32_t root = log.open(SpanKind::kFlush, 0);
  log.add(SpanKind::kIngest, 10, 30);
  log.add(SpanKind::kIngest, 20, 50);  // overlaps the first child
  const std::int32_t mid = log.open(SpanKind::kDrain, 60);
  log.close(mid, 80);
  log.add(SpanKind::kIngest, 90, 120);  // runs past its parent's end
  log.close(root, 100);
  const std::int32_t other = log.open(SpanKind::kFlRound, 150);
  log.close(other, 200);

  const std::vector<Span>& s = log.spans();
  EXPECT(s.size() == 6);
  EXPECT(s[1].parent == root && s[3].parent == root && s[4].parent == root);
  EXPECT(s[5].parent == -1);
  const std::vector<std::int64_t> self = self_times(s);
  // Children cover [10,50) + [60,80) + [90,100) = 70 of the root's 100.
  EXPECT(self[0] == 30);
  EXPECT(self[1] == 20 && self[2] == 30 && self[3] == 20 && self[4] == 30);
  EXPECT(self[5] == 50);
  EXPECT(near(span_coverage(s, 0, 200), 0.75));
  EXPECT(near(span_coverage(s, 50, 150), 0.5));
  EXPECT(covered_ns(s, 50, 150) == 50);
  EXPECT(span_coverage(s, 10, 10) == 0.0);
  EXPECT(union_length({{0, 10}, {5, 15}, {20, 25}, {30, 30}}) == 20);
}

}  // namespace

int main() {
  test_supported_percentile();
  test_quantile();
  test_open_loop();
  test_self_time();
  if (failures == 0) std::printf("harness self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
