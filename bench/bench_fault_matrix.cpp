// Fault-tolerance matrix: sweep crash-fraction x corruption-rate x
// attacker-presence over a federated run and show that forecast quality
// (validation R² of the global model) degrades gracefully — the hardened
// round protocol rejects poisoned updates and times out crashed clients
// instead of hanging or diverging, and a trimmed-mean defense keeps one
// live within-clip-norm (ALIE) attacker from compounding with the faults.
//
// Writes build/artifacts/BENCH_faults.json with one cell per
// (crash_fraction, corruption_rate, attack) triple, plus trace/metrics
// telemetry beside it (override with --trace-out / --metrics-json).
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "data/csv.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "fl/adversary.hpp"
#include "fl/driver.hpp"
#include "harness.hpp"
#include "obs/round_telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/run_context.hpp"

using namespace evfl;
using core::fmt;

namespace {

constexpr int kClients = 6;
constexpr std::size_t kRounds = 8;
constexpr std::uint64_t kFaultSeed = 31;

struct Cell {
  double crash_fraction = 0.0;
  double corruption_rate = 0.0;
  bool attacked = false;
  double r2 = 0.0;
  std::size_t rejected = 0;
  std::size_t timed_out = 0;
  std::size_t accepted = 0;
};

Cell run_cell(double crash_fraction, double corruption_rate, bool attacked,
              const runtime::RunContext* ctx,
              obs::RoundTelemetrySink* telemetry) {
  auto clients = bench::linear_fleet(kClients);

  faults::FaultPlan plan;
  // Crash the first floor(f * n) clients permanently.
  const int crashed = static_cast<int>(crash_fraction * kClients);
  for (int c = 0; c < crashed; ++c) plan.crash(c);
  // Every surviving client's update is independently corrupted with
  // probability corruption_rate each round.
  if (corruption_rate > 0.0) {
    for (int c = crashed; c < kClients; ++c) {
      plan.corrupt(c, faults::CorruptionMode::kNaN, 0, faults::kAllRounds,
                   corruption_rate);
    }
  }
  const faults::FaultInjector injector(plan, kFaultSeed);

  // Attacked cells add one live within-clip-norm ALIE attacker (the last
  // client, which the crash plan never takes) and defend with trimmed mean;
  // the validator alone cannot see a within-norm poison, so the cell shows
  // the robust rule carrying the matrix's graceful-degradation guarantee.
  fl::AdversaryConfig acfg;
  acfg.kind = attacked ? fl::AttackKind::kAlie : fl::AttackKind::kNone;
  acfg.attackers = {kClients - 1};
  acfg.norm_budget = 1.0;
  const fl::AdversarySuite adversary(acfg);

  fl::ValidatorConfig vc;
  vc.max_update_norm = 10.0;
  fl::FedAvgConfig fedavg;
  if (attacked) {
    fedavg.rule = fl::AggregationRule::kTrimmedMean;
    fedavg.trim_fraction = 0.34;
  }
  fl::Server server({0.0f, 0.0f}, fedavg, vc);
  fl::InMemoryNetwork net;
  fl::SyncDriver driver(server, clients, net, ctx, &injector,
                        fl::RoundPolicy{}, telemetry,
                        attacked ? &adversary : nullptr);
  const fl::FederatedRunResult result = driver.run(kRounds);

  Cell cell;
  cell.crash_fraction = crash_fraction;
  cell.corruption_rate = corruption_rate;
  cell.attacked = attacked;
  cell.r2 = bench::linear_holdout_r2(result.final_weights);
  cell.rejected = result.total_rejected_updates();
  cell.timed_out = result.total_timed_out_clients();
  for (const fl::RoundMetrics& r : result.rounds) {
    cell.accepted += r.updates_received;
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << std::unitbuf;

  std::string trace_out = data::artifact_path("faults_trace.jsonl");
  std::string metrics_json = data::artifact_path("faults_metrics.json");
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 < argc && key == "--trace-out") {
      trace_out = argv[i + 1];
    } else if (i + 1 < argc && key == "--metrics-json") {
      metrics_json = argv[i + 1];
    } else {
      return bench::argument_error(
          "bad option: " + key +
          " (expected --trace-out FILE or --metrics-json FILE)");
    }
  }

  obs::TraceWriter trace(trace_out);
  obs::RoundTelemetrySink telemetry;
  runtime::RunContext ctx;
  ctx.trace = &trace;

  const std::vector<double> crash_fractions = {0.0, 1.0 / 6.0, 1.0 / 3.0};
  const std::vector<double> corruption_rates = {0.0, 0.25, 0.5};

  std::cout << "=== fault matrix: crash fraction x corruption rate x attack ==="
            << "\nclients=" << kClients << " rounds=" << kRounds
            << " (SyncDriver, validator: reject non-finite, clip norm 10;\n"
            << " attacked cells: 1 ALIE client, trimmed-mean defense)\n\n"
            << std::left << std::setw(12) << "crash_frac" << std::setw(14)
            << "corrupt_rate" << std::setw(10) << "attack" << std::setw(10)
            << "R2" << std::setw(10) << "accepted" << std::setw(10)
            << "rejected" << std::setw(10) << "timed_out" << "\n";

  std::vector<Cell> cells;
  double r2_clean = 0.0;
  for (const bool attacked : {false, true}) {
    for (const double cf : crash_fractions) {
      for (const double cr : corruption_rates) {
        const Cell cell = run_cell(cf, cr, attacked, &ctx, &telemetry);
        if (cf == 0.0 && cr == 0.0 && !attacked) r2_clean = cell.r2;
        cells.push_back(cell);
        std::cout << std::left << std::setw(12) << fmt(cf, 2) << std::setw(14)
                  << fmt(cr, 2) << std::setw(10)
                  << (attacked ? "alie" : "none") << std::setw(10)
                  << fmt(cell.r2) << std::setw(10) << cell.accepted
                  << std::setw(10) << cell.rejected << std::setw(10)
                  << cell.timed_out << "\n";
      }
    }
  }

  std::cout << "\n--- shape checks ---\n";
  // Trimmed mean holds only while a majority of the *accepted* updates are
  // honest; at corruption rate 0.5 the validator sometimes rejects every
  // honest survivor and the attacker owns the round — no aggregation rule
  // can help there.  So: tight degradation bound in the honest-majority
  // regime, bounded (clip-limited, never divergent) degradation beyond it.
  bool majority_holds = true, bounded_holds = true;
  for (const Cell& c : cells) {
    const bool honest_majority = !c.attacked || c.corruption_rate <= 0.25;
    if (honest_majority && c.r2 < r2_clean - 0.1) majority_holds = false;
    if (!(c.r2 >= 0.25)) bounded_holds = false;  // also catches NaN
  }
  const bool holds = majority_holds && bounded_holds;
  std::cout << "fault-free R2: " << fmt(r2_clean) << "\n"
            << "R2 within 0.1 of fault-free wherever an honest majority "
               "survives: "
            << (majority_holds ? "YES" : "NO") << "\n"
            << "R2 bounded (>= 0.25, finite) even with attacker + majority "
               "corruption: "
            << (bounded_holds ? "YES" : "NO") << "\n";

  const std::string json_path = data::artifact_path("BENCH_faults.json");
  std::ofstream json(json_path);
  json << "{\n  \"clients\": " << kClients << ",\n  \"rounds\": " << kRounds
       << ",\n  \"r2_fault_free\": " << fmt(r2_clean, 6)
       << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    json << "    {\"crash_fraction\": " << fmt(c.crash_fraction, 4)
         << ", \"corruption_rate\": " << fmt(c.corruption_rate, 4)
         << ", \"attack\": \"" << (c.attacked ? "alie" : "none") << "\""
         << ", \"r2\": " << fmt(c.r2, 6) << ", \"accepted\": " << c.accepted
         << ", \"rejected\": " << c.rejected
         << ", \"timed_out\": " << c.timed_out << "}"
         << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "wrote " << json_path << "\n";

  telemetry.write_json_file(metrics_json, {});
  trace.flush();
  std::cout << "telemetry: " << telemetry.size() << " rounds, p50/p95 (s) "
            << fmt(telemetry.round_seconds_quantile(0.50), 5) << " / "
            << fmt(telemetry.round_seconds_quantile(0.95), 5) << "\n"
            << "trace:   " << trace_out << "\n"
            << "metrics: " << metrics_json << "\n";
  return holds ? 0 : 1;
}
