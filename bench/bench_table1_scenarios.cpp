// Reproduces Table I: complete performance comparison for Client 1 across
// the four experimental scenarios (§III-A), plus the in-text training-time
// consistency and recovery claims (§III-B/C/F).
//
// Usage: bench_table1_scenarios [--rounds N] [--epochs N] [--hours N] ...
// Defaults are the paper's hyperparameters; see core/config.hpp.
#include <iostream>

#include "core/report.hpp"
#include "core/scenario_runner.hpp"
#include "data/csv.hpp"
#include "harness.hpp"

using namespace evfl;
using namespace evfl::core;

int main(int argc, char** argv) {
  std::cout << std::unitbuf;  // progress lines reach redirected logs promptly
  ExperimentConfig cfg = bench::shared_pipeline_config();
  if (const int rc = bench::apply_overrides(cfg, argc, argv)) return rc;
  // Telemetry defaults to build/artifacts/ so CI can pick it up; pass
  // --trace-out / --metrics-json to redirect.
  if (cfg.trace_out.empty()) {
    cfg.trace_out = data::artifact_path("table1_trace.jsonl");
  }
  if (cfg.metrics_json.empty()) {
    cfg.metrics_json = data::artifact_path("table1_metrics.json");
  }

  std::cout << "=== Table I: complete performance comparison (Client 1, zone 102) ===\n"
            << "config: " << describe(cfg) << "\n\n";

  ScenarioRunner runner(cfg);
  std::cout << "[pipeline] generating zones, injecting DDoS, fitting anomaly "
               "filters...\n";
  const std::vector<ClientData>& clients = runner.clients();
  for (const ClientData& cd : clients) {
    std::cout << "  zone " << cd.zone << ": " << cd.injection.points_attacked
              << " attacked points in " << cd.injection.bursts
              << " bursts (mean x" << fmt(cd.injection.mean_multiplier, 2)
              << "), filter fit " << fmt(cd.filter_fit_seconds, 1) << "s\n";
  }
  std::cout << "\n";

  const ScenarioResult fed_clean = runner.run_federated(DataScenario::kClean);
  std::cout << "[1/4] federated on clean data done ("
            << fmt(fed_clean.train_seconds, 1) << "s parallel)\n";
  const ScenarioResult fed_attacked =
      runner.run_federated(DataScenario::kAttacked);
  std::cout << "[2/4] federated on attacked data done ("
            << fmt(fed_attacked.train_seconds, 1) << "s parallel)\n";
  const ScenarioResult fed_filtered =
      runner.run_federated(DataScenario::kFiltered);
  std::cout << "[3/4] federated on filtered data done ("
            << fmt(fed_filtered.train_seconds, 1) << "s parallel)\n";
  const ScenarioResult central_filtered =
      runner.run_centralized(DataScenario::kFiltered);
  std::cout << "[4/4] centralized on filtered data done ("
            << fmt(central_filtered.train_seconds, 1) << "s)\n\n";

  const std::vector<const ScenarioResult*> results = {
      &fed_clean, &fed_attacked, &fed_filtered, &central_filtered};

  TableWriter table({"Scenario", "Architecture", "MAE", "RMSE", "R2",
                     "Time(s)", "paper MAE", "paper RMSE", "paper R2",
                     "paper Time"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = *results[i];
    const ClientEvaluation& ev = r.per_client.at(0);  // Client 1 = zone 102
    const PaperScenarioRow& p = kPaperTable1.at(i);
    table.add_row({to_string(r.scenario), r.architecture,
                   fmt(ev.regression.mae), fmt(ev.regression.rmse),
                   fmt(ev.regression.r2), fmt(r.train_seconds, 2),
                   fmt(p.mae), fmt(p.rmse), fmt(p.r2), fmt(p.time_s, 2)});
  }
  table.print(std::cout);

  const double r2_clean = fed_clean.per_client[0].regression.r2;
  const double r2_attacked = fed_attacked.per_client[0].regression.r2;
  const double r2_filtered = fed_filtered.per_client[0].regression.r2;
  const double r2_central = central_filtered.per_client[0].regression.r2;

  std::cout << "\n--- headline claims (Client 1) ---\n";
  std::cout << "attack degradation (R2 drop):        measured "
            << fmt((r2_clean - r2_attacked) / r2_clean * 100.0, 1)
            << "%   (paper 4.0%)\n";
  std::cout << "recovery of attack-induced loss:     measured "
            << fmt(recovery_percent(r2_clean, r2_attacked, r2_filtered), 1)
            << "%   (paper " << kPaperRecoveryPercent << "%)\n";
  std::cout << "federated R2 gain over centralized:  measured "
            << fmt((r2_filtered - r2_central) / r2_central * 100.0, 1)
            << "%   (paper " << kPaperFederatedR2Gain << "%)\n";
  const double speedup = (central_filtered.train_seconds -
                          fed_filtered.train_seconds) /
                         central_filtered.train_seconds * 100.0;
  std::cout << "federated training time reduction:   measured "
            << fmt(speedup, 1) << "%   (paper " << kPaperTrainingSpeedup
            << "%)\n";
  std::cout << "federated time consistency (s):      clean "
            << fmt(fed_clean.train_seconds, 1) << " / attacked "
            << fmt(fed_attacked.train_seconds, 1) << " / filtered "
            << fmt(fed_filtered.train_seconds, 1)
            << "   (paper 80.8 / 80.3 / 85.9)\n";

  std::cout << "\n--- communication (federated, filtered run) ---\n"
            << "messages: " << fed_filtered.network.messages_sent
            << ", bytes: " << fed_filtered.network.bytes_sent
            << " (weights only; raw data never leaves a client)\n";

  const std::string metrics_path = runner.write_metrics_json();
  std::cout << "\n--- telemetry ---\n"
            << "rounds recorded: " << runner.round_telemetry().size()
            << ", round wall p50/p95/p99 (s): "
            << fmt(runner.round_telemetry().round_seconds_quantile(0.50), 4)
            << " / "
            << fmt(runner.round_telemetry().round_seconds_quantile(0.95), 4)
            << " / "
            << fmt(runner.round_telemetry().round_seconds_quantile(0.99), 4)
            << "\n"
            << "trace:   " << cfg.trace_out << "\n"
            << "metrics: " << metrics_path << "\n";
  return 0;
}
