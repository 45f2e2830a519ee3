// Reproduces Table III: client-specific performance comparison (federated
// vs centralized) on identical filtered data.
#include <iostream>

#include "core/report.hpp"
#include "core/scenario_runner.hpp"
#include "harness.hpp"

using namespace evfl;
using namespace evfl::core;

int main(int argc, char** argv) {
  std::cout << std::unitbuf;  // progress lines reach redirected logs promptly
  ExperimentConfig cfg = bench::shared_pipeline_config();
  if (const int rc = bench::apply_overrides(cfg, argc, argv)) return rc;

  std::cout << "=== Table III: per-client comparison on filtered data ===\n"
            << "config: " << describe(cfg) << "\n\n";

  ScenarioRunner runner(cfg);
  std::cout << "[1/2] training federated clients...\n";
  const ScenarioResult fed = runner.run_federated(DataScenario::kFiltered);
  std::cout << "[2/2] training centralized baseline...\n\n";
  const ScenarioResult central =
      runner.run_centralized(DataScenario::kFiltered);

  TableWriter table({"Client (zone)", "Architecture", "MAE", "RMSE", "R2",
                     "paper MAE", "paper RMSE", "paper R2"});
  for (std::size_t c = 0; c < fed.per_client.size(); ++c) {
    const ClientEvaluation& fe = fed.per_client[c];
    const ClientEvaluation& ce = central.per_client[c];
    const PaperClientRow& pf = kPaperTable3.at(2 * c);
    const PaperClientRow& pc = kPaperTable3.at(2 * c + 1);
    const std::string label =
        "Client " + std::to_string(c + 1) + " (" + fe.zone + ")";
    table.add_row({label, "Federated", fmt(fe.regression.mae),
                   fmt(fe.regression.rmse), fmt(fe.regression.r2),
                   fmt(pf.mae), fmt(pf.rmse), fmt(pf.r2)});
    table.add_row({"", "Centralized", fmt(ce.regression.mae),
                   fmt(ce.regression.rmse), fmt(ce.regression.r2),
                   fmt(pc.mae), fmt(pc.rmse), fmt(pc.r2)});
  }
  table.print(std::cout);

  std::cout << "\n--- shape checks ---\n";
  std::size_t fed_wins = 0;
  for (std::size_t c = 0; c < fed.per_client.size(); ++c) {
    const bool win = fed.per_client[c].regression.r2 >
                     central.per_client[c].regression.r2;
    fed_wins += win;
    std::cout << "zone " << fed.per_client[c].zone << ": federated "
              << (win ? "WINS" : "loses") << " (R2 "
              << fmt(fed.per_client[c].regression.r2, 3) << " vs "
              << fmt(central.per_client[c].regression.r2, 3) << ")\n";
  }
  std::cout << "federated wins " << fed_wins << "/3 clients (paper: 3/3)\n";

  // The paper notes the centralized model is most inconsistent at zone 108.
  double worst_r2 = 1.0;
  std::string worst_zone;
  for (const ClientEvaluation& ev : central.per_client) {
    if (ev.regression.r2 < worst_r2) {
      worst_r2 = ev.regression.r2;
      worst_zone = ev.zone;
    }
  }
  std::cout << "centralized worst client: zone " << worst_zone
            << " (paper: zone 108)\n";
  return 0;
}
