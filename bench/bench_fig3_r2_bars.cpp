// Reproduces Fig. 3: comparison of R² for federated vs centralized LSTM on
// filtered data — the figure's bar values per client, printed and dumped to
// CSV for plotting.
#include <fstream>
#include <iostream>

#include "data/csv.hpp"
#include "core/report.hpp"
#include "core/scenario_runner.hpp"
#include "harness.hpp"

using namespace evfl;
using namespace evfl::core;

int main(int argc, char** argv) {
  std::cout << std::unitbuf;  // progress lines reach redirected logs promptly
  ExperimentConfig cfg = bench::shared_pipeline_config();
  const std::string out_path = data::artifact_path("fig3_r2_bars.csv");
  if (const int rc = bench::apply_overrides(cfg, argc, argv)) return rc;

  std::cout << "=== Fig. 3: R2, federated vs centralized (filtered data) ===\n"
            << "config: " << describe(cfg) << "\n\n";

  ScenarioRunner runner(cfg);
  const ScenarioResult fed = runner.run_federated(DataScenario::kFiltered);
  const ScenarioResult central =
      runner.run_centralized(DataScenario::kFiltered);

  // Paper bar values from Table III.
  const double paper_fed[] = {0.8883, 0.8350, 0.7792};
  const double paper_central[] = {0.7646, 0.7463, 0.6356};

  TableWriter table({"Client (zone)", "Federated R2", "Centralized R2",
                     "paper Fed", "paper Central"});
  std::ofstream csv(out_path);
  csv << "client,zone,federated_r2,centralized_r2\n";
  for (std::size_t c = 0; c < fed.per_client.size(); ++c) {
    const ClientEvaluation& fe = fed.per_client[c];
    const ClientEvaluation& ce = central.per_client[c];
    table.add_row({"Client " + std::to_string(c + 1) + " (" + fe.zone + ")",
                   fmt(fe.regression.r2), fmt(ce.regression.r2),
                   fmt(paper_fed[c]), fmt(paper_central[c])});
    csv << (c + 1) << "," << fe.zone << "," << fe.regression.r2 << ","
        << ce.regression.r2 << "\n";
  }
  table.print(std::cout);
  std::cout << "\nbar values written to " << out_path << "\n";

  double fed_mean = 0.0, central_mean = 0.0;
  for (std::size_t c = 0; c < fed.per_client.size(); ++c) {
    fed_mean += fed.per_client[c].regression.r2 / 3.0;
    central_mean += central.per_client[c].regression.r2 / 3.0;
  }
  std::cout << "mean R2: federated " << fmt(fed_mean, 4) << " vs centralized "
            << fmt(central_mean, 4) << " -> federated advantage "
            << fmt((fed_mean - central_mean) / central_mean * 100.0, 1)
            << "% (paper reports +15.2% for Client 1)\n";
  return 0;
}
