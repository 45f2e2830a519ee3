// Baselines comparison: the paper's introduction motivates LSTM forecasting
// over "traditional statistical models [ARIMA] ... and traditional neural
// networks" (§I, refs [2] and [3]).  This bench quantifies that motivation
// on our data: per-client one-step-ahead accuracy of persistence,
// seasonal-naive, seasonal-AR (the ARIMA-family baseline), an MLP (ref [2]'s
// architecture class), and the paper's locally-trained LSTM.
//
// Runs at a reduced scale by default (--hours to change) — this compares
// model families against each other, not against the paper's absolutes.
#include <iostream>

#include "core/report.hpp"
#include "core/scenario_runner.hpp"
#include "forecast/baselines.hpp"
#include "harness.hpp"

using namespace evfl;
using namespace evfl::core;

int main(int argc, char** argv) {
  std::cout << std::unitbuf;
  ExperimentConfig cfg;
  cfg.threads = 0;  // pool sized to the machine; override with --threads N
  cfg.generator.hours = 2000;
  cfg.forecaster.lstm_units = 32;
  cfg.federated_rounds = 3;
  if (const int rc = bench::apply_overrides(cfg, argc, argv)) return rc;

  std::cout << "=== Baselines: classical models vs LSTM (clean data) ===\n"
            << "config: " << describe(cfg) << "\n\n";

  const std::vector<data::TimeSeries> zones =
      datagen::generate_clients(cfg.generator);

  TableWriter table({"Zone", "Model", "MAE", "RMSE", "R2"});
  for (const data::TimeSeries& zone : zones) {
    const std::size_t split = static_cast<std::size_t>(
        static_cast<double>(zone.size()) * cfg.train_fraction);
    const std::vector<float> train(zone.values.begin(),
                                   zone.values.begin() + split);
    const std::vector<float> actual(zone.values.begin() + split,
                                    zone.values.end());

    for (auto& baseline : forecast::make_all_baselines(24)) {
      baseline->fit(train);
      const std::vector<float> pred = baseline->predict(zone.values, split);
      const metrics::RegressionMetrics m =
          metrics::evaluate_regression(actual, pred);
      table.add_row({zone.name, baseline->name(), fmt(m.mae, 3),
                     fmt(m.rmse, 3), fmt(m.r2, 4)});
    }
  }

  // The LSTM reference: federated local models on clean data.
  ScenarioRunner runner(cfg);
  const ScenarioResult fed = runner.run_federated(DataScenario::kClean);
  for (const ClientEvaluation& ev : fed.per_client) {
    table.add_row({"zone-" + ev.zone, "federated LSTM",
                   fmt(ev.regression.mae, 3), fmt(ev.regression.rmse, 3),
                   fmt(ev.regression.r2, 4)});
  }
  table.print(std::cout);

  std::cout << "\nExpected shape (the paper's motivation): LSTM and "
               "seasonal-AR lead; persistence trails badly; the MLP sits "
               "between (no recurrence, same lookback).\n";
  return 0;
}
