// Ablation: anomaly-detection threshold rule (the design choice behind
// Table II and §III-G.3's future-work discussion).
//
//  - percentile sweep (paper uses the 98th percentile of training MSE)
//  - MSD (mean + k*std) and MAD rules from the paper's cited prior work [4]
//  - gap-tolerance sweep for the interpolation mitigation (paper: gaps <= 2)
//
// Detection metrics need only one autoencoder fit per client; threshold
// rules are re-applied to the cached training scores.
#include <iostream>

#include "anomaly/filter.hpp"
#include "attack/ddos_injector.hpp"
#include "core/report.hpp"
#include "core/scenario_runner.hpp"
#include "harness.hpp"
#include "metrics/regression.hpp"

using namespace evfl;
using namespace evfl::core;

int main(int argc, char** argv) {
  std::cout << std::unitbuf;  // progress lines reach redirected logs promptly
  ExperimentConfig cfg;
  cfg.threads = 0;  // pool sized to the machine; override with --threads N
  // Ablations compare rules against each other; a reduced study window
  // keeps the sweep fast without changing the ordering (--hours overrides).
  cfg.generator.hours = 2000;
  if (const int rc = bench::apply_overrides(cfg, argc, argv)) return rc;

  std::cout << "=== Ablation: detection threshold rule & mitigation gap ===\n"
            << "config: " << describe(cfg) << "\n\n";

  // One pipeline run fits the autoencoders; we re-threshold afterwards.
  tensor::Rng root(cfg.seed);
  const std::vector<data::TimeSeries> clean =
      datagen::generate_clients(cfg.generator);
  const attack::DdosInjector injector(cfg.ddos);

  struct PerClient {
    data::TimeSeries clean;
    data::TimeSeries attacked;
    std::unique_ptr<anomaly::EvChargingAnomalyFilter> filter;
  };
  std::vector<PerClient> clients;
  for (const data::TimeSeries& series : clean) {
    PerClient pc;
    pc.clean = series;
    tensor::Rng attack_rng = root.split();
    injector.inject(series, pc.attacked, attack_rng);
    tensor::Rng filter_rng = root.split();
    pc.filter = std::make_unique<anomaly::EvChargingAnomalyFilter>(
        cfg.filter, filter_rng);
    const data::TrainTestSplit split =
        data::temporal_split(series, cfg.train_fraction);
    pc.filter->fit(split.train, filter_rng);
    clients.push_back(std::move(pc));
    std::cout << "fitted filter for " << series.name << "\n";
  }
  std::cout << "\n";

  const std::vector<anomaly::ThresholdRule> rules = {
      {anomaly::ThresholdKind::kPercentile, 90.0},
      {anomaly::ThresholdKind::kPercentile, 95.0},
      {anomaly::ThresholdKind::kPercentile, 98.0},  // the paper's rule
      {anomaly::ThresholdKind::kPercentile, 99.0},
      {anomaly::ThresholdKind::kPercentile, 99.5},
      {anomaly::ThresholdKind::kMeanStd, 2.0},
      {anomaly::ThresholdKind::kMeanStd, 3.0},
      {anomaly::ThresholdKind::kMad, 3.0},
      {anomaly::ThresholdKind::kMad, 5.0},
  };

  TableWriter table({"Rule", "Precision", "Recall", "F1", "FPR%"});
  for (const anomaly::ThresholdRule& rule : rules) {
    metrics::ConfusionMatrix total;
    for (PerClient& pc : clients) {
      pc.filter->set_threshold_rule(rule);
      const auto flags = pc.filter->detect(pc.attacked);
      total += metrics::confusion(pc.attacked.labels, flags);
    }
    const metrics::DetectionMetrics m = metrics::from_confusion(total);
    const std::string name = anomaly::to_string(rule.kind) + "(" +
                             fmt(rule.param, 1) + ")" +
                             (rule.kind == anomaly::ThresholdKind::kPercentile &&
                                      rule.param == 98.0
                                  ? " [paper]"
                                  : "");
    table.add_row({name, fmt(m.precision, 3), fmt(m.recall, 3), fmt(m.f1, 3),
                   fmt(m.false_positive_rate * 100.0, 2)});
  }
  table.print(std::cout);

  // Gap-tolerance sweep: quality of mitigation measured directly as how
  // close the repaired series gets to the clean ground truth.
  std::cout << "\n--- mitigation gap-tolerance sweep (restoration error) ---\n";
  TableWriter gap_table({"Gap tolerance", "restoration MAE", "vs attacked MAE"});
  for (std::size_t gap : {0u, 1u, 2u, 4u, 8u}) {
    double restored = 0.0, attacked_err = 0.0;
    for (PerClient& pc : clients) {
      pc.filter->set_threshold_rule(cfg.filter.threshold);
      anomaly::FilterResult result = pc.filter->filter(pc.attacked);
      // Re-merge with this sweep's gap tolerance and re-interpolate from
      // the attacked series.
      const auto segments = anomaly::merge_segments(result.flags, gap);
      std::vector<float> repaired = pc.attacked.values;
      anomaly::interpolate_segments(repaired, segments);
      restored += metrics::mean_absolute_error(pc.clean.values, repaired);
      attacked_err +=
          metrics::mean_absolute_error(pc.clean.values, pc.attacked.values);
    }
    gap_table.add_row({std::to_string(gap) + (gap == 2 ? " [paper]" : ""),
                       fmt(restored / clients.size(), 3),
                       fmt(attacked_err / clients.size(), 3)});
  }
  gap_table.print(std::cout);
  std::cout << "\n(lower restoration MAE = better repair of attack damage)\n";

  // Imputation-method sweep (§III-G.3 future work: "advanced filtering and
  // reconstruction techniques beyond linear interpolation").
  std::cout << "\n--- imputation-method sweep (restoration error) ---\n";
  TableWriter imp_table({"Method", "restoration MAE"});
  for (const anomaly::ImputationMethod method :
       {anomaly::ImputationMethod::kLinear,
        anomaly::ImputationMethod::kSeasonalNaive,
        anomaly::ImputationMethod::kSpline,
        anomaly::ImputationMethod::kModelReconstruction}) {
    double restored = 0.0;
    for (PerClient& pc : clients) {
      pc.filter->set_threshold_rule(cfg.filter.threshold);
      pc.filter->set_imputation({method, 24});
      const anomaly::FilterResult result = pc.filter->filter(pc.attacked);
      restored += metrics::mean_absolute_error(pc.clean.values,
                                               result.filtered.values) /
                  clients.size();
    }
    imp_table.add_row(
        {anomaly::to_string(method) +
             (method == anomaly::ImputationMethod::kLinear ? " [paper]" : ""),
         fmt(restored, 3)});
  }
  imp_table.print(std::cout);
  return 0;
}
