#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <filesystem>

namespace evfl::core {
namespace {

/// Shrunk config: real pipeline, toy sizes, so the suite stays fast.
ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.generator.hours = 600;
  cfg.ddos.bursts = 8;
  cfg.filter.autoencoder.window = 12;
  cfg.filter.autoencoder.encoder_units = 10;
  cfg.filter.autoencoder.latent_units = 5;
  cfg.filter.autoencoder.max_epochs = 8;
  cfg.forecaster.sequence_length = 12;
  cfg.forecaster.lstm_units = 8;
  cfg.forecaster.dense_units = 4;
  cfg.federated_rounds = 1;
  cfg.epochs_per_round = 2;
  cfg.seed = 7;
  return cfg;
}

TEST(Pipeline, PreparesThreeLabelledClients) {
  const ExperimentConfig cfg = small_config();
  const std::vector<ClientData> clients = prepare_clients(cfg);
  ASSERT_EQ(clients.size(), 3u);
  EXPECT_EQ(clients[0].zone, "102");
  EXPECT_EQ(clients[1].zone, "105");
  EXPECT_EQ(clients[2].zone, "108");

  for (const ClientData& cd : clients) {
    EXPECT_EQ(cd.clean.size(), 600u);
    EXPECT_EQ(cd.attacked.size(), 600u);
    EXPECT_EQ(cd.filtered.size(), 600u);
    EXPECT_GT(cd.injection.points_attacked, 0u);
    EXPECT_EQ(cd.attacked.anomaly_count(), cd.injection.points_attacked);
    EXPECT_GT(cd.filter_fit_seconds, 0.0);
    EXPECT_EQ(cd.filter_result.flags.size(), 600u);
  }
}

TEST(Pipeline, FilteredDiffersFromAttackedWhereFlagged) {
  const ExperimentConfig cfg = small_config();
  const std::vector<ClientData> clients = prepare_clients(cfg);
  const ClientData& cd = clients[0];
  bool any_repair = false;
  for (std::size_t i = 0; i < cd.attacked.size(); ++i) {
    if (cd.filter_result.flags[i]) {
      any_repair |= cd.filtered.values[i] != cd.attacked.values[i];
    } else {
      // Untouched outside merged segments... the point may still fall in a
      // bridged gap, so only assert the common case loosely.
      continue;
    }
  }
  EXPECT_TRUE(any_repair);
}

TEST(Pipeline, ScenarioSeriesSelection) {
  const ExperimentConfig cfg = small_config();
  const std::vector<ClientData> clients = prepare_clients(cfg);
  const ClientData& cd = clients[1];
  EXPECT_EQ(&scenario_series(cd, DataScenario::kClean), &cd.clean);
  EXPECT_EQ(&scenario_series(cd, DataScenario::kAttacked), &cd.attacked);
  EXPECT_EQ(&scenario_series(cd, DataScenario::kFiltered), &cd.filtered);
}

TEST(Pipeline, WindowScenarioShapesAndSplit) {
  const ExperimentConfig cfg = small_config();
  const std::vector<ClientData> clients = prepare_clients(cfg);
  const PreparedClient pc =
      window_scenario(clients[0], DataScenario::kClean, cfg);

  const std::size_t lookback = cfg.forecaster.sequence_length;
  const std::size_t total = 600 - lookback;
  EXPECT_EQ(pc.train.x.batch() + pc.test.x.batch(), total);
  EXPECT_EQ(pc.train.x.time(), lookback);
  EXPECT_EQ(pc.test.x.features(), 1u);
  EXPECT_EQ(pc.test_actual.size(), pc.test.x.batch());
  // ~80/20 split by construction.
  const double frac =
      static_cast<double>(pc.train.x.batch()) / static_cast<double>(total);
  EXPECT_NEAR(frac, 0.8, 0.03);
  // Scaled training targets live in [0, 1] (scaler fit on train region).
  for (std::size_t i = 0; i < pc.train.y.batch(); ++i) {
    EXPECT_GE(pc.train.y(i, 0, 0), -1e-5f);
    EXPECT_LE(pc.train.y(i, 0, 0), 1.0f + 1e-5f);
  }
}

TEST(Pipeline, TestActualsAreOriginalUnits) {
  const ExperimentConfig cfg = small_config();
  const std::vector<ClientData> clients = prepare_clients(cfg);
  const PreparedClient pc =
      window_scenario(clients[0], DataScenario::kClean, cfg);
  // Test actuals must equal the raw series tail values.
  const std::size_t lookback = cfg.forecaster.sequence_length;
  const std::size_t n_train = pc.train.x.batch();
  for (std::size_t i = 0; i < 5; ++i) {
    const std::size_t src = n_train + i + lookback;
    EXPECT_NEAR(pc.test_actual[i], clients[0].clean.values[src], 1e-2f);
  }
}

TEST(Pipeline, DetectionMetricsComputable) {
  const ExperimentConfig cfg = small_config();
  const std::vector<ClientData> clients = prepare_clients(cfg);
  const metrics::DetectionMetrics m = detection_metrics(clients[0]);
  EXPECT_GE(m.precision, 0.0);
  EXPECT_LE(m.precision, 1.0);
  EXPECT_GE(m.recall, 0.0);
  EXPECT_LE(m.recall, 1.0);
  EXPECT_EQ(m.cm.total(), 600u);
}

TEST(Pipeline, DeterministicForSameSeed) {
  const ExperimentConfig cfg = small_config();
  const auto a = prepare_clients(cfg);
  const auto b = prepare_clients(cfg);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[0].attacked.values, b[0].attacked.values);
  EXPECT_EQ(a[0].filtered.values, b[0].filtered.values);
  EXPECT_EQ(a[0].filter_result.flags, b[0].filter_result.flags);
}

TEST(Pipeline, CacheRoundTripsExactly) {
  ExperimentConfig cfg = small_config();
  cfg.cache_dir = ::testing::TempDir() + "/evfl_cache_test";
  // A cache left by a differently-optimized build (Release vs Debug) holds
  // legitimately different floats; this test is about round-tripping.
  std::filesystem::remove_all(cfg.cache_dir);

  // First call computes and stores; second call must load identical data.
  const auto first = prepare_clients(cfg);
  const auto second = prepare_clients(cfg);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t c = 0; c < first.size(); ++c) {
    EXPECT_EQ(first[c].zone, second[c].zone);
    EXPECT_EQ(first[c].clean.values, second[c].clean.values);
    EXPECT_EQ(first[c].attacked.values, second[c].attacked.values);
    EXPECT_EQ(first[c].attacked.labels, second[c].attacked.labels);
    EXPECT_EQ(first[c].filtered.values, second[c].filtered.values);
    EXPECT_EQ(first[c].filter_result.flags, second[c].filter_result.flags);
    EXPECT_EQ(first[c].filter_result.scores, second[c].filter_result.scores);
    EXPECT_EQ(first[c].injection.points_attacked,
              second[c].injection.points_attacked);
  }
  // And matches an uncached run of the same config.
  ExperimentConfig plain = small_config();
  const auto uncached = prepare_clients(plain);
  EXPECT_EQ(first[0].filtered.values, uncached[0].filtered.values);
}

TEST(Pipeline, CacheKeyedByConfig) {
  ExperimentConfig cfg = small_config();
  cfg.cache_dir = ::testing::TempDir() + "/evfl_cache_test2";
  std::filesystem::remove_all(cfg.cache_dir);
  const auto a = prepare_clients(cfg);

  ExperimentConfig changed = cfg;
  changed.seed = cfg.seed + 1;
  const auto b = prepare_clients(changed);  // must NOT reuse a's cache
  EXPECT_NE(a[0].attacked.values, b[0].attacked.values);

  // The repair method shapes `filtered` only: same attacked input, so a
  // cache keyed without it would hand back a's linear repair.
  ExperimentConfig reimputed = cfg;
  reimputed.filter.imputation.method =
      anomaly::ImputationMethod::kSeasonalNaive;
  const auto c = prepare_clients(reimputed);
  ASSERT_EQ(c.size(), a.size());
  bool filtered_differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].attacked.values, c[i].attacked.values);
    filtered_differs |= a[i].filtered.values != c[i].filtered.values;
  }
  EXPECT_TRUE(filtered_differs);
}

TEST(Pipeline, ScenarioNames) {
  EXPECT_EQ(to_string(DataScenario::kClean), "Clean Data");
  EXPECT_EQ(to_string(DataScenario::kAttacked), "Attacked Data");
  EXPECT_EQ(to_string(DataScenario::kFiltered), "Filtered Data");
}

TEST(Config, CliOverrides) {
  ExperimentConfig cfg;
  const char* argv[] = {"prog", "--seed", "9", "--rounds", "2",
                        "--epochs", "3", "--hours", "500",
                        "--threshold-pct", "95", "--gap-tolerance", "4"};
  apply_cli_overrides(cfg, 13, const_cast<char**>(argv));
  EXPECT_EQ(cfg.seed, 9u);
  EXPECT_EQ(cfg.federated_rounds, 2u);
  EXPECT_EQ(cfg.epochs_per_round, 3u);
  EXPECT_EQ(cfg.generator.hours, 500u);
  EXPECT_DOUBLE_EQ(cfg.filter.threshold.param, 95.0);
  EXPECT_EQ(cfg.filter.gap_tolerance, 4u);
}

TEST(Config, CliRejectsUnknownAndMalformed) {
  ExperimentConfig cfg;
  const char* bad_key[] = {"prog", "--nope", "1"};
  EXPECT_THROW(apply_cli_overrides(cfg, 3, const_cast<char**>(bad_key)),
               Error);
  const char* bad_value[] = {"prog", "--rounds", "banana"};
  EXPECT_THROW(apply_cli_overrides(cfg, 3, const_cast<char**>(bad_value)),
               Error);
  const char* dangling[] = {"prog", "--rounds"};
  EXPECT_THROW(apply_cli_overrides(cfg, 2, const_cast<char**>(dangling)),
               Error);
}

TEST(Config, DescribeMentionsKeyParams) {
  ExperimentConfig cfg;
  const std::string s = describe(cfg);
  EXPECT_NE(s.find("seq=24"), std::string::npos);
  EXPECT_NE(s.find("lstm=50"), std::string::npos);
  EXPECT_NE(s.find("rounds=5"), std::string::npos);
}

}  // namespace
}  // namespace evfl::core
