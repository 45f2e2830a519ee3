#include "harness.hpp"

#include <iostream>

#include "common/error.hpp"
#include "fl/adversary.hpp"
#include "metrics/regression.hpp"
#include "nn/dense.hpp"

namespace evfl::bench {

int argument_error(const std::string& what) {
  std::cerr << "argument error: " << what << "\n";
  return 2;
}

int apply_overrides(core::ExperimentConfig& cfg, int argc, char** argv) {
  try {
    core::apply_cli_overrides(cfg, argc, argv);
  } catch (const Error& e) {
    return argument_error(e.what());
  }
  return 0;
}

core::ExperimentConfig shared_pipeline_config() {
  core::ExperimentConfig cfg;
  cfg.threads = 0;
  cfg.cache_dir = "bench_cache";
  return cfg;
}

int extra_args(int argc, char** argv, const char* expected) {
  if (argc <= 1) return 0;
  return argument_error(std::string("unknown option: ") + argv[1] +
                        " (expected " + expected + ")");
}

std::vector<std::unique_ptr<fl::Client>> linear_fleet(
    int clients, const fl::AdversarySuite* adversary) {
  constexpr std::size_t kSamplesPerClient = 96;
  const fl::ModelFactory factory = [](tensor::Rng& rng) {
    nn::Sequential m;
    m.emplace<nn::Dense>(1, nn::Activation::kLinear, rng, 1);
    return m;
  };
  std::vector<std::unique_ptr<fl::Client>> fleet;
  tensor::Rng root(29);
  for (int c = 0; c < clients; ++c) {
    tensor::Tensor3 x(kSamplesPerClient, 1, 1), y(kSamplesPerClient, 1, 1);
    tensor::Rng data_rng = root.split();
    for (std::size_t i = 0; i < kSamplesPerClient; ++i) {
      const float xi = data_rng.uniform(-1.0f, 1.0f);
      x(i, 0, 0) = xi;
      y(i, 0, 0) = 2.0f * xi + data_rng.normal(0.0f, 0.05f);
    }
    if (adversary != nullptr) adversary->poison_labels(c, 0, x, y);
    fl::ClientConfig cfg;
    cfg.epochs_per_round = 10;
    cfg.learning_rate = 0.05f;
    cfg.batch_size = 16;
    fleet.push_back(
        std::make_unique<fl::Client>(c, x, y, factory, cfg, root.split()));
  }
  return fleet;
}

double linear_holdout_r2(const std::vector<float>& weights) {
  tensor::Rng rng(733);
  std::vector<float> actual, predicted;
  for (int i = 0; i < 512; ++i) {
    const float x = rng.uniform(-1.0f, 1.0f);
    actual.push_back(2.0f * x);
    predicted.push_back(weights[0] * x + weights[1]);
  }
  return metrics::r2_score(actual, predicted);
}

}  // namespace evfl::bench
