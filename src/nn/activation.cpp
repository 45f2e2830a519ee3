#include "nn/activation.hpp"

#include "common/error.hpp"
#include "nn/gates.hpp"

namespace evfl::nn {

std::string to_string(Activation a) {
  switch (a) {
    case Activation::kLinear: return "linear";
    case Activation::kRelu: return "relu";
    case Activation::kTanh: return "tanh";
    case Activation::kSigmoid: return "sigmoid";
  }
  return "?";
}

float apply_activation(Activation a, float x) {
  switch (a) {
    case Activation::kLinear: return x;
    case Activation::kRelu: return x > 0.0f ? x : 0.0f;
    case Activation::kTanh: return tanh_gate(x);
    case Activation::kSigmoid: return sigmoid_gate(x);
  }
  EVFL_ASSERT(false, "unknown activation");
  return 0.0f;
}

float activation_grad_from_output(Activation a, float y) {
  switch (a) {
    case Activation::kLinear: return 1.0f;
    case Activation::kRelu: return y > 0.0f ? 1.0f : 0.0f;
    case Activation::kTanh: return 1.0f - y * y;
    case Activation::kSigmoid: return y * (1.0f - y);
  }
  EVFL_ASSERT(false, "unknown activation");
  return 0.0f;
}

void apply_activation(Activation a, tensor::Matrix& m) {
  float* p = m.data();
  if (a == Activation::kLinear) return;
  if (a == Activation::kTanh) return tanh_gates(p, m.size());
  if (a == Activation::kSigmoid) return sigmoid_gates(p, m.size());
  for (std::size_t i = 0; i < m.size(); ++i) p[i] = apply_activation(a, p[i]);
}

}  // namespace evfl::nn
