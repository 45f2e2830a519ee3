// Activation functions and their derivatives.  tanh and sigmoid are the
// shared LSTM gates of nn/gates.hpp.
#pragma once

#include <string>

#include "tensor/matrix.hpp"

namespace evfl::nn {

enum class Activation { kLinear, kRelu, kTanh, kSigmoid };

std::string to_string(Activation a);

float apply_activation(Activation a, float x);

/// Derivative expressed in terms of the *output* y = act(x) where possible
/// (tanh, sigmoid) — matches what the layers cache.
float activation_grad_from_output(Activation a, float y);

/// Apply in place over a whole matrix.
void apply_activation(Activation a, tensor::Matrix& m);

}  // namespace evfl::nn
