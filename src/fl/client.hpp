// Federated client: owns a private local dataset and a local model replica.
// The only artefacts that ever leave it are serialized WeightUpdate
// messages; training data is deliberately inaccessible from outside.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <utility>

#include "faults/fault_injector.hpp"
#include "fl/adversary.hpp"
#include "fl/codec.hpp"
#include "fl/network.hpp"
#include "fl/serialize.hpp"
#include "fl/weights.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "obs/trace.hpp"
#include "runtime/backoff.hpp"

namespace evfl::fl {

/// Builds an eagerly-initialized model (all layer shapes fixed) so weight
/// vectors are well-defined before the first forward pass.
using ModelFactory = std::function<nn::Sequential(tensor::Rng&)>;

struct ClientConfig {
  std::size_t epochs_per_round = 10;   // paper: EPOCHS_PER_ROUND = 10
  std::size_t batch_size = 32;
  float learning_rate = 1e-3f;
  /// Wire codec for this client's uploads (kDense = uncompressed fp32).
  CodecConfig codec{};
};

/// What one client's round is subject to besides its own training, the
/// same for every driver.  All optional and non-owning.
struct RoundHooks {
  /// Scripted faults: straggler delay, update corruption, stale replay.
  /// (Crashes are the driver's to check: a crashed client never starts its
  /// leg.)
  const faults::FaultInjector* injector = nullptr;
  /// Adaptive adversary: attacker clients poison their update after local
  /// training, before corruption and encoding.
  const AdversarySuite* adversary = nullptr;
  /// Each local training pass is recorded as one "fl.client_train" span.
  obs::TraceWriter* trace = nullptr;
};

/// The client's half of one round, before the upload.
struct RoundLeg {
  WeightUpdate update;
  /// Scripted straggler delay; the driver decides how to spend it (virtual
  /// time against its deadline, or a real sleep).
  double delay_ms = 0.0;
};

/// Knobs for the threaded service loop.
struct ServeOptions {
  /// Total per-round wait budget for the broadcast.  The wait is split into
  /// retry attempts (see `backoff`) so a dropped broadcast costs a short
  /// retry, not one monolithic hang — but the attempts keep coming until
  /// this whole budget is spent.  Must cover the server's
  /// RoundPolicy::round_deadline_ms (120 s default): a round that closes at
  /// the deadline is normal operation, not a dead server.  ThreadedDriver
  /// raises it automatically when handed a larger deadline.
  double receive_timeout_ms = 150'000.0;
  runtime::BackoffPolicy backoff{};
  RoundHooks hooks{};
};

class Client {
 public:
  Client(int id, tensor::Tensor3 x_train, tensor::Tensor3 y_train,
         const ModelFactory& factory, ClientConfig cfg, tensor::Rng rng);

  int id() const { return id_; }
  std::size_t sample_count() const { return x_.batch(); }

  /// Adopt the broadcast global weights, run local epochs, return the update.
  WeightUpdate train_round(const GlobalModel& global);

  /// Encode `update` for the wire under the configured codec, against the
  /// broadcast weights this client decoded (`reference`).  Returns an
  /// internal buffer reused across rounds — steady-state encoding does not
  /// allocate.  Carries the error-feedback residual for lossy codecs.
  const std::vector<std::uint8_t>& encode_update(
      const WeightUpdate& update, const std::vector<float>& reference);

  /// Error-feedback encoder state (diagnostics/tests).
  const UpdateEncoder& encoder() const { return encoder_; }

  /// One round leg, shared by every driver: train on `global` (one
  /// "fl.client_train" span), let an attacker poison the update, apply
  /// scripted corruption.  Returns the update and the scripted straggler
  /// delay.
  RoundLeg run_leg(const GlobalModel& global, const RoundHooks& hooks);

  /// Upload leg: when a stale-replay fault fires, first re-send the bytes
  /// this client kept from its previous upload; then encode `update`
  /// against `reference` (the broadcast this client decoded) and hand the
  /// bytes to `send`, which returns whether they were delivered.  Returns
  /// what `send` returned for the fresh update.
  template <class Send>
  bool upload(const WeightUpdate& update, const std::vector<float>& reference,
              const RoundHooks& hooks, Send&& send) {
    const faults::FaultInjector* inj = hooks.injector;
    if (inj != nullptr && !last_upload_.empty() &&
        inj->should_replay_stale(id_, update.round)) {
      send(last_upload_);
    }
    const bool delivered = send(encode_update(update, reference));
    // Keep these bytes for a later replay.  The swap hands the older buffer
    // back to the encoder, so keeping them costs no copy.
    std::swap(last_upload_, wire_buf_);
    return delivered;
  }

  /// Threaded-mode service loop: for each of `rounds`, wait for a
  /// GlobalModel broadcast on `net` (budget-bounded retry-with-backoff),
  /// run the round leg, sleep the straggler delay, and upload to the server
  /// node.  Exits when the retry budget is exhausted (server gone), a
  /// kShutdownRound broadcast arrives (server finished), or a scripted
  /// crash fault fires.
  void serve(InMemoryNetwork& net, std::size_t rounds, ServeOptions opts);

  /// Local model access (evaluation after training).
  nn::Sequential& model() { return model_; }

  /// Initial local weights (used by the server to seed the global model).
  std::vector<float> initial_weights() { return model_.get_weights(); }

  /// Wall-clock seconds this client spent in train_round for `round` (what
  /// a genuinely distributed deployment would spend on it in parallel); 0
  /// when its latest training belongs to another round — it crashed, lost
  /// the broadcast or is still training.  Atomic: the ThreadedDriver reads
  /// it at round close while the client thread may be training.
  double train_seconds(std::uint32_t round) const {
    if (last_train_round_.load(std::memory_order_acquire) != round) return 0.0;
    return last_train_seconds_.load(std::memory_order_relaxed);
  }

 private:
  int id_;
  ClientConfig cfg_;
  tensor::Tensor3 x_;
  tensor::Tensor3 y_;
  tensor::Rng rng_;
  nn::Sequential model_;
  nn::MseLoss loss_;
  nn::Adam optimizer_;
  UpdateEncoder encoder_;
  std::vector<std::uint8_t> wire_buf_;     // encode_update scratch
  std::vector<std::uint8_t> last_upload_;  // previous upload, for replay
  GlobalModel global_scratch_;  // serve-loop broadcast decode buffer
  std::atomic<double> last_train_seconds_{0.0};
  std::atomic<std::uint32_t> last_train_round_{kShutdownRound};  // none yet
};

}  // namespace evfl::fl
