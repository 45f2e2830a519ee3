#include "fl/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "metrics/timer.hpp"

namespace evfl::fl {

namespace {

/// Budget-bounded retry-with-backoff receive: waits ramp geometrically to
/// the per-attempt ceiling and then keep retrying at that ceiling until the
/// full `opts.receive_timeout_ms` budget is spent.  The budget — not the
/// backoff ramp — decides when the client gives up, so a server that
/// legitimately holds a round open until its deadline is waited out rather
/// than abandoned.
std::optional<Message> receive_with_backoff(InMemoryNetwork& net, int node,
                                            const ServeOptions& opts) {
  double budget_ms = opts.receive_timeout_ms;
  for (std::size_t attempt = 0; budget_ms > 0.0; ++attempt) {
    const double wait =
        std::min(runtime::backoff_wait_ms(opts.backoff, attempt), budget_ms);
    if (wait <= 0.0) break;
    if (std::optional<Message> msg = net.receive(node, wait)) return msg;
    budget_ms -= wait;
  }
  return std::nullopt;
}

}  // namespace

Client::Client(int id, tensor::Tensor3 x_train, tensor::Tensor3 y_train,
               const ModelFactory& factory, ClientConfig cfg, tensor::Rng rng)
    : id_(id),
      cfg_(cfg),
      x_(std::move(x_train)),
      y_(std::move(y_train)),
      rng_(std::move(rng)),
      model_(factory(rng_)),
      optimizer_(cfg.learning_rate),
      encoder_(cfg.codec) {
  EVFL_REQUIRE(x_.batch() == y_.batch(), "client data x/y mismatch");
  EVFL_REQUIRE(x_.batch() > 0, "client has no training data");
  EVFL_REQUIRE(model_.weight_count() > 0,
               "model factory must build layers eagerly");
}

WeightUpdate Client::train_round(const GlobalModel& global) {
  const metrics::WallTimer timer;
  model_.set_weights(global.weights);

  nn::Trainer trainer(model_, loss_, optimizer_, rng_);
  nn::FitConfig fit;
  fit.epochs = cfg_.epochs_per_round;
  fit.batch_size = cfg_.batch_size;
  const nn::FitHistory hist = trainer.fit(x_, y_, fit);
  last_train_seconds_.store(timer.seconds(), std::memory_order_relaxed);
  last_train_round_.store(global.round, std::memory_order_release);

  WeightUpdate update;
  update.client_id = id_;
  update.round = global.round;
  update.sample_count = sample_count();
  update.weights = model_.get_weights();
  update.train_loss = hist.train_loss.empty() ? 0.0f : hist.train_loss.back();
  return update;
}

const std::vector<std::uint8_t>& Client::encode_update(
    const WeightUpdate& update, const std::vector<float>& reference) {
  encoder_.encode(update, reference, wire_buf_);
  return wire_buf_;
}

RoundLeg Client::run_leg(const GlobalModel& global, const RoundHooks& hooks) {
  obs::TraceSpan train_span(hooks.trace, "fl.client_train", "fl");
  train_span.annotate("client", static_cast<std::uint64_t>(id_));
  train_span.annotate("round", static_cast<std::uint64_t>(global.round));
  RoundLeg leg{train_round(global), 0.0};
  train_span.end();
  // An attacker client poisons its own update before anything else touches
  // it — upstream of scripted corruption and of encoding, exactly where a
  // compromised client controls the pipeline.
  if (hooks.adversary != nullptr) {
    hooks.adversary->poison_update(leg.update, global.weights);
  }
  if (hooks.injector != nullptr) {
    hooks.injector->corrupt_update(leg.update);
    leg.delay_ms = hooks.injector->straggler_delay_ms(id_, global.round);
  }
  return leg;
}

void Client::serve(InMemoryNetwork& net, std::size_t rounds,
                   ServeOptions opts) {
  for (std::size_t r = 0; r < rounds; ++r) {
    std::optional<Message> msg = receive_with_backoff(net, id_, opts);
    if (!msg) return;  // retry budget exhausted: server went away
    deserialize_global_into(msg->payload(), global_scratch_);
    const GlobalModel& global = global_scratch_;
    if (global.round == kShutdownRound) return;  // server finished its rounds

    // Crash-before-update: the client received the broadcast but dies
    // before contributing — the server must time it out, not hang.
    if (opts.hooks.injector != nullptr &&
        opts.hooks.injector->should_crash(id_, global.round)) {
      return;
    }

    const RoundLeg leg = run_leg(global, opts.hooks);
    // A straggler really is late here: the server's deadline is wall-clock.
    if (leg.delay_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(leg.delay_ms));
    }
    // Encode against the broadcast as *this client decoded it* — under a
    // lossy downlink that is the server's delta reference too.
    upload(leg.update, global.weights, opts.hooks,
           [&](const std::vector<std::uint8_t>& bytes) {
             return net.send(Message{id_, kServerNode, bytes});
           });
  }
}

}  // namespace evfl::fl
