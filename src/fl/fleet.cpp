#include "fl/fleet.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

#include "common/error.hpp"
#include "data/scaler.hpp"
#include "data/window.hpp"
#include "fl/round_recorder.hpp"
#include "fl/serialize.hpp"

namespace evfl::fl {

namespace {

/// Salt separating a leaf's model/shuffle RNG stream from its data stream
/// (both derive from the spec's series_seed, so a leaf re-materialized in a
/// later round trains identically).
constexpr std::uint64_t kLeafModelSalt = 0xBF58476D1CE4E5B9ull;

}  // namespace

FleetDriver::FleetDriver(Aggregator& root,
                         std::vector<datagen::ClientSpec> fleet,
                         ModelFactory factory, FleetDriverConfig cfg,
                         const runtime::RunContext* ctx,
                         const faults::FaultInjector* injector,
                         obs::RoundTelemetrySink* telemetry)
    : root_(&root),
      fleet_(std::move(fleet)),
      factory_(std::move(factory)),
      cfg_(cfg),
      ctx_(ctx),
      injector_(injector),
      telemetry_(telemetry) {
  EVFL_REQUIRE(!fleet_.empty(), "FleetDriver: empty fleet");
  EVFL_REQUIRE(cfg_.edges >= 1, "FleetDriver: need at least one edge");
  EVFL_REQUIRE(cfg_.lookback >= 1 && cfg_.lookback < 48,
               "FleetDriver: lookback must fit the shortest series (48h)");

  const std::size_t leaves = fleet_.size();
  const std::size_t edge_count = std::min(cfg_.edges, leaves);

  // Edge codecs: the shard-facing broadcast reuses the root's downlink codec
  // (so every tier broadcasts the same way), while the edge->root uplink
  // reuses the leaves' upload codec.  Both default to kDense == exact.
  edges_.reserve(edge_count);
  for (std::size_t e = 0; e < edge_count; ++e) {
    edges_.push_back(std::make_unique<EdgeAggregator>(
        edge_node_id(e), root_->weights(), cfg_.fedavg, cfg_.edge_validator,
        root_->codec(), cfg_.client.codec));
  }

  // Contiguous block shards: leaf i belongs to edge i*E/L.  The partition
  // depends only on (i, E, L), so the same fleet re-shards deterministically.
  shard_of_.resize(leaves);
  ids_.resize(leaves);
  for (std::size_t i = 0; i < leaves; ++i) {
    shard_of_[i] = i * edge_count / leaves;
    ids_[i] = fleet_[i].id;
  }
}

FederatedRunResult FleetDriver::run(std::size_t rounds) {
  const auto run_start = std::chrono::steady_clock::now();
  const std::size_t leaves = fleet_.size();
  const std::size_t edge_count = edges_.size();
  const std::size_t dim = root_->weights().size();
  const std::uint64_t logical_msg = dense_message_bytes(dim);
  obs::TraceWriter* trace = ctx_ != nullptr ? ctx_->trace : nullptr;
  const RoundHooks hooks{injector_, cfg_.adversary, trace};

  FederatedRunResult result;
  result.rounds.reserve(rounds);

  // One mutex per edge: leaf tasks of the same shard serialize only their
  // offer() call; training runs fully parallel.
  std::unique_ptr<std::mutex[]> edge_mutex(new std::mutex[edge_count]);

  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint32_t round_no = root_->round();
    const std::vector<std::size_t> sampled =
        select_sampled(cfg_.sampling, round_no, ids_);
    RoundRecorder recorder(ctx_, round_no, leaves, sampled.size());
    RoundMetrics rm;

    // --- tier 1: root -> edges -----------------------------------------
    std::vector<char> edge_alive(edge_count, 1);
    for (std::size_t e = 0; e < edge_count; ++e) {
      if (injector_ != nullptr &&
          injector_->should_crash(edge_node_id(e), round_no)) {
        edge_alive[e] = 0;  // this shard goes dark for the whole round
      }
    }

    const std::vector<std::uint8_t>& root_wire = root_->broadcast_wire();
    RoundBytes bytes;
    std::uint64_t messages = 0;
    std::vector<const std::vector<std::uint8_t>*> shard_wire(edge_count,
                                                             nullptr);
    std::vector<GlobalModel> shard_model(edge_count);
    for (std::size_t e = 0; e < edge_count; ++e) {
      if (!edge_alive[e]) continue;
      edges_[e]->begin_round(root_wire);
      bytes.down += root_wire.size();
      bytes.logical_down += logical_msg;
      ++messages;
      // One shared read-only broadcast buffer per shard — every sampled
      // leaf of the shard reads this same buffer and this same decode.
      shard_wire[e] = &edges_[e]->shard_broadcast_wire();
      deserialize_global_into(*shard_wire[e], shard_model[e]);
    }

    // --- tier 2: edges -> sampled leaves -------------------------------
    std::size_t reached = 0;
    for (const std::size_t i : sampled) {
      const std::size_t e = shard_of_[i];
      if (!edge_alive[e]) {
        ++rm.dropped_messages;  // the shard's broadcast never went out
        continue;
      }
      ++reached;
      bytes.down += shard_wire[e]->size();
      bytes.logical_down += logical_msg;
      ++messages;
    }

    std::vector<double> leaf_seconds(sampled.size(), 0.0);
    std::vector<float> leaf_loss(sampled.size(), 0.0f);
    std::vector<std::uint64_t> leaf_up_bytes(sampled.size(), 0);
    std::vector<char> leaf_offered(sampled.size(), 0);

    const auto leaf_task = [&](std::size_t k) {
      const std::size_t i = sampled[k];
      const std::size_t e = shard_of_[i];
      if (!edge_alive[e]) return;  // already counted as dropped
      const datagen::ClientSpec& spec = fleet_[i];
      // Checked before materializing, so a crashed leaf costs nothing.
      if (injector_ != nullptr && injector_->should_crash(spec.id, round_no)) {
        return;  // reached but silent: times out below
      }

      // Lazy materialization: series -> scaler -> windows -> model live
      // only inside this task, so peak memory tracks the worker-pool
      // width, not the fleet size.
      data::TimeSeries series = datagen::materialize_series(spec);
      data::MinMaxScaler scaler;
      scaler.fit(series.values);
      const std::vector<float> scaled = scaler.transform(series.values);
      data::SequenceDataset ds =
          data::make_forecast_sequences(scaled, cfg_.lookback);
      // Data poisoning happens on the freshly materialized training set, so
      // the poisoned update flows through the *real* training path.
      if (cfg_.adversary != nullptr) {
        cfg_.adversary->poison_labels(spec.id, round_no, ds.x, ds.y);
      }
      tensor::Rng rng(spec.series_seed ^ kLeafModelSalt);
      Client client(spec.id, std::move(ds.x), std::move(ds.y), factory_,
                    cfg_.client, std::move(rng));
      if (ctx_ != nullptr) ctx_->count("fleet.clients_materialized");

      const RoundLeg leg = client.run_leg(shard_model[e], hooks);
      leaf_seconds[k] = client.train_seconds(shard_model[e].round);
      leaf_loss[k] = leg.update.train_loss;
      // Straggler delay is virtual time, as in SyncDriver.
      if (leaf_seconds[k] * 1e3 + leg.delay_ms > cfg_.round_deadline_ms) {
        return;  // straggler: too late
      }
      // A leaf lives for one round, so it has no earlier upload to replay.
      client.upload(leg.update, shard_model[e].weights, hooks,
                    [&](const std::vector<std::uint8_t>& wire) {
                      leaf_up_bytes[k] = wire.size();
                      WeightUpdate decoded;
                      deserialize_update_into(wire, decoded);
                      std::lock_guard<std::mutex> lock(edge_mutex[e]);
                      edges_[e]->offer(std::move(decoded));
                      return true;
                    });
      leaf_offered[k] = 1;
    };

    if (ctx_ != nullptr && ctx_->parallel()) {
      ctx_->parallel_for(sampled.size(), 1,
                         [&](std::size_t begin, std::size_t end) {
                           for (std::size_t k = begin; k < end; ++k) {
                             leaf_task(k);
                           }
                         });
    } else {
      for (std::size_t k = 0; k < sampled.size(); ++k) leaf_task(k);
    }

    // Deterministic (index-order) reductions after the barrier.
    std::size_t offered = 0;
    double loss_sum = 0.0;
    for (std::size_t k = 0; k < sampled.size(); ++k) {
      if (leaf_offered[k] != 0) {
        ++offered;
        loss_sum += static_cast<double>(leaf_loss[k]);
        bytes.up += leaf_up_bytes[k];
        bytes.logical_up += logical_msg;
        ++messages;
      }
    }
    rm.mean_train_loss =
        offered > 0 ? static_cast<float>(loss_sum / offered) : 0.0f;
    rm.timed_out_clients = reached - offered;

    // --- tier 1 close: edges forward, root aggregates ------------------
    // One audit for the whole tree: leaf-level acceptance from the edges,
    // rejections and clips from every tier, quorum from the root.
    RoundAudit audit;
    const auto add_rejections = [&audit](const RoundAudit& a) {
      audit.rejected_nonfinite += a.rejected_nonfinite;
      audit.rejected_stale += a.rejected_stale;
      audit.rejected_duplicate += a.rejected_duplicate;
      audit.rejected_dimension += a.rejected_dimension;
      audit.clipped += a.clipped;
      audit.clipped_aggregates += a.clipped_aggregates;
    };
    for (std::size_t e = 0; e < edge_count; ++e) {
      if (!edge_alive[e]) continue;
      const std::vector<std::uint8_t>* fw = edges_[e]->forward_wire();
      audit.accepted += edges_[e]->last_audit().accepted;
      add_rejections(edges_[e]->last_audit());
      if (fw == nullptr) continue;  // under per-tier quorum: partial round
      bytes.up += fw->size();
      bytes.logical_up += logical_msg;
      ++messages;
      WeightUpdate up;
      deserialize_update_into(*fw, up);
      root_->offer(std::move(up));
    }
    rm.weight_delta = root_->close_round();
    add_rejections(root_->last_audit());
    audit.quorum_met = root_->last_audit().quorum_met;

    result.network.messages_sent += messages;
    result.network.messages_dropped += rm.dropped_messages;
    result.network.bytes_sent += bytes.down + bytes.up;
    recorder.record_round(rm, audit, std::move(leaf_seconds), bytes,
                          telemetry_, result);
  }

  result.final_weights = root_->weights();
  result.total_seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - run_start)
                             .count();
  if (trace != nullptr) trace->flush();
  return result;
}

}  // namespace evfl::fl
