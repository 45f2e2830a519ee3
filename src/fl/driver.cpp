#include "fl/driver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_set>

#include "common/hash.hpp"
#include "fl/round_recorder.hpp"
#include "fl/serialize.hpp"

namespace evfl::fl {

double sampling_hash01(std::uint64_t seed, std::uint32_t round,
                       int client_id) {
  const std::uint64_t id_bits =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(client_id));
  const std::uint64_t h = splitmix64(
      splitmix64(seed ^ (static_cast<std::uint64_t>(round) << 32)) ^ id_bits);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::vector<std::size_t> select_sampled(const SamplingPolicy& policy,
                                        std::uint32_t round,
                                        const std::vector<int>& ids) {
  std::vector<std::size_t> out;
  switch (policy.mode) {
    case SamplingMode::kAll: {
      out.resize(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) out[i] = i;
      return out;
    }
    case SamplingMode::kBernoulli: {
      EVFL_REQUIRE(policy.fraction > 0.0 && policy.fraction <= 1.0,
                   "sampling fraction must be in (0, 1]");
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (sampling_hash01(policy.seed, round, ids[i]) < policy.fraction) {
          out.push_back(i);
        }
      }
      return out;
    }
    case SamplingMode::kFixedSize: {
      EVFL_REQUIRE(policy.count >= 1, "sampling count must be >= 1");
      if (policy.count >= ids.size()) {
        out.resize(ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i) out[i] = i;
        return out;
      }
      // Rank every client by its hash (ties by id) and keep the smallest
      // `count` — a deterministic uniform cohort independent of ordering.
      std::vector<std::size_t> ranked(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) ranked[i] = i;
      std::vector<double> keys(ids.size());
      for (std::size_t i = 0; i < ids.size(); ++i) {
        keys[i] = sampling_hash01(policy.seed, round, ids[i]);
      }
      std::nth_element(ranked.begin(), ranked.begin() + policy.count,
                       ranked.end(),
                       [&](std::size_t a, std::size_t b) {
                         return keys[a] != keys[b] ? keys[a] < keys[b]
                                                   : ids[a] < ids[b];
                       });
      out.assign(ranked.begin(), ranked.begin() + policy.count);
      std::sort(out.begin(), out.end());
      return out;
    }
  }
  return out;  // unreachable
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Diagnostic mean training loss over the round's raw arrivals (corrupted
/// or stale arrivals included — it is a health signal, not an input to
/// aggregation).
float mean_loss(const std::vector<WeightUpdate>& raw) {
  if (raw.empty()) return 0.0f;
  double acc = 0.0;
  for (const WeightUpdate& u : raw) acc += u.train_loss;
  return static_cast<float>(acc / raw.size());
}

/// Distinct clients that contributed a *current-round* update.  A stale
/// replay or leftover straggler message is not a contribution: that client
/// still timed out on this round.
std::size_t distinct_fresh_senders(const std::vector<WeightUpdate>& raw,
                                   std::uint32_t round) {
  std::unordered_set<int> ids;
  for (const WeightUpdate& u : raw) {
    if (u.round == round) ids.insert(u.client_id);
  }
  return ids.size();
}

/// Aggregate a flat driver's drained arrivals.  `reachable_clients` is the
/// number of clients that actually received this round's broadcast: only
/// those could have contributed, so only those can *time out*.  Clients
/// whose broadcast the lossy network dropped are accounted in
/// dropped_messages, not here.
RoundMetrics aggregate_arrivals(Server& server, std::uint32_t round,
                                std::vector<WeightUpdate> raw,
                                std::size_t reachable_clients) {
  RoundMetrics m;
  m.mean_train_loss = mean_loss(raw);
  const std::size_t fresh = distinct_fresh_senders(raw, round);
  m.timed_out_clients = reachable_clients > fresh ? reachable_clients - fresh : 0;
  // Deterministic aggregation order whatever the arrival schedule: stable
  // sort by client id (duplicates stay adjacent, first arrival first).
  // Insertion sort in place: arrivals come near-sorted, a swap moves only
  // vector pointers, and std::stable_sort would take a heap buffer every
  // round.
  for (std::size_t i = 1; i < raw.size(); ++i) {
    for (std::size_t j = i;
         j > 0 && raw[j].client_id < raw[j - 1].client_id; --j) {
      std::swap(raw[j], raw[j - 1]);
    }
  }
  m.weight_delta = server.finish_round(std::move(raw));
  return m;
}

}  // namespace

std::size_t FederatedRunResult::total_rejected_updates() const {
  std::size_t n = 0;
  for (const RoundMetrics& r : rounds) n += r.rejected_updates;
  return n;
}

std::size_t FederatedRunResult::total_late_updates() const {
  std::size_t n = 0;
  for (const RoundMetrics& r : rounds) n += r.late_updates;
  return n;
}

std::size_t FederatedRunResult::total_timed_out_clients() const {
  std::size_t n = 0;
  for (const RoundMetrics& r : rounds) n += r.timed_out_clients;
  return n;
}

RoundRecorder::RoundRecorder(const runtime::RunContext* ctx,
                             std::uint32_t round, std::size_t population,
                             std::size_t sampled)
    : ctx_(ctx),
      round_(round),
      population_(population),
      sampled_(sampled),
      t0_(Clock::now()),
      span_(ctx != nullptr ? ctx->trace : nullptr, "fl.round", "fl") {
  span_.annotate("round", static_cast<std::uint64_t>(round));
  span_.annotate("clients", static_cast<std::uint64_t>(population));
  span_.annotate("sampled", static_cast<std::uint64_t>(sampled));
}

void RoundRecorder::record_round(RoundMetrics rm, const RoundAudit& audit,
                                 std::vector<double> client_seconds,
                                 const RoundBytes& bytes,
                                 obs::RoundTelemetrySink* telemetry,
                                 FederatedRunResult& result) {
  rm.round = round_;
  rm.population = population_;
  rm.sampled_clients = sampled_;
  rm.wall_seconds = seconds_since(t0_);
  rm.updates_received = audit.accepted;
  rm.rejected_updates = audit.rejected_nonfinite + audit.rejected_duplicate +
                        audit.rejected_dimension;
  rm.late_updates = audit.rejected_stale;
  rm.max_client_seconds = 0.0;
  for (const double s : client_seconds) {
    rm.max_client_seconds = std::max(rm.max_client_seconds, s);
  }
  if (ctx_ != nullptr) {
    ctx_->count("fl.rejected_updates", static_cast<double>(rm.rejected_updates));
    ctx_->count("fl.late_updates", static_cast<double>(rm.late_updates));
    ctx_->count("fl.timed_out_clients",
                static_cast<double>(rm.timed_out_clients));
  }
  span_.annotate("accepted", static_cast<std::uint64_t>(rm.updates_received));
  span_.annotate("rejected", static_cast<std::uint64_t>(rm.rejected_updates));
  span_.end();
  if (telemetry != nullptr) {
    obs::RoundTelemetry rt;
    rt.round = rm.round;
    rt.wall_seconds = rm.wall_seconds;
    rt.max_client_seconds = rm.max_client_seconds;
    rt.client_train_seconds = std::move(client_seconds);
    rt.bytes_down = bytes.down;
    rt.bytes_up = bytes.up;
    rt.logical_bytes_down = bytes.logical_down;
    rt.logical_bytes_up = bytes.logical_up;
    rt.updates_accepted = rm.updates_received;
    rt.rejected_updates = rm.rejected_updates;
    rt.late_updates = rm.late_updates;
    rt.dropped_messages = rm.dropped_messages;
    rt.timed_out_clients = rm.timed_out_clients;
    rt.population = rm.population;
    rt.sampled_clients = rm.sampled_clients;
    rt.rejected_nonfinite = audit.rejected_nonfinite;
    rt.rejected_stale = audit.rejected_stale;
    rt.rejected_duplicate = audit.rejected_duplicate;
    rt.rejected_dimension = audit.rejected_dimension;
    rt.clipped = audit.clipped;
    rt.clipped_aggregates = audit.clipped_aggregates;
    rt.quorum_met = audit.quorum_met;
    telemetry->record(std::move(rt));
  }
  result.simulated_parallel_seconds += rm.max_client_seconds;
  result.rounds.push_back(rm);
}

FlatDriver::FlatDriver(Server& server,
                       std::vector<std::unique_ptr<Client>>& clients,
                       InMemoryNetwork& net, const runtime::RunContext* ctx,
                       const faults::FaultInjector* injector,
                       RoundPolicy policy, obs::RoundTelemetrySink* telemetry,
                       const AdversarySuite* adversary)
    : server_(&server),
      clients_(&clients),
      net_(&net),
      ctx_(ctx),
      policy_(policy),
      telemetry_(telemetry),
      hooks_{injector, adversary, ctx != nullptr ? ctx->trace : nullptr} {
  EVFL_REQUIRE(!clients.empty(), "a federated driver needs clients");
  if (injector != nullptr) net_->set_fault_injector(injector);
}

void FlatDriver::finish(FederatedRunResult& result,
                        Clock::time_point t0) const {
  result.final_weights = server_->weights();
  result.network = net_->stats();
  result.total_seconds = seconds_since(t0);
  if (hooks_.trace != nullptr) hooks_.trace->flush();
}

FederatedRunResult SyncDriver::run(std::size_t rounds) {
  const auto t0 = Clock::now();
  FederatedRunResult result;
  const std::size_t n = clients_->size();

  std::unordered_set<int> known_ids;
  std::vector<int> ids;
  ids.reserve(n);
  for (const auto& client : *clients_) {
    known_ids.insert(client->id());
    ids.push_back(client->id());
  }

  for (std::size_t r = 0; r < rounds; ++r) {
    const std::uint32_t round = server_->round();
    // Unsampled clients never see the broadcast this round: no message, no
    // training, no timeout accounting.
    const std::vector<std::size_t> sampled =
        select_sampled(policy_.sampling, round, ids);
    RoundRecorder recorder(ctx_, round, n, sampled.size());
    // One wire encoding per round (codec-aware); every client receives a
    // copy of the same bytes, exactly like a real broadcast.
    const std::vector<std::uint8_t>& broadcast_wire = server_->broadcast_wire();
    const std::uint64_t logical_msg_bytes =
        dense_message_bytes(server_->weights().size());

    std::atomic<std::size_t> dropped{0};
    std::atomic<std::size_t> reached{0};
    std::vector<double> client_seconds(n, 0.0);
    auto run_client = [&](std::size_t c) {
      Client& client = *(*clients_)[c];
      // Broadcast leg: global weights cross the wire to this client.
      if (!net_->send(Message{kServerNode, client.id(), broadcast_wire})) {
        ++dropped;  // simulated network dropped the broadcast
        return;
      }
      std::optional<Message> down = net_->try_receive(client.id());
      if (!down) {
        ++dropped;  // self-message lost: degrade the round, never abort
        return;
      }
      ++reached;  // broadcast delivered: this client can now time out
      const GlobalModel received = deserialize_global(down->bytes);

      // Crash-before-update: broadcast consumed, nothing contributed.
      if (hooks_.injector != nullptr &&
          hooks_.injector->should_crash(client.id(), received.round)) {
        return;
      }
      const RoundLeg leg = client.run_leg(received, hooks_);
      client_seconds[c] = client.train_seconds(received.round);
      // Straggler delay is virtual time in the sync schedule: it counts
      // against the deadline without sleeping the run.
      if (client_seconds[c] * 1e3 + leg.delay_ms > policy_.round_deadline_ms) {
        return;  // missed the round deadline: the update never ships
      }
      // Upload leg, encoded against the broadcast this client decoded.
      const bool delivered = client.upload(
          leg.update, received.weights, hooks_,
          [&](const std::vector<std::uint8_t>& bytes) {
            return net_->send(Message{client.id(), kServerNode, bytes});
          });
      if (!delivered) ++dropped;  // simulated network dropped the upload
    };

    if (ctx_ != nullptr && ctx_->parallel() && sampled.size() > 1) {
      ctx_->count("fl.pool_backed_rounds");
      ctx_->parallel_for(sampled.size(), 1,
                         [&](std::size_t begin, std::size_t end) {
                           for (std::size_t k = begin; k < end; ++k) {
                             run_client(sampled[k]);
                           }
                         });
    } else {
      for (const std::size_t c : sampled) run_client(c);
    }

    // Drain the server mailbox; the validator (not the driver) judges what
    // is aggregatable, so corrupted or replayed arrivals reach the server
    // and get counted there.
    std::vector<WeightUpdate> raw;
    raw.reserve(n);
    RoundBytes bytes;
    while (std::optional<Message> up = net_->try_receive(kServerNode)) {
      bytes.up += up->bytes.size();
      bytes.logical_up += logical_msg_bytes;
      WeightUpdate u = deserialize_update(up->bytes);
      if (known_ids.find(u.client_id) == known_ids.end()) {
        ++dropped;  // update from an unknown sender: skip it
        continue;
      }
      raw.push_back(std::move(u));
    }
    bytes.down = reached.load() * broadcast_wire.size();
    bytes.logical_down = reached.load() * logical_msg_bytes;

    RoundMetrics rm =
        aggregate_arrivals(*server_, round, std::move(raw), reached.load());
    rm.dropped_messages = dropped.load();
    // Only sampled clients trained: report their times, not a vector padded
    // with zeros for clients that were never asked.
    std::vector<double> sampled_seconds;
    sampled_seconds.reserve(sampled.size());
    for (const std::size_t c : sampled) {
      sampled_seconds.push_back(client_seconds[c]);
    }
    recorder.record_round(rm, server_->last_audit(), std::move(sampled_seconds),
                          bytes, telemetry_, result);
  }
  finish(result, t0);
  return result;
}

FederatedRunResult ThreadedDriver::run(std::size_t rounds) {
  const auto t0 = Clock::now();
  FederatedRunResult result;
  const std::size_t n = clients_->size();

  ServeOptions serve_opts;
  serve_opts.hooks = hooks_;
  // A server that holds a round open until its deadline is healthy: clients
  // must out-wait the deadline (plus slack for aggregation) before deciding
  // the server is gone, or every long round ends the fleet.
  serve_opts.receive_timeout_ms = std::max(serve_opts.receive_timeout_ms,
                                           policy_.round_deadline_ms * 1.25);

  std::vector<std::thread> workers;
  workers.reserve(n);
  for (auto& client : *clients_) {
    workers.emplace_back([&client, this, rounds, serve_opts] {
      client->serve(*net_, rounds, serve_opts);
    });
  }

  std::vector<int> ids;
  ids.reserve(n);
  for (const auto& client : *clients_) ids.push_back(client->id());

  for (std::size_t r = 0; r < rounds; ++r) {
    const auto round_t0 = Clock::now();
    const std::uint32_t round = server_->round();
    const std::vector<std::size_t> sampled =
        select_sampled(policy_.sampling, round, ids);
    RoundRecorder recorder(ctx_, round, n, sampled.size());
    const std::vector<std::uint8_t>& broadcast_bytes = server_->broadcast_wire();
    const std::uint64_t logical_msg_bytes =
        dense_message_bytes(server_->weights().size());
    // One shared broadcast buffer for the whole cohort: every sampled
    // client's mailbox references the same refcounted payload, so the
    // round's downlink memory is O(1) in cohort size.
    std::vector<int> cohort;
    cohort.reserve(sampled.size());
    for (const std::size_t c : sampled) cohort.push_back(ids[c]);
    const std::size_t broadcasts_delivered =
        net_->broadcast(kServerNode, cohort, broadcast_bytes);
    RoundBytes bytes;
    bytes.down = broadcasts_delivered * broadcast_bytes.size();
    bytes.logical_down = broadcasts_delivered * logical_msg_bytes;

    // Collect until the hard deadline, or earlier once every delivered
    // broadcast has produced a current-round update.  Stale and duplicate
    // arrivals are kept for the validator to count and reject.
    std::vector<WeightUpdate> raw;
    std::unordered_set<int> fresh_senders;
    while (fresh_senders.size() < broadcasts_delivered) {
      const double elapsed_ms = seconds_since(round_t0) * 1000.0;
      const double remaining = policy_.round_deadline_ms - elapsed_ms;
      if (remaining <= 0.0) break;
      std::optional<Message> msg = net_->receive(kServerNode, remaining);
      if (!msg) break;
      bytes.up += msg->payload().size();
      bytes.logical_up += logical_msg_bytes;
      WeightUpdate u = deserialize_update(msg->payload());
      if (u.round == round) fresh_senders.insert(u.client_id);
      raw.push_back(std::move(u));
    }

    RoundMetrics rm = aggregate_arrivals(*server_, round, std::move(raw),
                                         broadcasts_delivered);
    rm.dropped_messages = cohort.size() - broadcasts_delivered;
    // Per-client train seconds sampled at round close (sampled cohort only
    // — the others did not train): a client that did not finish training
    // this round (crashed / missed broadcast / still training) reports 0,
    // as in the sync schedule.
    std::vector<double> client_seconds;
    client_seconds.reserve(sampled.size());
    for (const std::size_t c : sampled) {
      client_seconds.push_back((*clients_)[c]->train_seconds(round));
    }
    recorder.record_round(rm, server_->last_audit(), std::move(client_seconds),
                          bytes, telemetry_, result);
  }

  // Release clients still waiting on a broadcast (theirs was dropped, or
  // they lag the server after missed rounds): a control-plane shutdown the
  // lossy simulation never drops, so join() is prompt instead of costing a
  // full receive budget per straggling client.
  const std::vector<std::uint8_t> bye =
      serialize(GlobalModel{kShutdownRound, {}});
  for (auto& client : *clients_) {
    net_->send_control(Message{kServerNode, client->id(), bye});
  }
  for (std::thread& w : workers) w.join();
  // The kShutdownRound teardown ends mid-round from the workers' point of
  // view: finish()'s flush writes the spans they emitted in the last round.
  finish(result, t0);
  return result;
}

}  // namespace evfl::fl
