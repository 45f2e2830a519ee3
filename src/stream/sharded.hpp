// evfl::stream::ShardedPipeline — the streaming detection pipeline
// (DESIGN.md §14): per-zone online detection (zone_state.hpp) driven by a
// control thread over hash-partitioned shards.  With `shards = 1` and no
// pool it is the plain single-core pipeline; more shards change only who
// runs the per-zone state machine, never what it computes:
//
//   - zones are hash-partitioned across `shards` (zone % shards); each
//     shard owns its zones' sliding windows, incremental thresholds, drift
//     probes, and repair scratch outright, so shard workers run the whole
//     prepare/apply state machine lock-free on disjoint state;
//   - ingest is multi-producer: any thread may ingest() any zone at any
//     time; the sample lands in the owning shard's bounded MPSC ring
//     (mpsc_ring.hpp — reserve/commit fast path, drop-oldest past the hard
//     bound with an exact count, shrink-on-drain).  Producers never flush;
//     the control thread drives cadence;
//   - flush() runs fan-in rounds: every shard stages rows into its own
//     region of a staging tensor — per zone, the first ready sample plus
//     up to depth - 1 later ones staged speculatively, assuming no repair
//     (each such row is the previous row shifted by one plus the previous
//     sample's scaled value).  The control thread compacts those regions
//     into engine-sized chunks (max_batch rows) and scores them: one
//     forecast::Engine::score_prefix() call when the round fits one chunk,
//     else one serial call per chunk spread over the pool — engine batch
//     efficiency scales with total rows, not per-shard zones.  Shards then
//     scatter their scores back through apply_forecast() in parallel, in
//     zone sample order; a repair (or window reset) proves the zone's
//     later rows wrong, so they are dropped and re-staged next round.  A
//     zone's depth doubles after a round whose rows all commit and falls
//     back to 1 on a rollback, capped at max(1, 256 / max_zones): narrow
//     fleets replay a backlog in rounds of up to 256 rows, while fleets of
//     256 zones or more stage one sample per zone per round;
//   - events fan in to one event ring (the same MpscRing type) in shard
//     order (shard 0's zones first), so consumer-visible order is
//     deterministic; a stalled consumer costs bounded memory and a counted
//     drop, never an unbounded buffer.
//
// Determinism contract: per-zone outputs (scores, flags, events,
// thresholds) are bit-identical regardless of shard count, flush cadence,
// speculation depth or producer interleaving, and — frozen — bit-identical
// to batch_scores().  The argument: the engine's per-row results are
// independent of batch size and composition, a 1-row round included
// (pinned by the engine's own tests); a speculative row commits only when
// its window is the one the zone would have built (every earlier sample of
// the round was pushed unchanged); zone state is touched only by its
// owning shard in the zone's sample order; and per-zone sample order is
// whatever the producers delivered — identical interleavings give
// identical results, and a single producer per zone (the common collector
// topology) makes the whole pipeline deterministic end to end
// (tests/test_sharded.cpp pins 1/2/4/8-shard equality, frozen and
// adaptive, and equality across depth caps 1/4/42).
//
// Threading: ingest() from any number of threads, concurrently with one
// control thread calling flush(); drain() is safe from consumer threads.
// add_zone()/seed_threshold()/freeze_threshold() are setup-phase only —
// never concurrent with ingest() or flush().  After warmup, a serial
// flush() of clean data allocates nothing (bench_stream --check-allocs
// pins this); per-zone sample queues grow on demand during warmup and
// keep their capacity.  Repairing a flagged sample may allocate
// transiently inside the shared imputation routine.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "anomaly/threshold.hpp"
#include "data/scaler.hpp"
#include "forecast/engine.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "runtime/run_context.hpp"
#include "stream/mpsc_ring.hpp"
#include "stream/pipeline.hpp"
#include "stream/zone_state.hpp"
#include "tensor/tensor3.hpp"

namespace evfl::stream {

struct ShardedConfig {
  /// Shard (worker-partition) count; zone z belongs to shard z % shards.
  std::size_t shards = 1;
  /// Per-zone semantics and sizing; `max_zones` is the TOTAL across all
  /// shards.
  StreamConfig stream{};
  /// Per-shard ingest-ring hard bound and post-drain storage watermark
  /// (MpscRing contract: 8 <= shrink <= max).
  std::size_t ring_max = 65536;
  std::size_t ring_shrink = 4096;
};

class ShardedPipeline {
 public:
  /// The engine must outlive the pipeline and accept batches of
  /// cfg.stream.max_zones (wider rounds are scored in max_batch-row
  /// chunks).  `registry` (optional) receives
  /// stream.queue_depth / stream.events_dropped gauges,
  /// stream.samples_total / events_total / not_ready_total / gaps_total /
  /// reseeds_total / ingest_dropped counters and a stream.flush_seconds
  /// histogram; `trace` (optional) gets one span per flush.  Both must
  /// outlive the pipeline.
  ShardedPipeline(forecast::Engine& engine, const ShardedConfig& cfg,
                  obs::Registry* registry = nullptr,
                  obs::TraceWriter* trace = nullptr);

  ShardedPipeline(const ShardedPipeline&) = delete;
  ShardedPipeline& operator=(const ShardedPipeline&) = delete;

  /// Register a zone with its fitted scaler (setup phase only); returns
  /// the global zone id.  Zone ids are assigned in call order, so shard
  /// ownership is reproducible: zone i lives on shard i % shards.  Zones
  /// start empty (not ready) with no threshold: until seeded/frozen or
  /// enough scores adapt one in, nothing is flagged.
  std::uint32_t add_zone(const data::MinMaxScaler& scaler);

  /// Fold calibration scores (e.g. a clean prefix scored by batch_scores)
  /// into the zone's estimator and arm the threshold.  Setup phase only;
  /// may be called more than once per zone (calibration in chunks).
  void seed_threshold(std::uint32_t zone, const std::vector<float>& scores);
  /// Pin the zone's threshold to a fixed value; it never adapts (or
  /// re-seeds) afterwards (the strict batch-equivalence mode).
  void freeze_threshold(std::uint32_t zone, float threshold);

  /// Enqueue one sample — safe from ANY thread, concurrently with flush().
  /// `t` is the zone's sample clock: any step other than last_t + 1 is
  /// churn (gap or restart) and resets the zone's window to not-ready at
  /// processing time.  Back-pressure: a full shard ring drops its oldest
  /// sample (counted in stats().ingest_dropped), never blocks the producer
  /// unboundedly.
  void ingest(std::uint32_t zone, std::uint64_t t, float value);

  /// Control thread: drain every shard ring into its zones' queues, then
  /// score all pending samples in fan-in rounds (up to each zone's depth
  /// of samples per zone per round, scored in max_batch-row chunks; rows
  /// after a repair are rolled back and re-staged).  Shard stage/scatter
  /// phases and multi-chunk scoring run on `ctx` when it carries a pool;
  /// serial (and allocation-free after warmup) otherwise.  Returns
  /// samples processed (scored + not-ready).
  std::size_t flush(const runtime::RunContext* ctx = nullptr);

  /// Move queued events into `out` (fan-in order); safe from any number of
  /// consumer threads.  Returns the number appended.
  std::size_t drain(std::vector<AnomalyEvent>& out);

  /// Aggregated counters across all shards (ingest_dropped = ring drops).
  StreamStats stats() const;

  std::size_t zones() const { return zones_.size(); }
  std::size_t shards() const { return shards_.size(); }
  /// Samples drained from rings but not yet scored (0 after flush()).
  std::size_t pending() const;
  /// Window holds a full lookback (the next in-order sample gets scored).
  bool ready(std::uint32_t zone) const;
  /// Current effective threshold; NaN while the zone is unarmed.
  float threshold(std::uint32_t zone) const;
  const anomaly::IncrementalThreshold& estimator(std::uint32_t zone) const;
  std::size_t lookback() const { return lookback_; }
  std::uint64_t queue_dropped() const { return queue_.dropped(); }
  /// Samples lost to ring back-pressure across all shards.
  std::uint64_t ingest_dropped() const;

 private:
  /// One multi-producer sample as it crosses the ring.
  struct IngestSample {
    std::uint32_t zone = 0;
    std::uint64_t t = 0;
    float raw = 0.0f;
  };

  /// Everything one shard worker owns.  Only that worker (or the control
  /// thread between phases) touches it; the ring is the sole
  /// cross-thread member.
  struct Shard {
    Shard(std::size_t ring_max, std::size_t ring_shrink)
        : ring(ring_max, ring_shrink) {}

    MpscRing<IngestSample> ring;
    std::vector<std::uint32_t> zone_ids;  // owned zones, ascending
    std::vector<IngestSample> drain_buf;  // warm ring-drain scratch
    detail::RepairScratch repair;
    StreamStats stats;  // single-writer (this shard)
    std::size_t pending = 0;  // queued-in-zones, not yet processed
    // Per-round staging metadata: the shard's staged rows live at
    // [stage_base, stage_base + rows) of the shard staging tensor and
    // score at [row_offset, row_offset + rows) of the round.  A zone's
    // rows are contiguous and in sample order; its first row went
    // through prepare_sample at stage time, the rest are speculative and
    // commit (prepare_sample, then apply_forecast) only at scatter.
    // Sized for zone_ids.size() x depth cap rows.
    std::size_t stage_base = 0;
    std::size_t rows = 0;
    std::size_t row_offset = 0;
    std::vector<std::uint32_t> row_zone;
    std::vector<detail::PendingSample> row_sample;
    std::vector<float> row_scaled;
    std::vector<AnomalyEvent> events;  // warm per-round event staging
  };

  void drain_ring(Shard& sh);
  void stage_shard(Shard& sh);
  void score_round(std::size_t rows, const runtime::RunContext* ctx);
  void scatter_shard(Shard& sh);
  const detail::ZoneState& zone_at(std::uint32_t zone) const;
  void publish_telemetry(const StreamStats& agg);

  forecast::Engine& engine_;
  ShardedConfig cfg_;
  detail::ZonePolicy policy_;
  std::size_t lookback_;
  std::size_t depth_cap_ = 1;   // max(1, 256 / max_zones)
  std::size_t chunk_rows_ = 1;  // rows per engine call: min(max_batch, round)

  std::vector<detail::ZoneState> zones_;  // indexed by global zone id
  std::vector<std::unique_ptr<Shard>> shards_;

  // Fan-in scratch: shards stage into disjoint regions of shard_staging_;
  // the control thread compacts live rows into consecutive chunk_rows_-row
  // chunks (row r lands in chunks_[r / chunk_rows_]) and scores them into
  // scores_[r].  All sized for max_zones x depth_cap_ rows.
  tensor::Tensor3 shard_staging_;
  std::vector<tensor::Tensor3> chunks_;
  std::vector<float> scores_;

  MpscRing<AnomalyEvent> queue_;
  std::uint64_t flushes_ = 0;
  std::uint64_t seed_nonfinite_ = 0;  // nonfinite dropped during seeding
  StreamStats published_;

  obs::TraceWriter* trace_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* dropped_gauge_ = nullptr;
  obs::Counter* samples_counter_ = nullptr;
  obs::Counter* events_counter_ = nullptr;
  obs::Counter* not_ready_counter_ = nullptr;
  obs::Counter* gaps_counter_ = nullptr;
  obs::Counter* reseeds_counter_ = nullptr;
  obs::Counter* ingest_dropped_counter_ = nullptr;
  obs::Histogram* flush_hist_ = nullptr;
};

}  // namespace evfl::stream
