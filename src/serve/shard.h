// ShardedIngestor: the write side of the serve layer, run as a two-stage
// software pipeline. It is the one ingest coordinator; a single shard is
// the unsharded deployment.
//
//                       ┌──────────────── ShardedIngestor ────────────────┐
//   ServeDelta ──▶ queue ─▶ coordinator ─▶ DeltaFeatureExtractor (one per │
//     (Submit)            (coalesce +      ingestor: apply + refresh      │
//                          check removals  drain N+1 while the shards     │
//                          against the     absorb drain N)                │
//                          served pairs,    │ per-drain FeatureView       │
//                          route by    ┌────┴────┬─────────┐              │
//                          u1 range,   ▼         ▼         ▼              │
//                          assign  executor 0 executor 1  ...             │
//                          global  ModelShard ModelShard (persistent      │
//                          link ids)   │         │         threads)       │
//                                      ▼         ▼   per-shard publish    │
//                                   AlignmentService per shard ───────────┼─▶ ShardRouter
//                       └──────────────────────────────────────────────── ┘  (QueryBackend)
//
// Stage 1 (coordinator, Prepare): validate → graph apply → SpGEMM
// refresh → take the drain's FeatureView → route and assign ids. Both
// ApplyOnce and the background coordinator run this one step.
// Stage 2 (shard executors): downdate/replace/append rows → PU realign →
// snapshot publish, one persistent thread per shard (mailbox + condition
// variable, started once at StartBackground, joined at Stop — steady-state
// drains spawn zero threads).
//
// The pipeline: the shards read a drain's features only through its
// FeatureView — shared pointers to that epoch's proximity tables plus the
// post-growth user universes. The feature engine rebuilds its tables as
// new objects on every Refresh, so the coordinator applies and refreshes
// drain N+1 while the shards still read drain N's view. At most
// pipeline_depth + 1 drains are in flight; the coordinator waits for a
// free slot before preparing the next one. That wait is the backpressure
// (counted in IngestStats::pipeline_stalls), and with depth 0 it is the
// strictly serial coordinator. Shards publish their epochs independently
// as each slice completes — there is no whole-drain barrier; the router's
// epoch() = slowest shard already tolerates the skew. Each shard sees
// every drain in submission order with exactly that drain's dirty columns,
// so published epochs are bitwise-identical to the serial schedule at
// every depth.
//
// Model semantics: each shard trains the PU alternation on its own slice.
// With N shards each slice's model equals a single feature engine +
// ModelShard run over that slice alone (feature state depends only on the
// graph, never on the candidate set; proven by the sharded equivalence
// test), trading cross-shard one-to-one coupling on second-network users
// for shard-parallel ingest.
//
// Global link ids are assigned at drain time, in submission order across
// all shards, so ids are stable across shard counts and the router's
// merged answers are comparable run-to-run.
//
// Failure model: a batch that fails validation (bad graph delta, bad
// candidate endpoint, removal of a pair that is not served or named
// twice) is rejected before anything mutates. A model-side
// failure inside a shard makes the background status sticky — up to
// pipeline_depth later drains may already sit in executor mailboxes when
// it surfaces; their absorbs are skipped (the read side keeps serving
// every shard's last published epoch) and everything submitted after is
// discarded at drain time.

#ifndef ACTIVEITER_SERVE_SHARD_H_
#define ACTIVEITER_SERVE_SHARD_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/graph/partition.h"
#include "src/metadiagram/delta_features.h"
#include "src/serve/ingestor.h"
#include "src/serve/router.h"

namespace activeiter {

/// Splits one incoming batch's candidate changes into per-shard slices:
/// new candidates go to the shard owning their first endpoint, each
/// stamped with a global link id counting up from `first_global_id` in
/// submission order. Removals route by the same first-endpoint rule —
/// pairs, not ids, so no cross-shard id map is needed.
std::vector<ShardSlice> RouteServeDelta(const ServeDelta& delta,
                                        const ShardPartition& partition,
                                        size_t first_global_id);

/// One DeltaFeatureExtractor + N ModelShards over disjoint candidate
/// slices plus the ShardRouter serving them. Lifecycle: Start → ApplyOnce
/// | StartBackground/Submit/Flush/Stop; queries go through backend().
/// ApplyOnce is the deterministic path used by tests and epoch-by-epoch
/// comparisons; it must not be mixed with the background coordinator
/// while that runs.
class ShardedIngestor {
 public:
  /// Takes ownership of the initial state and splits it across
  /// `options.partition.num_shards` shards. The pair lives once, in the
  /// feature engine; the labeled bridge L+ is handed to the engine and to
  /// every shard here; candidate ownership follows the partition.
  ShardedIngestor(AlignedPair pair, std::vector<AnchorLink> train_anchors,
                  CandidateLinkSet candidates, IngestorOptions options = {});

  ~ShardedIngestor();

  ShardedIngestor(const ShardedIngestor&) = delete;
  ShardedIngestor& operator=(const ShardedIngestor&) = delete;

  /// Refreshes the features once (every diagram) and starts every shard
  /// against that view (one Gram factorisation per shard), publishing
  /// epoch 0 on all of them.
  Status Start();

  /// Prepares one batch (the same step the background coordinator runs)
  /// and applies its slices synchronously, shard after shard.
  /// Deterministic; shard epochs stay in lock-step.
  Status ApplyOnce(const ServeDelta& delta);

  /// Background ingest: one coordinator thread that drains the queue
  /// (coalescing per the drain policy) and prepares each drain, plus one
  /// persistent executor thread per shard absorbing the slices.
  void StartBackground();

  /// Enqueues a batch. This layer assigns global link ids to its new
  /// candidates, in submission order, at drain time. Blocks when
  /// options().submit_queue_limit batches are already queued
  /// (backpressure; counted as a pipeline stall).
  void Submit(ServeDelta delta);

  /// Blocks until every submitted batch has been applied and published.
  void Flush();

  /// Drains the queue and the executor mailboxes, then joins the
  /// coordinator and every executor (idempotent).
  void Stop();

  /// First error reported by the coordinator (sticky; batches submitted
  /// after an error are discarded).
  Status background_status() const;

  /// The query surface. Valid for the ingestor's lifetime; safe for any
  /// number of concurrent readers.
  const QueryBackend& backend() const { return *router_; }
  const ShardRouter& router() const { return *router_; }

  size_t num_shards() const { return shards_.size(); }
  const ShardPartition& partition() const { return options_.partition; }
  const IngestorOptions& options() const { return options_; }

  /// Ingest accounting. Drain-level counters (epochs_published,
  /// deltas_applied, coalesced_batches) advance in lock-step on every
  /// shard and are reported once; per-row counters (rows_appended,
  /// rows_removed, rows_replaced, rank_one_updates, full_factorisations)
  /// are summed across shards — full_factorisations equals num_shards
  /// after Start(). pipeline_stalls / max_inflight_planes are
  /// coordinator-level: max_inflight_planes ≥ 2 proves prepare/absorb
  /// actually overlapped; serial operation reports 0 / 1.
  IngestStats stats() const;
  IngestStats shard_stats(size_t shard) const;

  // Per-shard internals for tests and equivalence comparisons. NOT safe
  // while the coordinator runs.
  const AlignedPair& pair() const { return features_.pair(); }
  const ModelShard& shard(size_t shard) const;
  const AlignmentService& shard_service(size_t shard) const;

 private:
  class ShardExecutor;

  /// One routed slice travelling from the coordinator to a shard
  /// executor, with its drain's feature view and dirty columns.
  struct SliceTask {
    std::shared_ptr<const FeatureView> features;
    std::shared_ptr<const std::vector<size_t>> dirty_columns;
    ShardSlice slice;
    size_t submitted_batches = 0;
    uint64_t seq = 0;
  };

  /// Completion bookkeeping of one dispatched drain.
  struct DrainTicket {
    uint64_t seq = 0;
    size_t remaining = 0;   // shards still absorbing
    size_t submitted = 0;   // Submit() calls this drain coalesces
  };

  /// A prepared drain: the refreshed view, its dirty columns and one
  /// slice per shard.
  struct PreparedDrain {
    std::shared_ptr<const FeatureView> features;
    std::shared_ptr<const std::vector<size_t>> dirty_columns;
    std::vector<ShardSlice> slices;
  };

  void WorkerLoop();
  /// The one prepare step of both paths: validate → apply the graph →
  /// refresh → take the FeatureView → route and assign ids. A batch it
  /// rejects leaves the graph, the features and the served pairs as they
  /// were.
  Result<PreparedDrain> Prepare(const ServeDelta& merged);
  /// Pipelined path: wait for a free in-flight slot, Prepare the drain and
  /// hand the slices to the executors. Returns without waiting for the
  /// absorbs.
  Status PrepareDrain(const ServeDelta& merged, size_t submitted_batches);
  /// Executor callback: a shard finished (or skipped) drain `seq`.
  void OnSliceDone(uint64_t seq, const Status& status);

  IngestorOptions options_;
  DeltaFeatureExtractor features_;
  /// Submitted-but-unpublished batches; null when metrics are detached.
  Gauge* epoch_lag_ = nullptr;
  Gauge* pipeline_inflight_ = nullptr;   // "ingest.pipeline.depth"
  Counter* pipeline_stall_counter_ = nullptr;
  std::vector<std::unique_ptr<AlignmentService>> services_;
  std::vector<std::unique_ptr<ModelShard>> shards_;
  std::unique_ptr<ShardRouter> router_;
  size_t next_global_id_ = 0;
  // Every served candidate pair as PairKey → multiplicity, as of the last
  // prepared drain. Removals are checked against it before the graph
  // moves. The shards cannot check them: with pipelining they run up to
  // pipeline_depth drains behind the coordinator, so their candidate sets
  // are stale at prepare time. Coordinator thread (or ApplyOnce) only.
  std::unordered_map<uint64_t, size_t> served_;
  uint64_t drain_seq_ = 0;               // dispatched background drains

  // Persistent per-shard absorb threads (live between StartBackground
  // and Stop).
  std::vector<std::unique_ptr<ShardExecutor>> executors_;
  std::deque<DrainTicket> tickets_;      // guarded by mu_

  // Coordinator queue.
  std::thread worker_;
  mutable std::mutex mu_;
  std::condition_variable cv_;           // queue not empty / stopping
  std::condition_variable progress_cv_;  // a drain retired / queue drained
  std::condition_variable queue_space_cv_;  // Submit backpressure
  std::deque<ServeDelta> queue_;
  size_t in_flight_ = 0;                 // batches drained, not published
  size_t inflight_drains_ = 0;           // drains between dispatch/publish
  uint64_t max_inflight_ = 0;            // high-water of inflight_drains_
  uint64_t stall_count_ = 0;             // backpressure waits
  bool stopping_ = false;
  bool thread_running_ = false;
  Status background_status_ = Status::OK();
};

}  // namespace activeiter

#endif  // ACTIVEITER_SERVE_SHARD_H_
