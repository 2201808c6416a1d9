// The ingest building blocks of the online subsystem.
//
// The write side is split along the axis that matters for sharding:
//
//   DeltaFeatureExtractor (metadiagram/delta_features.h) — whole-graph
//                         state: aligned pair + delta feature engine.
//                         Cost scales with the GRAPH, not the candidates.
//   ModelShard      (here) — per-slice state: candidates, incidence,
//                         design matrix X, AlignmentSession, PU
//                         alternation, snapshot chain. Cost scales with
//                         the SLICE.
//   ShardedIngestor (shard.h) — the one ingest coordinator: a queue, one
//                         feature engine and N shards.
//
// A ServeDelta batch advances the write side in seven steps:
//
//   1. validate + Apply         (endpoints and removals checked against
//                                the served pairs, then one atomic graph
//                                change + dirty tokens; grows AND shrinks —
//                                edge removals and anchor retractions apply
//                                validate-then-commit)
//   2. Refresh + View           (only dirty diagrams recompute; clean
//                                tables migrate via padding; the drain's
//                                FeatureView snapshots the result)
//   3. removed rows             (withdrawn candidates: one blocked rank-k
//                                DOWNDATE of the factor + Gram downdate,
//                                then X/candidates/index/pins compact —
//                                zero refactorisations unless the downdate
//                                goes numerically indefinite, which costs
//                                exactly one counted refactor)
//   4. replaced rows            (existing candidates whose dirty feature
//                                columns changed: Gram replace + rank-1
//                                update/downdate pair per row)
//   5. appended rows            (new candidates: feature row from the
//                                view's proximity tables, Gram fold-in +
//                                one rank-1 update per row)
//   6. re-run the PU alternation (IterAligner against the grown session —
//                                solves only, the factor is never rebuilt)
//   7. BuildSnapshot + Publish  (atomic epoch swap in the service)
//
// Steps 1–2 are coordinator work (once per drain, however many shards);
// steps 3–7 are shard work (ModelShard::ApplySlice, per slice,
// shard-parallel — see shard.h). A shard reads only its drain's
// FeatureView and its ShardSlice, never the feature engine or the live
// pair. After Start()'s single Prepare no full factorisation ever runs
// again — stats().full_factorisations stays 1 per shard, proven in the
// integration tests via CholeskyFactor::TotalFactorCount.

#ifndef ACTIVEITER_SERVE_INGESTOR_H_
#define ACTIVEITER_SERVE_INGESTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/align/iter_aligner.h"
#include "src/align/session.h"
#include "src/common/status.h"
#include "src/graph/aligned_pair.h"
#include "src/graph/incidence.h"
#include "src/graph/partition.h"
#include "src/metadiagram/delta_features.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/serve/service.h"

namespace activeiter {

/// One ingest batch: graph growth plus the candidate pairs that start
/// being served with it. Candidate endpoints may reference nodes added by
/// the same batch; the coordinator assigns each new candidate its global
/// link id at routing time.
struct ServeDelta {
  PairDelta graph;
  std::vector<std::pair<NodeId, NodeId>> new_candidates;
  /// Candidate pairs withdrawn from serving (un-revealed). Identified by
  /// endpoint pair, not link id, so the sharded router can compute the
  /// owning shard without an id map. Each pair must currently be served
  /// and appear at most once.
  std::vector<std::pair<NodeId, NodeId>> removed_candidates;

  bool empty() const {
    return graph.empty() && new_candidates.empty() &&
           removed_candidates.empty();
  }
};

/// One shard's share of a batch: only its candidate changes. Graph
/// changes never reach a shard; it reads them through the drain's
/// FeatureView.
struct ShardSlice {
  std::vector<std::pair<NodeId, NodeId>> added;
  /// Global link id of each added pair (parallel to `added`, strictly
  /// increasing).
  std::vector<size_t> added_ids;
  std::vector<std::pair<NodeId, NodeId>> removed;
};

/// Concatenates a burst of batches into one equivalent batch: node growth,
/// edges, anchors and candidates in submission order. Applying the merged
/// batch yields the same graph, candidate set and design matrix as
/// applying the parts one by one — in one epoch instead of many.
///
/// Opposing operations on the same key COLLAPSE during the merge: an edge
/// removal cancels a pending same-key addition (and vice versa), an anchor
/// retraction cancels the pending reveal of the same link, and a candidate
/// removal cancels the pending addition of the same pair — so a
/// remove-then-re-add churn burst costs nothing at absorption time.
ServeDelta MergeServeDeltas(std::vector<ServeDelta> deltas);

/// Key of a user pair in hashed pair sets: (u1 << 32) | u2.
inline uint64_t PairKey(NodeId u1, NodeId u2) {
  return (static_cast<uint64_t>(u1) << 32) | u2;
}

/// Knobs of the serving model.
struct ServeOptions {
  /// Ridge loss weight and decision threshold of the PU alternation.
  double ridge_c = 1.0;
  double threshold = 0.0;
  SelectionAlgorithm selection = SelectionAlgorithm::kGreedy;
  /// Feature engine options (catalog choice + kernel pool).
  FeatureExtractorOptions features;
};

/// How the background coordinator drains its queue.
enum class DrainPolicy {
  /// Merge everything queued at wake-up into one batch: one realign + one
  /// published epoch per drain, however deep the backlog.
  kCoalesce,
  /// One epoch per submitted batch (every submit costs a full realign).
  kPerDelta,
};

/// Construction-time options of the ingest layer.
struct IngestorOptions {
  /// Model knobs, forwarded to the alternation and feature engine.
  ServeOptions serve;
  /// Background-queue drain policy.
  DrainPolicy drain = DrainPolicy::kCoalesce;
  /// Shard layout: ShardedIngestor fans out over partition.num_shards
  /// slices.
  ShardPartition partition;
  /// Drains the coordinator may have in flight beyond the one the shards
  /// are absorbing: depth d allows d + 1 drains in flight, so drain N+1's
  /// graph apply + SpGEMM refresh runs WHILE the shards absorb drain N.
  /// 0 is the strictly serial coordinator (prepare waits for every
  /// shard). Published epochs are bitwise-identical at every depth — only
  /// the overlap changes.
  size_t pipeline_depth = 1;
  /// When non-zero, ShardedIngestor::Submit blocks while the background
  /// queue holds this many undrained batches — backpressure so a fast
  /// producer cannot outrun the shards unboundedly. Each blocked Submit
  /// counts one pipeline stall. 0 (default) means unbounded.
  size_t submit_queue_limit = 0;
  /// Observability sinks. Detached (null) by default: every instrument
  /// site in the ingest/query pipeline reduces to one branch. When
  /// attached, the write side emits a span per ingest stage
  /// (submit → drain/coalesce → plane refresh → apply_slice → publish),
  /// keeps the "serve.ingest.epoch_lag" gauge (submitted-but-unpublished
  /// batches) current, and the services record per-query latency
  /// histograms.
  ObsSinks obs;
};

/// Cumulative ingest accounting (all fields monotone).
struct IngestStats {
  uint64_t epochs_published = 0;
  uint64_t deltas_applied = 0;
  uint64_t coalesced_batches = 0;     // submits absorbed into a shared epoch
  uint64_t rows_appended = 0;
  uint64_t rows_replaced = 0;
  uint64_t rows_removed = 0;          // candidate rows downdated out
  uint64_t rank_one_updates = 0;      // factor updates + downdates
  uint64_t full_factorisations = 0;   // stays 1 after Start()
  // Pipeline accounting (coordinator-level; ModelShard leaves them 0).
  uint64_t pipeline_stalls = 0;       // backpressure waits (slot/queue)
  uint64_t max_inflight_planes = 0;   // high-water drains in flight; a
                                      // value ≥ 2 proves prepare/absorb
                                      // overlapped. Serial mode reports 1.
};

/// One shard's model state: a disjoint candidate slice with its own
/// incidence index, design matrix, RidgePrepared session, PU alternation
/// and snapshot chain. Reads features only through the FeatureView each
/// call is handed; distinct shards share nothing mutable, so their
/// ApplySlice calls may run concurrently (each against its own slice).
class ModelShard {
 public:
  /// `train_anchors` is the fixed labeled bridge L+: candidates equal to a
  /// train anchor are pinned positive, everything else stays unlabeled
  /// (the PU setting). `service` must outlive the shard. `global_ids`
  /// maps each initial candidate to its global link id (parallel to
  /// `candidates`, strictly increasing).
  ModelShard(CandidateLinkSet candidates, std::vector<size_t> global_ids,
             const std::vector<AnchorLink>& train_anchors,
             AlignmentService* service, IngestorOptions options);

  // index_ borrows candidates_; keep the shard pinned in memory.
  ModelShard(const ModelShard&) = delete;
  ModelShard& operator=(const ModelShard&) = delete;

  /// Builds and publishes epoch 0 — the only full feature gather, Gram
  /// product and Cholesky factorisation of the shard's lifetime.
  Status Start(const FeatureView& features);

  /// Applies this shard's slice of a batch against the drain's view:
  /// removed rows downdated out for the slice's withdrawn candidates,
  /// replaced rows for `dirty_columns`, appended rows for the slice's new
  /// candidates, realign, publish. Every removed pair must be served here
  /// (the coordinator checks that before the graph moves; a miss is a
  /// CHECK failure). `submitted_batches` is the number of Submit() calls
  /// the slice coalesces (1 for ApplyOnce).
  Status ApplySlice(const FeatureView& features,
                    const std::vector<size_t>& dirty_columns,
                    const ShardSlice& slice, size_t submitted_batches);

  IngestStats stats() const;

  bool started() const { return started_; }
  const CandidateLinkSet& candidates() const { return candidates_; }
  const Matrix& design() const { return x_; }
  /// Local candidate id → global link id.
  const std::vector<size_t>& global_ids() const { return global_ids_; }
  uint64_t epoch() const { return epoch_; }

 private:
  Status Publish();
  /// Pins every candidate from `first_id` on that is a train anchor.
  void PinTrainAnchorsFrom(size_t first_id);

  CandidateLinkSet candidates_;
  AlignmentService* service_;
  IngestorOptions options_;  // options_.obs drives the stage spans below
  std::unordered_set<uint64_t> train_anchor_keys_;  // L+ as (u1 << 32) | u2

  std::unique_ptr<IncidenceIndex> index_;
  Matrix x_;
  std::unique_ptr<AlignmentSession> session_;
  IterAligner aligner_;
  std::vector<size_t> global_ids_;
  uint64_t epoch_ = 0;
  bool started_ = false;

  IngestStats stats_;
  mutable std::mutex stats_mu_;
};

/// Validates that every candidate endpoint of `delta` falls inside the
/// user universes AFTER the batch's own node growth — the
/// validate-before-mutate step of every ingest drain.
Status ValidateCandidateEndpoints(const AlignedPair& pair,
                                  const ServeDelta& delta);

}  // namespace activeiter

#endif  // ACTIVEITER_SERVE_INGESTOR_H_
