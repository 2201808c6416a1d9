// FeaturePlane: the graph-and-features half of the ingest pipeline.
//
// Everything whose cost depends on the WHOLE graph — the aligned pair,
// the delta-aware feature engine, the SpGEMM product cache — lives here,
// behind a single-writer surface:
//
//   Apply(PairDelta)  — atomic graph change + dirty-token bookkeeping
//   Refresh()         — recompute dirty diagrams, migrate clean ones
//   View()            — an immutable FeatureView of the refreshed tables
//
// The plane is what makes sharded ingest scale: N ModelShards (see
// ingestor.h) share one plane, so per-batch graph work and diagram
// recomputation run once per drain instead of once per shard. Shards never
// read the plane itself. Each drain hands them a FeatureView: one shared
// pointer per proximity table plus the post-growth user universes. The
// tables are features of the graph alone (meta-diagram proximities), never
// of the candidate set, and Refresh() rebuilds them as new objects, so a
// view stays exactly as taken while the plane applies and refreshes later
// drains. That is what lets the coordinator prepare drain N+1 on the same
// plane while the shards still absorb drain N.
//
// Writer discipline: exactly one thread calls Apply/Refresh/View at a
// time: ShardedIngestor's coordinator thread, or the ApplyOnce caller.

#ifndef ACTIVEITER_SERVE_FEATURE_PLANE_H_
#define ACTIVEITER_SERVE_FEATURE_PLANE_H_

#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/graph/aligned_pair.h"
#include "src/metadiagram/delta_features.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace activeiter {

/// Owns the aligned pair and the delta-aware feature engine.
class FeaturePlane {
 public:
  /// Takes ownership of the graph state. `train_anchors` is the fixed
  /// labeled bridge L+ (model input; revealed anchors are oracle data).
  FeaturePlane(AlignedPair pair, std::vector<AnchorLink> train_anchors,
               FeatureExtractorOptions options = {});

  // The extractor holds a pointer to pair_; the plane must not move.
  FeaturePlane(const FeaturePlane&) = delete;
  FeaturePlane& operator=(const FeaturePlane&) = delete;

  const AlignedPair& pair() const { return pair_; }

  /// Attaches observability sinks (spans around Apply/Refresh). Called by
  /// the owning coordinator before Start(); detached by default.
  void set_obs(ObsSinks obs) { obs_ = obs; }

  /// Changes the graph atomically (nothing mutates on error) and marks the
  /// touched relations dirty. Cheap; recomputation waits for Refresh().
  Status Apply(const PairDelta& delta);

  /// Brings the proximity tables up to date; returns the dirty feature
  /// column indices, ascending (all columns on the first call).
  std::vector<size_t> Refresh();

  /// The refreshed tables as an immutable view (Refresh() must be up to
  /// date). Costs one shared-pointer copy per diagram.
  FeatureView View() const { return extractor_.View(); }

 private:
  AlignedPair pair_;
  DeltaFeatureExtractor extractor_;
  ObsSinks obs_;
};

}  // namespace activeiter

#endif  // ACTIVEITER_SERVE_FEATURE_PLANE_H_
