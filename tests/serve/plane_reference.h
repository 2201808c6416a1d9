// Test-local single-slice reference ingest: one DeltaFeatureExtractor, one
// ModelShard and one AlignmentService, applied synchronously. This is the
// composition ShardedIngestor runs for each slice, without the routing,
// served-pair check, queue or executors around it, so the equivalence
// suites can compare the coordinator against it bit for bit.

#ifndef ACTIVEITER_TESTS_SERVE_PLANE_REFERENCE_H_
#define ACTIVEITER_TESTS_SERVE_PLANE_REFERENCE_H_

#include <numeric>
#include <utility>
#include <vector>

#include "src/metadiagram/delta_features.h"
#include "src/serve/ingestor.h"
#include "src/serve/service.h"

namespace activeiter {

class PlaneReference {
 public:
  /// `global_ids` empty numbers the initial candidates 0, 1, 2, ...
  PlaneReference(AlignedPair pair, std::vector<AnchorLink> train_anchors,
                 CandidateLinkSet candidates, IngestorOptions options = {},
                 std::vector<size_t> global_ids = {})
      : features_(std::move(pair), train_anchors, options.serve.features),
        next_id_(candidates.size()),
        shard_(std::move(candidates), IdsOr(std::move(global_ids), next_id_),
               train_anchors, &service_, options) {}

  Status Start() {
    features_.Refresh();
    return shard_.Start(features_.View());
  }

  /// The unrouted batch: its new candidates take the next sequential ids.
  Status ApplyOnce(const ServeDelta& delta) {
    ACTIVEITER_RETURN_IF_ERROR(
        ValidateCandidateEndpoints(features_.pair(), delta));
    ShardSlice slice;
    slice.added = delta.new_candidates;
    for (size_t i = 0; i < slice.added.size(); ++i) {
      slice.added_ids.push_back(next_id_++);
    }
    slice.removed = delta.removed_candidates;
    return Apply(delta.graph, slice);
  }

  /// Graph apply → refresh → the shard absorbs `slice` as given.
  Status Apply(const PairDelta& graph, const ShardSlice& slice) {
    ACTIVEITER_RETURN_IF_ERROR(features_.Apply(graph));
    const std::vector<size_t> dirty_columns = features_.Refresh();
    return shard_.ApplySlice(features_.View(), dirty_columns, slice,
                             /*submitted_batches=*/1);
  }

  const AlignedPair& pair() const { return features_.pair(); }
  const ModelShard& shard() const { return shard_; }
  const AlignmentService& service() const { return service_; }

 private:
  static std::vector<size_t> IdsOr(std::vector<size_t> ids, size_t count) {
    if (!ids.empty()) return ids;
    ids.resize(count);
    std::iota(ids.begin(), ids.end(), size_t{0});
    return ids;
  }

  AlignmentService service_;
  DeltaFeatureExtractor features_;
  size_t next_id_;
  ModelShard shard_;
};

}  // namespace activeiter

#endif  // ACTIVEITER_TESTS_SERVE_PLANE_REFERENCE_H_
