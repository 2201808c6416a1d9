// Test-local single-slice reference ingest: one FeaturePlane, one
// ModelShard and one AlignmentService, applied synchronously. This is the
// composition ShardedIngestor runs for each slice, without the routing,
// queue or executors around it, so the equivalence suites can compare the
// coordinator against it bit for bit.

#ifndef ACTIVEITER_TESTS_SERVE_PLANE_REFERENCE_H_
#define ACTIVEITER_TESTS_SERVE_PLANE_REFERENCE_H_

#include <utility>
#include <vector>

#include "src/serve/feature_plane.h"
#include "src/serve/ingestor.h"
#include "src/serve/service.h"

namespace activeiter {

class PlaneReference {
 public:
  PlaneReference(AlignedPair pair, std::vector<AnchorLink> train_anchors,
                 CandidateLinkSet candidates, IngestorOptions options = {},
                 std::vector<size_t> global_ids = {})
      : plane_(std::move(pair), train_anchors, options.serve.features),
        shard_(std::move(candidates), std::move(global_ids), train_anchors,
               &service_, options) {}

  Status Start() {
    plane_.Refresh();
    return shard_.Start(plane_.View());
  }

  /// Validate → plane apply → refresh → the shard absorbs the whole batch.
  Status ApplyOnce(const ServeDelta& delta) {
    ACTIVEITER_RETURN_IF_ERROR(
        ValidateCandidateEndpoints(plane_.pair(), delta));
    ACTIVEITER_RETURN_IF_ERROR(plane_.Apply(delta.graph));
    const std::vector<size_t> dirty_columns = plane_.Refresh();
    return shard_.ApplySlice(plane_.View(), dirty_columns, delta,
                             /*submitted_batches=*/1);
  }

  const AlignedPair& pair() const { return plane_.pair(); }
  const ModelShard& shard() const { return shard_; }
  const AlignmentService& service() const { return service_; }

 private:
  AlignmentService service_;
  FeaturePlane plane_;
  ModelShard shard_;
};

}  // namespace activeiter

#endif  // ACTIVEITER_TESTS_SERVE_PLANE_REFERENCE_H_
