#include "src/serve/feature_plane.h"

namespace activeiter {

FeaturePlane::FeaturePlane(AlignedPair pair,
                           std::vector<AnchorLink> train_anchors,
                           FeatureExtractorOptions options)
    : pair_(std::move(pair)),
      extractor_(pair_, std::move(train_anchors), std::move(options)) {}

Status FeaturePlane::Apply(const PairDelta& delta) {
  TraceSpan span(obs_.tracer, "ingest.plane_apply");
  ACTIVEITER_RETURN_IF_ERROR(pair_.ApplyDelta(delta));
  extractor_.NoteDelta(delta);
  return Status::OK();
}

std::vector<size_t> FeaturePlane::Refresh() {
  TraceSpan span(obs_.tracer, "ingest.plane_refresh");
  return extractor_.Refresh();
}

}  // namespace activeiter
