// QueryBackend: the narrow query surface of the serve layer.
//
// This header IS the public serving API. Query callers — serve_cli, the
// examples, integration tests, any future RPC front end — program against
// QueryBackend and the ScoredLink value type only; AlignmentService,
// ModelSnapshot and ShardedIngestor are implementation detail of the
// write side. Two implementations exist:
//
//   AlignmentService   one snapshot-swap service over one candidate slice
//                      (the whole set in the unsharded deployment);
//   ShardRouter        fans queries across N AlignmentServices that own
//                      disjoint user-range slices of H and merges.
//
// Contract:
//   * TopKFor/ScorePair answer "as of a published epoch": they never block
//     on ingest and never observe a half-built model. Users or pairs the
//     published epoch does not know yet get an empty result / NotFound,
//     not an error.
//   * ScoredLink::link_id is a GLOBAL link id, stable across epochs and
//     across shard counts (a candidate keeps its id for life, no matter
//     which shard serves it). Top-K order is score descending, ties broken
//     by ascending global link id.
//   * epoch() is monotone per backend. For a router it is the completed
//     epoch of the SLOWEST shard — the epoch every shard has published.
//   * FailedPrecondition is returned only before the first publish.

#ifndef ACTIVEITER_SERVE_BACKEND_H_
#define ACTIVEITER_SERVE_BACKEND_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/graph/types.h"

namespace activeiter {

/// One scored candidate link, as returned by the query API.
struct ScoredLink {
  size_t link_id = 0;  // global link id (see backend contract above)
  NodeId u1 = 0;
  NodeId u2 = 0;
  double score = 0.0;
  bool matched = false;  // selected positive by the alternation (y = 1)
};

/// Abstract query surface over the latest published alignment model.
class QueryBackend {
 public:
  virtual ~QueryBackend();

  /// Epoch sentinel before the first publish.
  static constexpr uint64_t kNoEpoch = ~uint64_t{0};

  /// Top-k candidate links of user `u1` of the first network, score
  /// descending, ties by ascending global link id. Users unknown to the
  /// published epoch get an empty result, not an error.
  virtual Result<std::vector<ScoredLink>> TopKFor(NodeId u1,
                                                  size_t k) const = 0;

  /// The scored view of candidate (u1, u2); NotFound when the pair is not
  /// a candidate in the published epoch.
  virtual Result<ScoredLink> ScorePair(NodeId u1, NodeId u2) const = 0;

  /// Epoch of the answers (kNoEpoch before the first publish). Monotone.
  virtual uint64_t epoch() const = 0;
};

}  // namespace activeiter

#endif  // ACTIVEITER_SERVE_BACKEND_H_
