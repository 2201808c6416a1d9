#include "src/align/query_strategy.h"

#include <algorithm>
#include <cmath>

namespace activeiter {
namespace {

void ValidateContext(const QueryContext& ctx) {
  ACTIVEITER_CHECK(ctx.scores != nullptr && ctx.y != nullptr &&
                   ctx.index != nullptr && ctx.pinned != nullptr);
  size_t n = ctx.scores->size();
  ACTIVEITER_CHECK(ctx.y->size() == n && ctx.pinned->size() == n &&
                   ctx.index->candidate_count() == n);
}

/// U+: free links inferred positive, the ones that can play l' or l''.
bool InPositive(const QueryContext& ctx, size_t id) {
  return (*ctx.pinned)[id] == Pin::kFree && (*ctx.y)(id) >= 0.5;
}

/// The U+ links incident to each user of one side, as flat offsets + ids:
/// user u's links are ids[offsets[u] .. offsets[u + 1]), in the order of
/// the index's own per-user list (so tombstones never appear).
struct PositiveLinksByUser {
  using LinksOf = const std::vector<size_t>& (IncidenceIndex::*)(NodeId) const;

  std::vector<size_t> offsets;
  std::vector<size_t> ids;

  PositiveLinksByUser(const QueryContext& ctx, size_t users,
                      LinksOf links_of) {
    offsets.reserve(users + 1);
    offsets.push_back(0);
    for (NodeId u = 0; u < users; ++u) {
      for (size_t id : (ctx.index->*links_of)(u)) {
        if (InPositive(ctx, id)) ids.push_back(id);
      }
      offsets.push_back(ids.size());
    }
  }
};

}  // namespace

std::vector<size_t> ConflictQueryStrategy::SelectQueries(
    const QueryContext& ctx, size_t k, Rng* /*rng*/) {
  ValidateContext(ctx);
  const Vector& scores = *ctx.scores;
  const Vector& y = *ctx.y;
  const std::vector<Pin>& pinned = *ctx.pinned;
  const IncidenceIndex& index = *ctx.index;
  const auto& links = index.candidates().links();
  const size_t n = scores.size();

  // One O(|H|) pass groups the U+ links per user; each link l below then
  // visits just its U+ conflicts instead of every conflicting link.
  const PositiveLinksByUser first(ctx, index.users_first(),
                                  &IncidenceIndex::LinksOfFirst);
  const PositiveLinksByUser second(ctx, index.users_second(),
                                   &IncidenceIndex::LinksOfSecond);

  // Candidate set C: links in U− (inferred negative, unpinned) that
  // conflict with a near-tied positive l' and a dominated positive l''.
  struct Candidate {
    size_t link;
    double gap;  // ŷ_l − ŷ_l'' (sort key, larger first)
  };
  std::vector<Candidate> candidates;
  struct NearMiss {
    size_t link;
    double distance;  // min |ŷ_l' − ŷ_l| over conflicting positives
  };
  std::vector<NearMiss> near_misses;
  for (size_t l = 0; l < n; ++l) {
    if (pinned[l] != Pin::kFree || y(l) > 0.5) continue;  // need l ∈ U−
    const auto& [u1, u2] = links[l];
    ACTIVEITER_CHECK_MSG(u1 < index.users_first() && u2 < index.users_second(),
                         "candidate link endpoint outside the index");
    double score_l = scores(l);
    bool has_close_winner = false;
    double best_gap = -1.0;
    double min_distance = -1.0;
    auto visit = [&](size_t other) {
      double score_o = scores(other);
      double distance = std::abs(score_o - score_l);
      if (min_distance < 0.0 || distance < min_distance) {
        min_distance = distance;
      }
      if (distance <= closeness_) {
        has_close_winner = true;  // candidate for l'
      }
      if (score_o > 0.0 && score_l - score_o >= dominance_) {
        best_gap = std::max(best_gap, score_l - score_o);  // candidate l''
      }
    };
    // Same visit order as IncidenceIndex::ConflictingLinks restricted to
    // U+: first-side conflicts, then second-side ones not sharing u1 (those
    // were already visited on the first side).
    for (size_t i = first.offsets[u1]; i < first.offsets[u1 + 1]; ++i) {
      if (first.ids[i] != l) visit(first.ids[i]);
    }
    for (size_t i = second.offsets[u2]; i < second.offsets[u2 + 1]; ++i) {
      size_t other = second.ids[i];
      if (other != l && links[other].first != u1) visit(other);
    }
    // NOTE: l' and l'' are necessarily distinct when both conditions hold
    // with closeness_ < dominance-implied separation; when the same
    // positive satisfies both, querying l is still informative, so we do
    // not force distinctness.
    if (has_close_winner && best_gap >= 0.0) {
      candidates.push_back({l, best_gap});
    } else if (min_distance >= 0.0) {
      near_misses.push_back({l, min_distance});
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.gap > b.gap;
                   });
  std::vector<size_t> out;
  for (size_t i = 0; i < candidates.size() && out.size() < k; ++i) {
    out.push_back(candidates[i].link);
  }
  if (fill_with_near_misses_ && out.size() < k) {
    std::stable_sort(near_misses.begin(), near_misses.end(),
                     [](const NearMiss& a, const NearMiss& b) {
                       return a.distance < b.distance;
                     });
    for (size_t i = 0; i < near_misses.size() && out.size() < k; ++i) {
      out.push_back(near_misses[i].link);
    }
  }
  return out;
}

std::vector<size_t> RandomQueryStrategy::SelectQueries(const QueryContext& ctx,
                                                       size_t k, Rng* rng) {
  ValidateContext(ctx);
  ACTIVEITER_CHECK(rng != nullptr);
  std::vector<size_t> unpinned;
  for (size_t l = 0; l < ctx.pinned->size(); ++l) {
    if ((*ctx.pinned)[l] == Pin::kFree) unpinned.push_back(l);
  }
  if (unpinned.size() <= k) return unpinned;
  std::vector<size_t> picks = rng->SampleWithoutReplacement(unpinned.size(), k);
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t p : picks) out.push_back(unpinned[p]);
  return out;
}

std::vector<size_t> UncertaintyQueryStrategy::SelectQueries(
    const QueryContext& ctx, size_t k, Rng* /*rng*/) {
  ValidateContext(ctx);
  struct Candidate {
    size_t link;
    double distance;
  };
  std::vector<Candidate> candidates;
  for (size_t l = 0; l < ctx.pinned->size(); ++l) {
    if ((*ctx.pinned)[l] != Pin::kFree) continue;
    candidates.push_back({l, std::abs((*ctx.scores)(l) - threshold_)});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.distance < b.distance;
                   });
  std::vector<size_t> out;
  for (size_t i = 0; i < candidates.size() && out.size() < k; ++i) {
    out.push_back(candidates[i].link);
  }
  return out;
}

}  // namespace activeiter
