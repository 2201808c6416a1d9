#include "src/serve/delta_stream.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "src/common/rng.h"

namespace activeiter {
namespace {

/// Stripes `count` items over waves 1..num_batches as evenly as possible;
/// returns the wave of item j.
int StripeWave(size_t j, size_t count, size_t num_batches) {
  return 1 + static_cast<int>((j * num_batches) / count);
}

}  // namespace

Status DeltaStreamOptions::Validate() const {
  if (num_batches == 0) {
    return Status::InvalidArgument("num_batches must be >= 1");
  }
  if (initial_fraction <= 0.0 || initial_fraction >= 1.0) {
    return Status::InvalidArgument("initial_fraction must be in (0, 1)");
  }
  if (np_ratio < 0.0) {
    return Status::InvalidArgument("np_ratio must be >= 0");
  }
  if (train_fraction <= 0.0 || train_fraction > 1.0) {
    return Status::InvalidArgument("train_fraction must be in (0, 1]");
  }
  if (churn_fraction < 0.0 || churn_fraction >= 1.0) {
    return Status::InvalidArgument("churn_fraction must be in [0, 1)");
  }
  return Status::OK();
}

size_t DeltaStream::StreamedCandidateCount() const {
  size_t total = 0;
  for (const ServeDelta& b : batches) total += b.new_candidates.size();
  return total;
}

Result<DeltaStream> CarveDeltaStream(const AlignedPair& full,
                                     const DeltaStreamOptions& options) {
  ACTIVEITER_RETURN_IF_ERROR(options.Validate());
  if (full.anchor_count() == 0) {
    return Status::InvalidArgument("pair has no anchors to carve");
  }
  Rng rng(options.seed);
  const size_t num_batches = options.num_batches;
  const size_t num_waves = num_batches + 1;
  const HeteroNetwork* nets[2] = {&full.first(), &full.second()};
  const size_t users[2] = {nets[0]->NodeCount(NodeType::kUser),
                           nets[1]->NodeCount(NodeType::kUser)};

  // --- assign reveal waves -------------------------------------------------
  // (wave, sequence) per user; anchored pairs share both, so a shared user
  // joins the two networks in the same batch.
  std::vector<int> user_wave[2] = {std::vector<int>(users[0], -1),
                                   std::vector<int>(users[1], -1)};
  std::vector<size_t> user_seq[2] = {std::vector<size_t>(users[0], 0),
                                     std::vector<size_t>(users[1], 0)};
  std::vector<AnchorLink> anchors = full.anchors();
  rng.Shuffle(&anchors);
  size_t initial_anchors = static_cast<size_t>(
      std::lround(options.initial_fraction *
                  static_cast<double>(anchors.size())));
  initial_anchors =
      std::min(std::max<size_t>(initial_anchors, 1), anchors.size());
  std::vector<int> anchor_wave(anchors.size(), 0);
  const size_t rest = anchors.size() - initial_anchors;
  for (size_t j = 0; j < rest; ++j) {
    anchor_wave[initial_anchors + j] = StripeWave(j, rest, num_batches);
  }
  size_t next_seq = 0;
  for (size_t i = 0; i < anchors.size(); ++i, ++next_seq) {
    user_wave[0][anchors[i].u1] = anchor_wave[i];
    user_seq[0][anchors[i].u1] = next_seq;
    user_wave[1][anchors[i].u2] = anchor_wave[i];
    user_seq[1][anchors[i].u2] = next_seq;
  }
  for (int s = 0; s < 2; ++s) {
    std::vector<NodeId> extras;
    for (NodeId u = 0; u < users[s]; ++u) {
      if (user_wave[s][u] < 0) extras.push_back(u);
    }
    rng.Shuffle(&extras);
    size_t initial_extras = static_cast<size_t>(std::lround(
        options.initial_fraction * static_cast<double>(extras.size())));
    initial_extras = std::min(initial_extras, extras.size());
    for (size_t j = 0; j < extras.size(); ++j, ++next_seq) {
      user_wave[s][extras[j]] =
          j < initial_extras
              ? 0
              : StripeWave(j - initial_extras, extras.size() - initial_extras,
                           num_batches);
      user_seq[s][extras[j]] = next_seq;
    }
  }

  // --- renumber users and posts in reveal order ----------------------------
  std::vector<NodeId> user_new[2];
  std::vector<int> wave_by_new_user[2];
  std::vector<size_t> users_in_wave[2] = {
      std::vector<size_t>(num_waves, 0), std::vector<size_t>(num_waves, 0)};
  for (int s = 0; s < 2; ++s) {
    std::vector<NodeId> order(users[s]);
    for (NodeId u = 0; u < users[s]; ++u) order[u] = u;
    std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      if (user_wave[s][a] != user_wave[s][b]) {
        return user_wave[s][a] < user_wave[s][b];
      }
      return user_seq[s][a] < user_seq[s][b];
    });
    user_new[s].resize(users[s]);
    wave_by_new_user[s].resize(users[s]);
    for (size_t rank = 0; rank < order.size(); ++rank) {
      user_new[s][order[rank]] = static_cast<NodeId>(rank);
      wave_by_new_user[s][rank] = user_wave[s][order[rank]];
      ++users_in_wave[s][user_wave[s][order[rank]]];
    }
  }
  std::vector<NodeId> post_new[2];
  std::vector<size_t> posts_in_wave[2] = {
      std::vector<size_t>(num_waves, 0), std::vector<size_t>(num_waves, 0)};
  std::vector<int> post_wave_store[2];
  for (int s = 0; s < 2; ++s) {
    const size_t posts = nets[s]->NodeCount(NodeType::kPost);
    std::vector<int>& post_wave = post_wave_store[s];
    post_wave.assign(posts, 0);
    for (const auto& [u, p] : nets[s]->Edges(RelationType::kWrite)) {
      post_wave[p] = std::max(post_wave[p], user_wave[s][u]);
    }
    std::vector<NodeId> order(posts);
    for (NodeId p = 0; p < posts; ++p) order[p] = p;
    std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return post_wave[a] < post_wave[b];
    });
    post_new[s].resize(posts);
    for (size_t rank = 0; rank < order.size(); ++rank) {
      post_new[s][order[rank]] = static_cast<NodeId>(rank);
      ++posts_in_wave[s][post_wave[order[rank]]];
    }
  }

  // --- build the initial networks and the per-wave graph deltas ------------
  DeltaStream stream{
      AlignedPair(HeteroNetwork(nets[0]->schema(), nets[0]->name()),
                  HeteroNetwork(nets[1]->schema(), nets[1]->name())),
      {},
      {},
      std::vector<ServeDelta>(num_batches)};
  HeteroNetwork initial_nets[2] = {
      HeteroNetwork(nets[0]->schema(), nets[0]->name()),
      HeteroNetwork(nets[1]->schema(), nets[1]->name())};
  for (int s = 0; s < 2; ++s) {
    initial_nets[s].AddNodes(NodeType::kUser, users_in_wave[s][0]);
    initial_nets[s].AddNodes(NodeType::kPost, posts_in_wave[s][0]);
    for (NodeType t :
         {NodeType::kWord, NodeType::kLocation, NodeType::kTimestamp}) {
      initial_nets[s].AddNodes(t, nets[s]->NodeCount(t));
    }
    for (size_t w = 1; w < num_waves; ++w) {
      GraphDelta& delta = s == 0 ? stream.batches[w - 1].graph.first
                                 : stream.batches[w - 1].graph.second;
      if (users_in_wave[s][w] > 0) {
        delta.nodes.push_back({NodeType::kUser, users_in_wave[s][w]});
      }
      if (posts_in_wave[s][w] > 0) {
        delta.nodes.push_back({NodeType::kPost, posts_in_wave[s][w]});
      }
    }
  }
  for (int s = 0; s < 2; ++s) {
    for (int r = 0; r < kNumRelationTypes; ++r) {
      const RelationType rel = static_cast<RelationType>(r);
      for (const auto& [src, dst] : nets[s]->Edges(rel)) {
        NodeId new_src, new_dst;
        int wave;
        switch (rel) {
          case RelationType::kFollow:
            new_src = user_new[s][src];
            new_dst = user_new[s][dst];
            wave = std::max(user_wave[s][src], user_wave[s][dst]);
            break;
          case RelationType::kWrite:
            new_src = user_new[s][src];
            new_dst = post_new[s][dst];
            wave = std::max(user_wave[s][src], post_wave_store[s][dst]);
            break;
          default:  // post → attribute
            new_src = post_new[s][src];
            new_dst = dst;
            wave = post_wave_store[s][src];
            break;
        }
        if (wave == 0) {
          ACTIVEITER_RETURN_IF_ERROR(
              initial_nets[s].AddEdge(rel, new_src, new_dst));
        } else {
          GraphDelta& delta = s == 0 ? stream.batches[wave - 1].graph.first
                                     : stream.batches[wave - 1].graph.second;
          delta.edges.push_back({rel, new_src, new_dst});
        }
      }
    }
  }
  stream.initial =
      AlignedPair(std::move(initial_nets[0]), std::move(initial_nets[1]));

  // --- anchors -------------------------------------------------------------
  std::vector<AnchorLink> initial_anchor_links;
  for (size_t i = 0; i < anchors.size(); ++i) {
    AnchorLink renumbered{user_new[0][anchors[i].u1],
                          user_new[1][anchors[i].u2]};
    if (anchor_wave[i] == 0) {
      ACTIVEITER_RETURN_IF_ERROR(
          stream.initial.AddAnchor(renumbered.u1, renumbered.u2));
      initial_anchor_links.push_back(renumbered);
    } else {
      stream.batches[anchor_wave[i] - 1].graph.new_anchors.push_back(
          renumbered);
    }
  }

  // --- L+ ------------------------------------------------------------------
  const size_t train_count = std::min(
      initial_anchor_links.size(),
      std::max<size_t>(1, static_cast<size_t>(std::lround(
                              options.train_fraction *
                              static_cast<double>(
                                  initial_anchor_links.size())))));
  std::vector<size_t> train_ids =
      rng.SampleWithoutReplacement(initial_anchor_links.size(), train_count);
  std::sort(train_ids.begin(), train_ids.end());
  for (size_t id : train_ids) {
    stream.train_anchors.push_back(initial_anchor_links[id]);
  }

  // --- candidates ----------------------------------------------------------
  struct Candidate {
    NodeId u1;
    NodeId u2;
    int wave;
  };
  std::vector<Candidate> candidates;
  std::unordered_set<uint64_t> used;
  for (size_t i = 0; i < anchors.size(); ++i) {
    Candidate c{user_new[0][anchors[i].u1], user_new[1][anchors[i].u2],
                anchor_wave[i]};
    candidates.push_back(c);
    used.insert(PairKey(c.u1, c.u2));
  }
  const size_t negatives = static_cast<size_t>(std::lround(
      options.np_ratio * static_cast<double>(anchors.size())));
  size_t attempts_left = 100 * negatives + 1000;
  for (size_t n = 0; n < negatives && attempts_left > 0; --attempts_left) {
    NodeId u1 = static_cast<NodeId>(rng.UniformInt(users[0]));
    NodeId u2 = static_cast<NodeId>(rng.UniformInt(users[1]));
    if (!used.insert(PairKey(u1, u2)).second) continue;
    candidates.push_back(
        {u1, u2,
         std::max(wave_by_new_user[0][u1], wave_by_new_user[1][u2])});
    ++n;
  }
  rng.Shuffle(&candidates);
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.wave < b.wave;
                   });
  for (const Candidate& c : candidates) {
    if (c.wave == 0) {
      stream.initial_candidates.Add(c.u1, c.u2);
    } else {
      stream.batches[c.wave - 1].new_candidates.emplace_back(c.u1, c.u2);
    }
  }

  // --- churn: grow → shrink → grow -----------------------------------------
  // Each growth wave gets a trailing churn batch withdrawing a sample of
  // what the wave just revealed (so every removal names something that is
  // provably present), and one final batch re-adds the withdrawn items.
  // The replayed end state is unchanged up to candidate link-id renaming.
  if (options.churn_fraction > 0.0) {
    auto sample = [&](size_t n) {
      const size_t k = std::min<size_t>(
          n, static_cast<size_t>(std::lround(
                 options.churn_fraction * static_cast<double>(n))));
      std::vector<size_t> ids = rng.SampleWithoutReplacement(n, k);
      std::sort(ids.begin(), ids.end());
      return ids;
    };
    std::vector<ServeDelta> churned;
    churned.reserve(2 * stream.batches.size() + 1);
    ServeDelta readd;
    for (ServeDelta& b : stream.batches) {
      ServeDelta churn;
      for (int s = 0; s < 2; ++s) {
        const GraphDelta& grown = s == 0 ? b.graph.first : b.graph.second;
        GraphDelta& shrink = s == 0 ? churn.graph.first : churn.graph.second;
        GraphDelta& regrow = s == 0 ? readd.graph.first : readd.graph.second;
        for (size_t id : sample(grown.edges.size())) {
          shrink.removed_edges.push_back(grown.edges[id]);
          regrow.edges.push_back(grown.edges[id]);
        }
      }
      for (size_t id : sample(b.graph.new_anchors.size())) {
        churn.graph.retracted_anchors.push_back(b.graph.new_anchors[id]);
        readd.graph.new_anchors.push_back(b.graph.new_anchors[id]);
      }
      for (size_t id : sample(b.new_candidates.size())) {
        churn.removed_candidates.push_back(b.new_candidates[id]);
        readd.new_candidates.push_back(b.new_candidates[id]);
      }
      churned.push_back(std::move(b));
      if (!churn.empty()) churned.push_back(std::move(churn));
    }
    if (!readd.empty()) churned.push_back(std::move(readd));
    stream.batches = std::move(churned);
  }
  return stream;
}

}  // namespace activeiter
