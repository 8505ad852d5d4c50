#include "src/ann/hnsw.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "src/obs/obs.h"
#include "src/tensor/kernels.h"
#include "src/util/contract.h"
#include "src/util/logging.h"

namespace unimatch::ann {
namespace {

// `links` is best first by `scores` with one link appended. When the first
// links are strictly descending, the new score ties none of them and the
// new id is not among them, sorting by score has exactly one result: this
// moves the new link to its place, drops the last link and returns true.
// Otherwise it changes nothing and returns false. Every comparison is
// written so that a NaN fails it.
bool InsertNewest(std::vector<int64_t>& links, std::vector<float>& scores) {
  const int last = static_cast<int>(links.size()) - 1;
  const int64_t id = links[last];
  const float s = scores[last];
  int pos = last;
  for (int j = 0; j < last; ++j) {
    if (links[j] == id) return false;
    if (j + 1 < last && !(scores[j] > scores[j + 1])) return false;
    if (pos == last && !(scores[j] > s)) {
      if (!(s > scores[j])) return false;
      pos = j;
    }
  }
  std::rotate(links.begin() + pos, links.begin() + last, links.end());
  std::rotate(scores.begin() + pos, scores.begin() + last, scores.end());
  links.pop_back();
  scores.pop_back();
  return true;
}

}  // namespace

float HnswIndex::Score(const float* query, int64_t node) const {
  return quant_.Score(node, query);
}

Status HnswIndex::CheckConfig() const {
  // MaxLinks(0) is 2m; the cap keeps it, and every list's reservation of
  // 2m + 1 slots, far from int overflow.
  if (config_.m < 1 || config_.m > 1024) {
    return Status::InvalidArgument("HnswConfig::m must be in [1, 1024]");
  }
  if (config_.ef_construction < 1 || config_.ef_search < 1) {
    return Status::InvalidArgument(
        "HnswConfig::ef_construction and ef_search must be at least 1");
  }
  return Status::OK();
}

Status HnswIndex::Build(const Tensor& vectors) {
  UNIMATCH_RETURN_IF_ERROR(CheckConfig());
  if (vectors.rank() != 2) {
    return Status::InvalidArgument("index expects a [N, d] matrix");
  }
  if (vectors.dim(0) == 0) {
    return Status::InvalidArgument("empty index");
  }
  UM_SCOPED_TIMER("ann.hnsw.build.ms");
  UM_COUNTER_INC("ann.hnsw.builds");
  UM_GAUGE_SET("ann.hnsw.nodes", static_cast<double>(vectors.dim(0)));
  // A NaN embedding poisons greedy search comparisons silently; reject it
  // at the boundary instead.
  UM_CHECK_FINITE(vectors) << "HnswIndex::Build embeddings";
  vectors_ = vectors;  // float alias; only held until Build returns
  n_ = vectors.dim(0);
  d_ = vectors.dim(1);
  // The graph is built against the quantized rows so construction-time
  // neighborhoods match what Search will score (quantized-distance HNSW).
  quant_ = QuantizedMatrix::Quantize(vectors, config_.storage);
  const int64_t n = n_;
  Rng rng(config_.seed);

  // Level assignment: geometric with p = 1/e scaled by 1/ln(M).
  const double ml = 1.0 / std::log(std::max(2.0, double(config_.m)));
  node_level_.assign(n, 0);
  int max_level = 0;
  for (int64_t i = 0; i < n; ++i) {
    double u;
    do {
      u = rng.NextDouble();
    } while (u <= 1e-300);
    const int level = static_cast<int>(-std::log(u) * ml);
    node_level_[i] = level;
    max_level = std::max(max_level, level);
  }

  layers_.assign(max_level + 1, Adjacency(n));
  link_scores_.assign(max_level + 1, std::vector<std::vector<float>>(n));
  // A list never holds more than MaxLinks + 1 links (Connect prunes at
  // once), so one reservation per list on each of the node's layers is the
  // only allocation its links ever need. Every id list is reserved before
  // any score list, so the scores, freed before Build returns, leave one
  // contiguous hole in the heap rather than one between every two lists.
  for (int64_t i = 0; i < n; ++i) {
    for (int l = 0; l <= node_level_[i]; ++l) {
      layers_[l][i].reserve(MaxLinks(l) + 1);
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    for (int l = 0; l <= node_level_[i]; ++l) {
      link_scores_[l][i].reserve(MaxLinks(l) + 1);
    }
  }
  // Node 0 seeds the graph; everyone else inserts against it.
  entry_point_ = 0;
  int entry_level = node_level_[0];

  for (int64_t i = 1; i < n; ++i) InsertNode(i, &entry_level);
  link_scores_.clear();
  if (config_.storage != ScalarType::kF32) {
    vectors_ = Tensor();  // drop the float table; quant_ serves from here on
  }
  return Status::OK();
}

void HnswIndex::InsertNode(int64_t i, int* entry_level) {
  const int level = node_level_[i];
  const float* q = vectors_.data() + i * dim();
  // Build-path searches reuse the thread's visited stamps and beam heaps
  // across every insertion.
  SearchWorkspace& ws = ThreadLocalSearchWorkspace();
  int64_t entry = entry_point_;
  const int elevel = *entry_level;
  // Greedy descent through layers above this node's level.
  for (int l = elevel; l > level; --l) {
    entry = GreedyStep(q, entry, l);
  }
  // Insert with beam search on each layer from min(level, elevel) down to 0.
  for (int l = std::min(level, elevel); l >= 0; --l) {
    const auto& candidates =
        SearchLayer(q, entry, config_.ef_construction, l, ws);
    Connect(i, l, candidates);
    entry = candidates.empty() ? entry : candidates.front().second;
  }
  if (level > elevel) {
    entry_point_ = i;
    *entry_level = level;
  }
}

int64_t HnswIndex::GreedyStep(const float* query, int64_t entry,
                              int layer) const {
  int64_t current = entry;
  float best = Score(query, current);
  bool improved = true;
  while (improved) {
    improved = false;
    const std::vector<int64_t>& nbrs = layers_[layer][current];
    for (int64_t nb : nbrs) {
      const float s = Score(query, nb);
      if (s > best) {
        best = s;
        current = nb;
        improved = true;
      }
    }
  }
  return current;
}

const std::vector<std::pair<float, int64_t>>& HnswIndex::SearchLayer(
    const float* query, int64_t entry, int ef, int layer,
    SearchWorkspace& ws) const {
  // Max-heap of candidates to expand; min-heap of current best `ef`. Both
  // live in workspace vectors driven by std::push_heap/pop_heap — the
  // algorithms std::priority_queue is specified over, so the expansion and
  // extraction order is exactly the pre-workspace behavior, but the
  // storage (and the epoch-stamped visited set replacing the per-call
  // unordered_set) is reused across searches.
  using Entry = std::pair<float, int64_t>;
  std::vector<Entry>& candidates = ws.candidates();  // best first
  std::vector<Entry>& best = ws.best();
  candidates.clear();
  best.clear();
  ws.BeginVisitEpoch(n_);

  const float es = Score(query, entry);
  candidates.push_back({es, entry});
  best.push_back({es, entry});
  ws.Visit(entry);

  while (!candidates.empty()) {
    const auto [cs, cn] = candidates.front();
    std::pop_heap(candidates.begin(), candidates.end());
    candidates.pop_back();
    if (static_cast<int>(best.size()) >= ef && cs < best.front().first) break;
    for (int64_t nb : layers_[layer][cn]) {
      if (!ws.Visit(nb)) continue;
      const float s = Score(query, nb);
      if (static_cast<int>(best.size()) < ef || s > best.front().first) {
        candidates.push_back({s, nb});
        std::push_heap(candidates.begin(), candidates.end());
        best.push_back({s, nb});
        std::push_heap(best.begin(), best.end(), std::greater<>());
        if (static_cast<int>(best.size()) > ef) {
          std::pop_heap(best.begin(), best.end(), std::greater<>());
          best.pop_back();
        }
      }
    }
  }
  UM_COUNTER_ADD("ann.hnsw.nodes_visited", ws.visits_this_epoch());
  std::vector<Entry>& out = ws.layer_results();
  out.clear();
  while (!best.empty()) {
    out.push_back(best.front());
    std::pop_heap(best.begin(), best.end(), std::greater<>());
    best.pop_back();
  }
  std::reverse(out.begin(), out.end());  // best first
  return out;
}

void HnswIndex::Connect(
    int64_t node, int layer,
    const std::vector<std::pair<float, int64_t>>& candidates) {
  const int max_links = MaxLinks(layer);
  auto& adj = layers_[layer];
  auto& scores = link_scores_[layer];
  const int take = std::min<int>(max_links, candidates.size());
  for (int k = 0; k < take; ++k) {
    const auto [score, nb] = candidates[k];
    if (nb == node) continue;
    // SearchLayer scored nb against node's float row: the score of this
    // link, bit for bit.
    adj[node].push_back(nb);
    scores[node].push_back(score);
    adj[nb].push_back(node);
    scores[nb].push_back(Score(vectors_.data() + nb * dim(), node));
    if (static_cast<int>(adj[nb].size()) > max_links) Prune(nb, layer);
  }
}

void HnswIndex::Prune(int64_t node, int layer) {
  const int max_links = MaxLinks(layer);
  std::vector<int64_t>& links = layers_[layer][node];
  std::vector<float>& scores = link_scores_[layer][node];
  const int size = static_cast<int>(links.size());
  if (size <= max_links) return;
  // A pruned list is best first, and Connect prunes as soon as one link is
  // appended, so after a list's first prune the insert usually applies.
  if (size == max_links + 1 && InsertNewest(links, scores)) return;
  // Otherwise (a first prune, a tie, a duplicate id): sort by id, drop
  // duplicate ids, sort by stored score and keep the best. std::sort's
  // result depends only on the input order and the comparison outcomes,
  // which match sorting the ids with a comparator that scores each link,
  // so tied links land where that sort puts them (the recorded graph
  // digests depend on it).
  auto& buf = prune_scratch_;
  buf.clear();
  for (int j = 0; j < size; ++j) buf.emplace_back(links[j], scores[j]);
  std::sort(buf.begin(), buf.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  buf.erase(std::unique(buf.begin(), buf.end(),
                        [](const auto& a, const auto& b) {
                          return a.first == b.first;
                        }),
            buf.end());
  std::sort(buf.begin(), buf.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  const size_t keep = std::min<size_t>(buf.size(), max_links);
  links.resize(keep);
  scores.resize(keep);
  for (size_t j = 0; j < keep; ++j) {
    links[j] = buf[j].first;
    scores[j] = buf[j].second;
  }
}

void HnswIndex::MultiSearchImpl(const float* queries, int64_t nq, int k,
                                SearchWorkspace& ws,
                                SearchResult* out) const {
  UM_SCOPED_TIMER("ann.hnsw.search.ms");
  UM_COUNTER_ADD("ann.hnsw.searches", nq);
  UM_CHECK_GE(entry_point_, 0);
  const int ef = std::max(config_.ef_search, k);
  for (int64_t q = 0; q < nq; ++q) {
    const float* qv = queries + q * d_;
    int64_t entry = entry_point_;
    for (int l = static_cast<int>(layers_.size()) - 1; l > 0; --l) {
      entry = GreedyStep(qv, entry, l);
    }
    const auto& found = SearchLayer(qv, entry, ef, 0, ws);
    SearchResult* o = out + q * k;
    const int take = std::min<int>(k, static_cast<int>(found.size()));
    for (int r = 0; r < take; ++r) {
      o[r] = {found[r].second, found[r].first};
    }
    for (int r = take; r < k; ++r) o[r] = {-1, 0.0f};
  }
}

}  // namespace unimatch::ann
