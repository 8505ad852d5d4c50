// Reusable per-thread search scratch for the ANN indexes — the zero-alloc
// substrate under both single-query Search and batched MultiSearch.
//
// Every index backend used to rebuild its entire search state per query: an
// unordered_set of visited nodes plus two priority queues in HNSW's beam
// search, a fresh scores(n) vector in the quantized flat scan, a fresh ADC
// table in IVF-PQ. A SearchWorkspace owns all of that state once per thread
// and hands it back query after query:
//
//   * an epoch-stamped visited array — O(1) clear per search (bump the
//     epoch), no hashing, no rehash allocations;
//   * candidate/best heap vectors maintained with std::push_heap/pop_heap —
//     std::priority_queue is specified in terms of exactly these algorithms,
//     so extraction order is identical, but the vectors persist across
//     queries;
//   * pooled float scratch (scores, ADC tables, gathered query rows) backed
//     by tensor::Storage, so growth goes through the BufferPool and shows up
//     in its acquire/miss counters — the bench_batch_exec allocs/query gate
//     reads those counters directly;
//   * reusable TopK / BatchTopK selectors whose heap storage also persists.
//
// A workspace is single-threaded by design: each searching thread uses its
// own, normally via ThreadLocalSearchWorkspace(). Nothing here locks.
//
// tools/lint.py (rule ann-search-container) forbids std::unordered_set and
// std::priority_queue construction elsewhere in src/ann — search-path
// containers belong here, where they are reused, not re-allocated.

#ifndef UNIMATCH_ANN_WORKSPACE_H_
#define UNIMATCH_ANN_WORKSPACE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/tensor/storage.h"

namespace unimatch::ann {

struct SearchResult {
  int64_t id = -1;
  float score = 0.0f;
};

namespace heap_internal {

/// (score, id) heap element shared by the top-k selectors and the HNSW beam.
using Entry = std::pair<float, int64_t>;

/// Min-heap-by-score ordering with the repo's tie-break: among equal scores
/// the larger id sits at the top and is evicted first, so a full selector
/// keeps the k smallest ids of a tied score band. Identical to the
/// comparator the pre-workspace std::priority_queue TopK used.
struct MinScoreCmp {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;  // larger id evicted first on ties
  }
};

}  // namespace heap_internal

/// Keeps the k largest (score, id) pairs using a min-heap over a reusable
/// vector (std::push_heap/pop_heap — same algorithms, and therefore the
/// same extraction order, as the std::priority_queue it replaced), then
/// returns them sorted descending (ties broken toward smaller ids).
class TopK {
 public:
  explicit TopK(int k = 1) : k_(k) {}

  /// Re-arms the selector for a new query; keeps the heap's capacity.
  void Reset(int k) {
    k_ = k;
    heap_.clear();
  }

  void Offer(int64_t id, float score) {
    if (static_cast<int>(heap_.size()) < k_) {
      heap_.push_back({score, id});
      std::push_heap(heap_.begin(), heap_.end(), heap_internal::MinScoreCmp{});
    } else if (score > heap_.front().first) {
      std::pop_heap(heap_.begin(), heap_.end(), heap_internal::MinScoreCmp{});
      heap_.back() = {score, id};
      std::push_heap(heap_.begin(), heap_.end(), heap_internal::MinScoreCmp{});
    }
  }

  std::vector<SearchResult> Take() {
    std::vector<SearchResult> out(heap_.size());
    TakeInto(out.data(), static_cast<int>(heap_.size()));
    return out;
  }

  /// Drains into `out[0..pad)`: the kept results sorted descending, then
  /// {id=-1, score=0} padding when fewer than `pad` rows were offered.
  void TakeInto(SearchResult* out, int pad) {
    const int n = static_cast<int>(heap_.size());
    for (int i = n - 1; i >= 0; --i) {
      out[i] = {heap_.front().second, heap_.front().first};
      std::pop_heap(heap_.begin(), heap_.end(), heap_internal::MinScoreCmp{});
      heap_.pop_back();
    }
    for (int i = n; i < pad; ++i) out[i] = {-1, 0.0f};
  }

 private:
  int k_;
  std::vector<heap_internal::Entry> heap_;
};

/// nq independent TopK selectors over one flat [nq * k] entry slab — the
/// selector behind the query-major blocked scans, where every query offers
/// from the same cache-resident catalog block before the block advances.
/// Per-query semantics (ordering, tie-breaks) are exactly TopK's.
class BatchTopK {
 public:
  void Reset(int64_t nq, int k) {
    nq_ = nq;
    k_ = k;
    entries_.resize(static_cast<size_t>(nq) * k);
    sizes_.assign(static_cast<size_t>(nq), 0);
  }

  void Offer(int64_t q, int64_t id, float score) {
    heap_internal::Entry* h = entries_.data() + q * k_;
    int& sz = sizes_[q];
    if (sz < k_) {
      h[sz] = {score, id};
      ++sz;
      std::push_heap(h, h + sz, heap_internal::MinScoreCmp{});
    } else if (score > h[0].first) {
      std::pop_heap(h, h + k_, heap_internal::MinScoreCmp{});
      h[k_ - 1] = {score, id};
      std::push_heap(h, h + k_, heap_internal::MinScoreCmp{});
    }
  }

  /// Drains all queries into `out` query-major: out[q * k + r] is query q's
  /// rank-r result, padded with {id=-1, score=0} past the offered rows.
  void TakeInto(SearchResult* out) {
    for (int64_t q = 0; q < nq_; ++q) {
      heap_internal::Entry* h = entries_.data() + q * k_;
      SearchResult* o = out + q * k_;
      const int n = sizes_[q];
      for (int i = n - 1; i >= 0; --i) {
        o[i] = {h[0].second, h[0].first};
        std::pop_heap(h, h + i + 1, heap_internal::MinScoreCmp{});
      }
      for (int i = n; i < k_; ++i) o[i] = {-1, 0.0f};
    }
  }

 private:
  int64_t nq_ = 0;
  int k_ = 0;
  std::vector<heap_internal::Entry> entries_;  // [nq * k]
  std::vector<int> sizes_;                     // offered rows per query
};

/// Per-thread scratch for index search. Grow-once: every buffer keeps its
/// high-water capacity across queries, so a steady-state search performs no
/// heap or pool allocation at all (the bench_batch_exec hard gate).
class SearchWorkspace {
 public:
  SearchWorkspace() = default;
  SearchWorkspace(const SearchWorkspace&) = delete;
  SearchWorkspace& operator=(const SearchWorkspace&) = delete;

  // --- epoch-stamped visited set over node ids [0, n) -------------------
  // Replaces HNSW's per-query unordered_set: marking every stamp stale is
  // one epoch increment, not a clear() walk or a fresh hash table.

  void BeginVisitEpoch(int64_t n) {
    if (static_cast<int64_t>(visit_stamp_.size()) < n) {
      visit_stamp_.resize(n, 0);
    }
    if (++visit_epoch_ == 0) {  // stamp wrap: all stamps are stale anyway
      std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0u);
      visit_epoch_ = 1;
    }
    visits_this_epoch_ = 0;
  }

  /// True the first time `node` is visited this epoch.
  bool Visit(int64_t node) {
    if (visit_stamp_[node] == visit_epoch_) return false;
    visit_stamp_[node] = visit_epoch_;
    ++visits_this_epoch_;
    return true;
  }

  int64_t visits_this_epoch() const { return visits_this_epoch_; }

  // --- pooled float scratch (tensor::Storage, BufferPool-counted) -------

  /// Blocked score matrix for the flat scans ([nq, block]).
  float* Scores(int64_t n) { return Grow(&scores_, n); }
  /// Batched ADC slab for IVF-PQ ([m, nq, ks]).
  float* Adc(int64_t n) { return Grow(&adc_, n); }
  /// Gathered (dequantized) query rows for the serving snapshot layer.
  float* Queries(int64_t n) { return Grow(&queries_, n); }
  /// Decoded catalog block for the quantized flat scan ([block, d]) —
  /// separate from Queries(), which the snapshot layer holds live across
  /// the MultiSearch call that fills this buffer.
  float* DequantBlock(int64_t n) { return Grow(&dequant_block_, n); }

  // --- reusable selectors and heap vectors ------------------------------

  /// Coarse-probe selector (IVF / IVF-PQ centroid ranking), re-armed to k.
  TopK& coarse_topk(int k) {
    coarse_topk_.Reset(k);
    return coarse_topk_;
  }
  /// Per-query result selector, re-armed to k.
  TopK& result_topk(int k) {
    result_topk_.Reset(k);
    return result_topk_;
  }
  /// Query-major selector for the blocked flat scans (caller Resets).
  BatchTopK& batch_topk() { return batch_topk_; }

  /// HNSW beam-search heaps: candidates (max-heap) and best (min-heap).
  std::vector<std::pair<float, int64_t>>& candidates() { return candidates_; }
  std::vector<std::pair<float, int64_t>>& best() { return best_; }
  /// SearchLayer's result vector (best-first), reused across layers.
  std::vector<std::pair<float, int64_t>>& layer_results() {
    return layer_results_;
  }

  /// Coarse-probe result rows (TopK::TakeInto target).
  SearchResult* ProbeScratch(int n) {
    probe_scratch_.resize(static_cast<size_t>(n));
    return probe_scratch_.data();
  }
  /// Batched per-query result rows for the serving snapshot layer.
  SearchResult* ResultScratch(int64_t n) {
    result_scratch_.resize(static_cast<size_t>(n));
    return result_scratch_.data();
  }
  /// Request-slot -> compacted-query mapping for the snapshot layer.
  std::vector<int64_t>& gather_slots() { return gather_slots_; }

 private:
  float* Grow(Storage* slot, int64_t n) {
    if (slot->size() < n) *slot = Storage::Allocate(n);
    return slot->data();
  }

  std::vector<uint32_t> visit_stamp_;
  uint32_t visit_epoch_ = 0;
  int64_t visits_this_epoch_ = 0;

  Storage scores_;
  Storage adc_;
  Storage queries_;
  Storage dequant_block_;

  TopK coarse_topk_;
  TopK result_topk_;
  BatchTopK batch_topk_;
  std::vector<std::pair<float, int64_t>> candidates_;
  std::vector<std::pair<float, int64_t>> best_;
  std::vector<std::pair<float, int64_t>> layer_results_;
  std::vector<SearchResult> probe_scratch_;
  std::vector<SearchResult> result_scratch_;
  std::vector<int64_t> gather_slots_;
};

/// The calling thread's workspace — one per thread, created on first use.
/// The single-query Search wrapper, the HNSW build path, and the serving
/// snapshot layer all search through this instance, so a thread's steady
/// state recycles one set of buffers no matter which backend it queries.
SearchWorkspace& ThreadLocalSearchWorkspace();

}  // namespace unimatch::ann

#endif  // UNIMATCH_ANN_WORKSPACE_H_
