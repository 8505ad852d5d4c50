#include "src/serving/snapshot.h"

#include <utility>
#include <vector>

#include "src/ann/pq.h"
#include "src/obs/obs.h"
#include "src/util/contract.h"

namespace unimatch::serving {

namespace {

// Query rows are dequantized per request into a caller-provided buffer.
// kF32 tables hand back the row pointer directly (no copy). The stack
// buffer covers every realistic embedding width; wider tables spill to the
// heap vector.
constexpr int64_t kStackQueryDim = 256;

const float* QueryRow(const QuantizedMatrix& table, int64_t row,
                      float (&stack)[kStackQueryDim],
                      std::vector<float>& heap) {
  if (table.type() == ScalarType::kF32) return table.f32_row(row);
  float* out = stack;
  if (table.cols() > kStackQueryDim) {
    heap.resize(table.cols());
    out = heap.data();
  }
  table.DequantizeRow(row, out);
  return out;
}

// Shared batched-query path behind MultiRecommendItems / MultiTargetUsers:
// validates every id, compacts the valid query rows into one [nv, d]
// workspace buffer, runs a single MultiSearch, and fans the query-major
// results back to per-slot Results in input order. `validate` must return
// exactly the Status the single-query API reports for that id, so batched
// and unbatched callers observe identical errors.
template <typename Validate>
void MultiQuery(const QuantizedMatrix& table, const ann::Index& index,
                const int64_t* ids, int64_t nq, int n, Validate validate,
                std::vector<Result<std::vector<core::Scored>>>* out) {
  UM_CHECK(out != nullptr);
  UM_CHECK_GT(nq, 0) << "MultiQuery requires at least one id";
  out->clear();
  out->reserve(static_cast<size_t>(nq));
  ann::SearchWorkspace& ws = ann::ThreadLocalSearchWorkspace();
  const int64_t d = table.cols();
  std::vector<int64_t>& slots = ws.gather_slots();
  slots.assign(static_cast<size_t>(nq), -1);
  float* qbuf = ws.Queries(nq * d);
  int64_t nv = 0;
  for (int64_t i = 0; i < nq; ++i) {
    if (!validate(ids[i]).ok()) continue;
    // DequantizeRow writes the same floats QueryRow hands the single-query
    // path (a copy instead of an alias for kF32), so scores match bitwise.
    table.DequantizeRow(ids[i], qbuf + nv * d);
    slots[i] = nv++;
  }
  ann::SearchResult* results = nullptr;
  if (nv > 0) {
    // The backends use disjoint workspace scratch (scores/ADC/heaps), so
    // handing them the same `ws` that holds our query buffer is safe.
    results = ws.ResultScratch(nv * n);
    index.MultiSearch(qbuf, nv, n, ws, results);
  }
  for (int64_t i = 0; i < nq; ++i) {
    if (slots[i] < 0) {
      out->emplace_back(validate(ids[i]));
      continue;
    }
    const ann::SearchResult* r = results + slots[i] * n;
    std::vector<core::Scored> scored;
    scored.reserve(static_cast<size_t>(n));
    for (int j = 0; j < n; ++j) {
      if (r[j].id < 0) break;  // padding: fewer than n rows indexed
      scored.push_back({r[j].id, r[j].score});
    }
    out->emplace_back(std::move(scored));
  }
}

}  // namespace

Result<std::shared_ptr<const EngineSnapshot>> EngineSnapshot::FromEngine(
    const core::UniMatchEngine& engine, int64_t version,
    SnapshotOptions options) {
  if (!engine.fitted()) {
    return Status::FailedPrecondition("cannot snapshot an unfitted engine");
  }
  UM_SCOPED_TIMER("serving.frontend.snapshot.build.ms");
  auto snap = std::make_shared<EngineSnapshot>(Private{});
  snap->version_ = version;
  // For kF32 the QuantizedMatrix aliases the engine's refcounted Storage:
  // the snapshot pins the matrices as of now, and a later RebuildIndexes in
  // the engine rebinds the engine's handles without touching these buffers.
  // Quantized storage copies into fresh code buffers and never retains the
  // floats.
  snap->user_table_ =
      QuantizedMatrix::Quantize(engine.user_embeddings(),
                                options.table_storage);
  snap->item_table_ =
      QuantizedMatrix::Quantize(engine.item_embeddings(),
                                options.table_storage);
  snap->num_users_ = snap->user_table_.rows();
  snap->num_items_ = snap->item_table_.rows();
  snap->dim_ = snap->item_table_.cols();
  const data::DatasetSplits* splits = engine.splits();
  UM_CHECK(splits != nullptr);
  snap->servable_.reserve(splits->histories.size());
  for (const auto& history : splits->histories) {
    snap->servable_.push_back(history.empty() ? 0 : 1);
  }
  // The engine's indexes are built over exactly these matrices and are
  // never mutated once built, so the snapshot shares them.
  snap->item_index_ = engine.item_index();
  snap->user_index_ = engine.user_index();
  UM_GAUGE_SET("serving.frontend.snapshot.table_bytes_per_user",
               snap->table_bytes_per_user());
  return std::shared_ptr<const EngineSnapshot>(std::move(snap));
}

Result<std::shared_ptr<const EngineSnapshot>> EngineSnapshot::FromEmbeddings(
    Tensor user_embeddings, Tensor item_embeddings, int64_t version,
    std::vector<uint8_t> servable_users, SnapshotOptions options) {
  if (user_embeddings.rank() != 2 || item_embeddings.rank() != 2) {
    return Status::InvalidArgument("embeddings must be [N, d] matrices");
  }
  if (user_embeddings.dim(1) != item_embeddings.dim(1)) {
    return Status::InvalidArgument(
        "user/item embedding dimensions disagree");
  }
  if (!servable_users.empty() &&
      static_cast<int64_t>(servable_users.size()) != user_embeddings.dim(0)) {
    return Status::InvalidArgument(
        "servable_users size must match the user count");
  }
  UM_SCOPED_TIMER("serving.frontend.snapshot.build.ms");
  auto snap = std::make_shared<EngineSnapshot>(Private{});
  snap->version_ = version;
  snap->user_table_ =
      QuantizedMatrix::Quantize(user_embeddings, options.table_storage);
  snap->item_table_ =
      QuantizedMatrix::Quantize(item_embeddings, options.table_storage);
  snap->num_users_ = snap->user_table_.rows();
  snap->num_items_ = snap->item_table_.rows();
  snap->dim_ = snap->item_table_.cols();
  snap->servable_ = std::move(servable_users);
  std::unique_ptr<ann::Index> item_index, user_index;
  if (options.table_storage == ScalarType::kF32) {
    item_index = std::make_unique<ann::BruteForceIndex>();
    user_index = std::make_unique<ann::BruteForceIndex>();
  } else {
    // Quantized tables get the matching quantized flat scan, so candidate
    // scores come from the same codes the tables hold.
    item_index =
        std::make_unique<ann::QuantizedFlatIndex>(options.table_storage);
    user_index =
        std::make_unique<ann::QuantizedFlatIndex>(options.table_storage);
  }
  UNIMATCH_RETURN_IF_ERROR(item_index->Build(item_embeddings));
  UNIMATCH_RETURN_IF_ERROR(user_index->Build(user_embeddings));
  snap->item_index_ = std::move(item_index);
  snap->user_index_ = std::move(user_index);
  UM_GAUGE_SET("serving.frontend.snapshot.table_bytes_per_user",
               snap->table_bytes_per_user());
  return std::shared_ptr<const EngineSnapshot>(std::move(snap));
}

Result<std::vector<core::Scored>> EngineSnapshot::RecommendItems(
    data::UserId user, int n) const {
  if (n <= 0) return Status::InvalidArgument("n must be positive");
  if (user < 0 || user >= num_users()) {
    return Status::NotFound("unknown user id");
  }
  if (!servable_.empty() && servable_[user] == 0) {
    return Status::NotFound("user has no interaction history");
  }
  float stack[kStackQueryDim];
  std::vector<float> heap;
  const float* uvec = QueryRow(user_table_, user, stack, heap);
  std::vector<core::Scored> out;
  for (const auto& r : item_index_->Search(uvec, n)) {
    out.push_back({r.id, r.score});
  }
  return out;
}

Result<std::vector<core::Scored>> EngineSnapshot::TargetUsers(
    data::ItemId item, int n) const {
  if (n <= 0) return Status::InvalidArgument("n must be positive");
  if (item < 0 || item >= num_items()) {
    return Status::NotFound("unknown item id");
  }
  float stack[kStackQueryDim];
  std::vector<float> heap;
  const float* ivec = QueryRow(item_table_, item, stack, heap);
  std::vector<core::Scored> out;
  for (const auto& r : user_index_->Search(ivec, n)) {
    out.push_back({r.id, r.score});
  }
  return out;
}

void EngineSnapshot::MultiRecommendItems(
    const data::UserId* users, int64_t nq, int n,
    std::vector<Result<std::vector<core::Scored>>>* out) const {
  auto validate = [this, n](int64_t user) {
    if (n <= 0) return Status::InvalidArgument("n must be positive");
    if (user < 0 || user >= num_users()) {
      return Status::NotFound("unknown user id");
    }
    if (!servable_.empty() && servable_[user] == 0) {
      return Status::NotFound("user has no interaction history");
    }
    return Status::OK();
  };
  MultiQuery(user_table_, *item_index_, users, nq, n, validate, out);
}

void EngineSnapshot::MultiTargetUsers(
    const data::ItemId* items, int64_t nq, int n,
    std::vector<Result<std::vector<core::Scored>>>* out) const {
  auto validate = [this, n](int64_t item) {
    if (n <= 0) return Status::InvalidArgument("n must be positive");
    if (item < 0 || item >= num_items()) {
      return Status::NotFound("unknown item id");
    }
    return Status::OK();
  };
  MultiQuery(item_table_, *user_index_, items, nq, n, validate, out);
}

void SnapshotPublisher::Publish(
    std::shared_ptr<const EngineSnapshot> snapshot) {
  UM_CHECK(snapshot != nullptr) << "Publish requires a snapshot";
  [[maybe_unused]] const int64_t version = snapshot->version();
  current_.store(std::move(snapshot), std::memory_order_release);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  UM_GAUGE_SET("serving.frontend.snapshot.version",
               static_cast<double>(version));
  UM_COUNTER_INC("serving.frontend.snapshot.swaps");
}

std::shared_ptr<const EngineSnapshot> SnapshotPublisher::Current() const {
  return current_.load(std::memory_order_acquire);
}

}  // namespace unimatch::serving

// Default ThreadSanitizer suppression, active only in TSan builds.
//
// libstdc++ 12's std::atomic<std::shared_ptr> (_Sp_atomic) guards its raw
// pointer with a spinlock bit, but load() releases that bit with a
// memory_order_relaxed fetch_sub. Mutual exclusion is real, yet the relaxed
// unlock forms no synchronizes-with edge, so TSan (correctly, per the formal
// model) reports the locked read in one thread racing the next thread's
// locked write — frames entirely inside the standard library. The
// Publish/Current pair above hits this under load. Suppress by the library
// type name, not our call sites, so genuine races in repo code keep firing.
// The hook lives in this TU (not a standalone file) so the linker pulls it
// out of the static archive exactly when the code that needs it is linked.
#if defined(__SANITIZE_THREAD__)
#define UNIMATCH_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define UNIMATCH_TSAN_ACTIVE 1
#endif
#endif

#if defined(UNIMATCH_TSAN_ACTIVE)
extern "C" const char* __tsan_default_suppressions();
extern "C" const char* __tsan_default_suppressions() {
  return "race:std::_Sp_atomic\n";
}
#endif
