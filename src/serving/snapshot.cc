#include "src/serving/snapshot.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/obs/obs.h"
#include "src/util/contract.h"

namespace unimatch::serving {

namespace {

// The batched query path behind every IR/UT answer: validates every id,
// compacts the valid query rows into one [nv, d] workspace buffer, runs a
// single MultiSearch, and fans the query-major results back to per-slot
// Results in input order. An invalid id's slot carries `validate`'s Status.
// Past the index's row count a search returns only padding, which the
// fan-out trims, so k is capped there: every answer is the same as at n,
// and a huge n never sizes a buffer.
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
  const int k = static_cast<int>(std::min<int64_t>(n, index.size()));
  int64_t nv = 0;
  for (int64_t i = 0; i < nq; ++i) {
    if (!validate(ids[i]).ok()) continue;
    // DequantizeRow writes the row's float values (a copy of them for
    // kF32), so every score equals Index::Search on that row bitwise.
    table.DequantizeRow(ids[i], qbuf + nv * d);
    slots[i] = nv++;
  }
  ann::SearchResult* results = nullptr;
  if (nv > 0) {
    // The backends use disjoint workspace scratch (scores/ADC/heaps), so
    // handing them the same `ws` that holds our query buffer is safe.
    results = ws.ResultScratch(nv * k);
    index.MultiSearch(qbuf, nv, k, ws, results);
  }
  for (int64_t i = 0; i < nq; ++i) {
    if (slots[i] < 0) {
      out->emplace_back(validate(ids[i]));
      continue;
    }
    const ann::SearchResult* r = results + slots[i] * k;
    std::vector<core::Scored> scored;
    scored.reserve(static_cast<size_t>(k));
    for (int j = 0; j < k; ++j) {
      if (r[j].id < 0) break;  // padding: fewer than k rows found
      scored.push_back({r[j].id, r[j].score});
    }
    out->emplace_back(std::move(scored));
  }
}

}  // namespace

std::shared_ptr<const EngineSnapshot> EngineSnapshot::Make(
    int64_t version, QuantizedMatrix user_table, QuantizedMatrix item_table,
    std::vector<uint8_t> servable,
    std::shared_ptr<const ann::Index> item_index,
    std::shared_ptr<const ann::Index> user_index) {
  auto snap = std::make_shared<EngineSnapshot>(Private{});
  snap->version_ = version;
  snap->user_table_ = std::move(user_table);
  snap->item_table_ = std::move(item_table);
  snap->servable_ = std::move(servable);
  snap->item_index_ = std::move(item_index);
  snap->user_index_ = std::move(user_index);
  UM_GAUGE_SET("serving.frontend.snapshot.table_bytes_per_user",
               snap->table_bytes_per_user());
  return snap;
}

Result<std::shared_ptr<const EngineSnapshot>> EngineSnapshot::FromEngine(
    const core::UniMatchEngine& engine, int64_t version) {
  if (!engine.fitted()) {
    return Status::FailedPrecondition("cannot snapshot an unfitted engine");
  }
  UM_SCOPED_TIMER("serving.frontend.snapshot.build.ms");
  // The generation's f32 tables alias refcounted Storage, so a later
  // refresh replaces the engine's snapshot without touching these buffers.
  const EngineSnapshot& generation = *engine.snapshot();
  return Make(version, generation.user_table_, generation.item_table_,
              generation.servable_, generation.item_index_,
              generation.user_index_);
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
  // Each table is the one its index scans, so candidate scores come from
  // the codes the snapshot holds. Build rejects an empty table.
  auto item_index =
      std::make_shared<ann::BruteForceIndex>(options.table_storage);
  auto user_index =
      std::make_shared<ann::BruteForceIndex>(options.table_storage);
  UNIMATCH_RETURN_IF_ERROR(item_index->Build(item_embeddings));
  UNIMATCH_RETURN_IF_ERROR(user_index->Build(user_embeddings));
  return Make(version, user_index->table(), item_index->table(),
              std::move(servable_users), item_index, user_index);
}

Result<std::vector<core::Scored>> EngineSnapshot::RecommendItems(
    data::UserId user, int n) const {
  std::vector<Result<std::vector<core::Scored>>> out;
  MultiRecommendItems(&user, 1, n, &out);
  return std::move(out[0]);
}

Result<std::vector<core::Scored>> EngineSnapshot::TargetUsers(
    data::ItemId item, int n) const {
  std::vector<Result<std::vector<core::Scored>>> out;
  MultiTargetUsers(&item, 1, n, &out);
  return std::move(out[0]);
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
