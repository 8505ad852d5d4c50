// Immutable, atomically swappable engine snapshots — the serving half of
// the paper's Fig. 3 deployment loop (train offline, promote online).
//
// An EngineSnapshot is a frozen view of everything request execution
// needs: the normalized user/item embedding matrices (refcounted Storage
// aliases — copying a Tensor pins the buffer, it does not copy floats),
// the ANN indexes built over them, and per-user servability flags. Once
// constructed it is never mutated, so any number of request threads can
// read it without locks.
//
// A SnapshotPublisher holds the "current" snapshot behind a single
// std::atomic<std::shared_ptr>. Readers pin (copy the shared_ptr) once per
// request; a writer publishes a replacement with one atomic store. Readers
// that pinned the old snapshot finish on it — the refcount keeps its
// buffers and indexes alive — so model promotion is zero-downtime by
// construction. See docs/SERVING.md for the full protocol and its
// memory-safety argument.

#ifndef UNIMATCH_SERVING_SNAPSHOT_H_
#define UNIMATCH_SERVING_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/ann/index.h"
#include "src/core/unimatch.h"
#include "src/tensor/quant.h"
#include "src/tensor/tensor.h"
#include "src/util/status.h"

namespace unimatch::serving {

/// Build-time knobs for FromEmbeddings. The default keeps float32 tables.
struct SnapshotOptions {
  /// Element type of the frozen embedding tables (src/tensor/quant.h).
  /// kF16/kI8 cut the per-user memory bill 2x/~3-4x; query rows are
  /// dequantized per request, and FromEmbeddings pairs the tables with a
  /// BruteForceIndex of the same storage type, so candidate scoring stays
  /// consistent with the stored codes.
  ScalarType table_storage = ScalarType::kF32;
};

/// Frozen model + index state serving one traffic generation: the one query
/// object behind every IR/UT answer for a known id. UniMatchEngine answers
/// through the snapshot of its current generation; campaigns
/// (src/serving/campaign.h) and the serving frontend take one. Construct
/// via FromEngine / FromEmbeddings; always held as shared_ptr<const>.
class EngineSnapshot {
 public:
  /// Snapshots a fitted engine's current generation by sharing all of it
  /// (float tables, servable flags, indexes): no table is copied and no
  /// index is built, and a later refresh replaces the engine's generation
  /// rather than mutating it. `version` is the promotion counter (e.g. the
  /// training month); it only feeds observability. Quantized tables come
  /// from FromEmbeddings, which builds indexes over the stored codes.
  static Result<std::shared_ptr<const EngineSnapshot>> FromEngine(
      const core::UniMatchEngine& engine, int64_t version);

  /// Builds a snapshot directly from embedding matrices ([M, d] users,
  /// [K, d] items, both non-empty) — the hand-off path for embeddings
  /// loaded from an EmbeddingBundle, and the test/bench path that needs no
  /// trained engine. Both tables get a BruteForceIndex of the table
  /// storage type. Users with an all-zero embedding row are treated as
  /// unservable only when `servable_users` is given.
  static Result<std::shared_ptr<const EngineSnapshot>> FromEmbeddings(
      Tensor user_embeddings, Tensor item_embeddings, int64_t version,
      std::vector<uint8_t> servable_users = {}, SnapshotOptions options = {});

  /// IR: top-n items for a known user — slot 0 of a one-id
  /// MultiRecommendItems.
  Result<std::vector<core::Scored>> RecommendItems(data::UserId user,
                                                   int n) const;
  /// UT: top-n users for a known item — slot 0 of a one-id
  /// MultiTargetUsers.
  Result<std::vector<core::Scored>> TargetUsers(data::ItemId item,
                                                int n) const;

  /// Batched IR: answers `users[0..nq)` (nq > 0) with one grouped
  /// MultiSearch against the item index instead of nq independent scans.
  /// Appends exactly nq Results to *out in input order; slot i carries
  /// RecommendItems(users[i], n) — bitwise, since the batched index path
  /// is score-exact at any batch size (see src/ann/index.h). Invalid ids
  /// cost no query slot: valid rows are compacted into one [nv, d]
  /// workspace buffer and searched together.
  void MultiRecommendItems(
      const data::UserId* users, int64_t nq, int n,
      std::vector<Result<std::vector<core::Scored>>>* out) const;
  /// Batched UT against the user index; per-slot contract as TargetUsers.
  void MultiTargetUsers(
      const data::ItemId* items, int64_t nq, int n,
      std::vector<Result<std::vector<core::Scored>>>* out) const;

  int64_t version() const { return version_; }
  int64_t num_users() const { return user_table_.rows(); }
  int64_t num_items() const { return item_table_.rows(); }
  int64_t dim() const { return item_table_.cols(); }

  /// The frozen tables. For kF32 snapshots these alias the source float
  /// matrices; quantized snapshots drop the floats entirely.
  const QuantizedMatrix& user_table() const { return user_table_; }
  const QuantizedMatrix& item_table() const { return item_table_; }
  ScalarType table_storage() const { return user_table_.type(); }
  /// The bytes-per-user figure exported to
  /// serving.frontend.snapshot.table_bytes_per_user.
  double table_bytes_per_user() const { return user_table_.bytes_per_row(); }

  /// Float views of the tables. Aliases for kF32 snapshots; quantized
  /// snapshots pay a full dequantization copy — tests and hand-off only,
  /// never the request path.
  Tensor user_embeddings() const { return user_table_.Dequantize(); }
  Tensor item_embeddings() const { return item_table_.Dequantize(); }

  /// Passkey: lets Make use std::make_shared while keeping direct
  /// construction private — always go through FromEngine / FromEmbeddings.
  class Private {
    friend class EngineSnapshot;
    Private() = default;
  };
  explicit EngineSnapshot(Private) {}

 private:
  // The engine builds each generation's snapshot through Make, and
  // searches the item index for ad-hoc histories.
  friend class core::UniMatchEngine;

  /// The one construction path behind FromEngine, FromEmbeddings and the
  /// engine's per-generation snapshot: stores the tables, flags and
  /// indexes as given and exports the table_bytes_per_user gauge.
  static std::shared_ptr<const EngineSnapshot> Make(
      int64_t version, QuantizedMatrix user_table, QuantizedMatrix item_table,
      std::vector<uint8_t> servable,
      std::shared_ptr<const ann::Index> item_index,
      std::shared_ptr<const ann::Index> user_index);

  int64_t version_ = 0;
  QuantizedMatrix user_table_;  // [M, d], immutable after construction
  QuantizedMatrix item_table_;  // [K, d]
  /// servable_[u] == 0 marks users without usable history/embedding
  /// (RecommendItems returns NotFound). Empty means every user is
  /// servable.
  std::vector<uint8_t> servable_;
  std::shared_ptr<const ann::Index> item_index_;  // queried by IR
  std::shared_ptr<const ann::Index> user_index_;  // queried by UT
};

/// The single swap point between training and serving. Thread-safe by
/// being lock-free: Current() is one atomic shared_ptr load, Publish() one
/// atomic store — no mutex, so this class sits entirely outside the repo
/// lock-rank order (docs/STATIC_ANALYSIS.md) and is safe to call with any
/// lock held.
class SnapshotPublisher {
 public:
  SnapshotPublisher() = default;
  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  /// Atomically replaces the current snapshot. The previous snapshot stays
  /// alive until its last pinned reader drops it. `snapshot` must not be
  /// null. Updates serving.frontend.snapshot.{version,swaps}.
  void Publish(std::shared_ptr<const EngineSnapshot> snapshot);

  /// Pins and returns the current snapshot (null before first Publish).
  std::shared_ptr<const EngineSnapshot> Current() const;

  /// Number of Publish calls so far.
  int64_t swaps() const { return swaps_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::shared_ptr<const EngineSnapshot>> current_;
  std::atomic<int64_t> swaps_{0};
};

}  // namespace unimatch::serving

#endif  // UNIMATCH_SERVING_SNAPSHOT_H_
