// High-throughput serving frontend: admission control, micro-batching,
// and an async executor over atomically swappable engine snapshots.
//
// This is the traffic-facing layer of the paper's deployment story
// (Fig. 3): a matching service answering item-recommendation (IR),
// user-targeting (UT), and audience-building queries for many concurrent
// callers. Requests flow through a fixed stage graph:
//
//   Submit (admit | shed) -> micro-batch -> execute (score + ANN) -> respond
//
// * Admission: Submit never blocks. Past FrontendConfig::max_queue_depth
//   the request is shed immediately with StatusCode::kOverloaded — callers
//   get a fast, explicit signal instead of unbounded queueing. Accepted
//   requests are never dropped.
// * Micro-batching: a dedicated batcher coalesces queued requests until
//   either max_batch lookups are waiting or the oldest has waited
//   batch_window_us — the classic throughput/latency dial.
// * Execution: batches run on an internal ThreadPool, with at most
//   max_inflight_batches in flight. Within a batch, requests are grouped
//   by (kind-family, top_k) and the batch worker answers each group with
//   one batched MultiSearch (src/ann/index.h) instead of per-request
//   scans. When executors fall behind, the batcher stops draining the
//   queue, the queue fills, and admission starts shedding: backpressure
//   propagates to the edge instead of accumulating latency.
// * Snapshots: each batch pins the current EngineSnapshot once
//   (SnapshotPublisher::Current). A concurrent Publish affects only later
//   batches; in-flight readers keep the old snapshot alive via its
//   refcount, so model promotion never fails or delays a request.
//
// docs/SERVING.md documents the architecture, tuning knobs, metrics, and
// the zero-downtime swap protocol in full.

#ifndef UNIMATCH_SERVING_FRONTEND_H_
#define UNIMATCH_SERVING_FRONTEND_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <vector>

#include "src/obs/metrics.h"
#include "src/serving/snapshot.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/threadpool.h"

namespace unimatch::serving {

enum class RequestKind {
  kRecommendItems,  // IR: id = user, top_k items back
  kTargetUsers,     // UT: id = item, top_k users back
  kBuildAudience,   // UT at campaign size: id = item, top_k = audience size
};

const char* RequestKindToString(RequestKind kind);

struct Request {
  RequestKind kind = RequestKind::kRecommendItems;
  /// User id for kRecommendItems, item id otherwise.
  int64_t id = 0;
  int top_k = 10;
};

struct Response {
  /// OK, or: kOverloaded (shed at admission), kNotFound / kInvalidArgument
  /// (bad id), kFailedPrecondition (no snapshot published yet).
  Status status;
  std::vector<core::Scored> results;
  /// Version of the snapshot that served this request (-1 when shed).
  int64_t snapshot_version = -1;
  /// Admission-to-response service latency (0 when shed) — what the
  /// serving.frontend.request.ms histogram records for this request.
  double latency_ms = 0.0;
};

struct FrontendConfig {
  /// Execution pool size; 0 = hardware concurrency.
  int num_threads = 0;
  /// Admission bound: Submit sheds with kOverloaded past this depth.
  int max_queue_depth = 1024;
  /// Micro-batch size budget: a full batch flushes immediately.
  int max_batch = 64;
  /// Micro-batch window: the oldest queued request waits at most this long
  /// before its batch flushes, full or not.
  int64_t batch_window_us = 200;
  /// Bounded in-flight depth: the batcher stalls (and the queue absorbs /
  /// sheds load) when this many batches are executing. Raising it runs
  /// more batches at once, up to the executor pool's size.
  int max_inflight_batches = 4;
};

/// Concurrent request frontend over a SnapshotPublisher. Thread-safe: all
/// cross-thread state (queue, in-flight count, lifetime totals, stop flag)
/// sits behind one annotated um::Mutex (lockrank::kFrontend) with
/// UM_GUARDED_BY enforced at compile time under -Wthread-safety. The lock
/// is never held across request execution or snapshot pinning — only
/// across queue/counter mutations — so admission stays O(1).
class ServingFrontend {
 public:
  /// `publisher` must outlive the frontend; publishing before the first
  /// Submit is the normal bring-up order, but a frontend with no snapshot
  /// answers kFailedPrecondition rather than crashing.
  ServingFrontend(FrontendConfig config, SnapshotPublisher* publisher);

  /// Drains every accepted request, then stops the workers.
  ~ServingFrontend() UM_EXCLUDES(mu_);

  ServingFrontend(const ServingFrontend&) = delete;
  ServingFrontend& operator=(const ServingFrontend&) = delete;

  /// Admits or sheds; never blocks. The future is fulfilled by the
  /// executor (immediately, with kOverloaded, when shed).
  std::future<Response> Submit(Request request) UM_EXCLUDES(mu_);

  /// Blocks until every request admitted so far has been answered.
  void Drain() UM_EXCLUDES(mu_);

  const FrontendConfig& config() const { return config_; }

  /// Lifetime totals (also exported as serving.frontend.* metrics).
  int64_t admitted() const UM_EXCLUDES(mu_);
  int64_t shed() const UM_EXCLUDES(mu_);
  int64_t completed() const UM_EXCLUDES(mu_);

 private:
  struct Pending {
    Request request;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  /// One (kind-family, top_k) slice of a batch; defined in frontend.cc.
  struct GroupExec;

  void BatcherLoop() UM_EXCLUDES(mu_);
  void ExecuteBatch(std::shared_ptr<std::vector<Pending>> batch,
                    std::shared_ptr<const EngineSnapshot> snapshot)
      UM_EXCLUDES(mu_);
  /// Answers every query of `group` with one MultiRecommendItems /
  /// MultiTargetUsers call on the calling batch worker, then fulfills the
  /// group's promises in arrival order.
  void ExecuteGroup(const EngineSnapshot& snapshot, const GroupExec& group,
                    std::vector<Pending>& batch);
  /// Error accounting + latency stamp + promise fulfillment for one
  /// request.
  void FinishRequest(Pending* pending, Response response);

  const FrontendConfig config_;
  SnapshotPublisher* const publisher_;

  mutable Mutex mu_{lockrank::kFrontend, "serving.frontend"};
  CondVar queue_cv_;  // batcher wakes on arrivals / stop
  CondVar state_cv_;  // Drain / slot waiters wake on change
  std::deque<Pending> queue_ UM_GUARDED_BY(mu_);
  int inflight_batches_ UM_GUARDED_BY(mu_) = 0;
  int64_t admitted_ UM_GUARDED_BY(mu_) = 0;
  int64_t shed_ UM_GUARDED_BY(mu_) = 0;
  int64_t completed_ UM_GUARDED_BY(mu_) = 0;
  bool stopping_ UM_GUARDED_BY(mu_) = false;

  // Cached metric handles (registration is mutex-guarded; hot-path updates
  // are relaxed atomics). The occupancy histogram needs custom bounds, so
  // it bypasses the UM_* macros.
  obs::Histogram* batch_occupancy_;
  obs::Histogram* exec_group_size_;
  obs::Histogram* queue_wait_ms_;
  obs::Histogram* execute_ms_;
  obs::Histogram* request_ms_;

  ThreadPool exec_pool_;     // batch execution
  ThreadPool batcher_pool_;  // one thread: runs BatcherLoop
};

}  // namespace unimatch::serving

#endif  // UNIMATCH_SERVING_FRONTEND_H_
