#include "src/serving/frontend.h"

#include <algorithm>
#include <utility>

#include "src/obs/obs.h"
#include "src/util/logging.h"

namespace unimatch::serving {
namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

// One (kind-family, top_k) slice of a micro-batch, executed as a single
// batched MultiSearch. IR requests query the item index; UT and audience
// requests both query the user index, so they share a group when their
// top_k matches.
struct ServingFrontend::GroupExec {
  bool ir = false;  // true: item index (IR); false: user index (UT/audience)
  int top_k = 0;
  std::vector<size_t> slots;  // batch positions, in arrival order
  std::vector<int64_t> ids;   // query ids, parallel to slots
};

const char* RequestKindToString(RequestKind kind) {
  switch (kind) {
    case RequestKind::kRecommendItems:
      return "recommend_items";
    case RequestKind::kTargetUsers:
      return "target_users";
    case RequestKind::kBuildAudience:
      return "build_audience";
  }
  return "unknown";
}

ServingFrontend::ServingFrontend(FrontendConfig config,
                                 SnapshotPublisher* publisher)
    : config_(config),
      publisher_(publisher),
      exec_pool_(config.num_threads),
      batcher_pool_(1) {
  UM_CHECK(publisher_ != nullptr) << "frontend needs a SnapshotPublisher";
  UM_CHECK_GT(config_.max_queue_depth, 0);
  UM_CHECK_GT(config_.max_batch, 0);
  UM_CHECK_GE(config_.batch_window_us, 0);
  UM_CHECK_GT(config_.max_inflight_batches, 0);
  auto* registry = obs::MetricRegistry::Global();
  batch_occupancy_ = registry->GetHistogram(
      "serving.frontend.batch.occupancy", "requests",
      "requests coalesced per micro-batch",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
  exec_group_size_ = registry->GetHistogram(
      "serving.frontend.batch.exec_group.size", "requests",
      "requests answered by one grouped MultiSearch",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
  queue_wait_ms_ = registry->GetHistogram(
      "serving.frontend.stage.queue.ms", "ms",
      "admission-to-batch-dispatch wait per request");
  execute_ms_ = registry->GetHistogram(
      "serving.frontend.stage.execute.ms", "ms",
      "score + ANN execution latency per batch");
  request_ms_ = registry->GetHistogram(
      "serving.frontend.request.ms", "ms",
      "end-to-end latency per answered request");
  batcher_pool_.Schedule([this] { BatcherLoop(); });
}

ServingFrontend::~ServingFrontend() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  queue_cv_.NotifyAll();
  batcher_pool_.Wait();  // batcher exits only once the queue is empty
  exec_pool_.Wait();     // every dispatched batch has answered
}

std::future<Response> ServingFrontend::Submit(Request request) {
  std::promise<Response> promise;
  std::future<Response> future = promise.get_future();
  bool shutting_down = false;
  {
    MutexLock lock(&mu_);
    if (!stopping_ &&
        queue_.size() < static_cast<size_t>(config_.max_queue_depth)) {
      ++admitted_;
      queue_.push_back(
          Pending{request, std::move(promise), Clock::now()});
      UM_GAUGE_SET("serving.frontend.queue.depth",
                   static_cast<double>(queue_.size()));
      UM_COUNTER_INC("serving.frontend.admitted");
      queue_cv_.NotifyOne();
      return future;
    }
    shutting_down = stopping_;
    ++shed_;
  }
  UM_COUNTER_INC("serving.frontend.shed");
  Response response;
  response.status = Status::Overloaded(
      shutting_down ? "frontend is shutting down"
                    : "admission queue full; retry with backoff");
  promise.set_value(std::move(response));
  return future;
}

void ServingFrontend::Drain() {
  MutexLock lock(&mu_);
  while (!queue_.empty() || inflight_batches_ > 0) state_cv_.Wait(mu_);
}

int64_t ServingFrontend::admitted() const {
  MutexLock lock(&mu_);
  return admitted_;
}

int64_t ServingFrontend::shed() const {
  MutexLock lock(&mu_);
  return shed_;
}

int64_t ServingFrontend::completed() const {
  MutexLock lock(&mu_);
  return completed_;
}

void ServingFrontend::BatcherLoop() {
  const auto window = std::chrono::microseconds(config_.batch_window_us);
  // Explicit Lock/Unlock (not MutexLock): the loop drops the lock around
  // batch dispatch and reacquires for the next iteration, and the
  // thread-safety analysis checks the hold state is consistent at every
  // join point. Wait predicates are re-checked in inline loops so the
  // guarded reads are visibly under the lock.
  mu_.Lock();
  for (;;) {
    while (queue_.empty() && !stopping_) queue_cv_.Wait(mu_);
    if (queue_.empty()) {
      if (stopping_) {
        mu_.Unlock();
        return;
      }
      continue;
    }
    // Coalesce: flush at the size budget, the oldest request's window
    // deadline, or shutdown — whichever comes first.
    const auto deadline = queue_.front().enqueued_at + window;
    while (queue_.size() < static_cast<size_t>(config_.max_batch) &&
           !stopping_ && Clock::now() < deadline) {
      queue_cv_.WaitUntil(mu_, deadline);
    }
    const bool flush_full =
        queue_.size() >= static_cast<size_t>(config_.max_batch);
    // Backpressure: hold the batch until an executor slot frees up. The
    // queue keeps absorbing arrivals meanwhile and sheds past its bound.
    while (inflight_batches_ >= config_.max_inflight_batches) {
      state_cv_.Wait(mu_);
    }
    auto batch = std::make_shared<std::vector<Pending>>();
    const size_t take =
        std::min(queue_.size(), static_cast<size_t>(config_.max_batch));
    batch->reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch->push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
    ++inflight_batches_;
    UM_GAUGE_SET("serving.frontend.queue.depth",
                 static_cast<double>(queue_.size()));
    mu_.Unlock();

    if (flush_full) {
      UM_COUNTER_INC("serving.frontend.batch.flush_full");
    } else {
      UM_COUNTER_INC("serving.frontend.batch.flush_window");
    }
    if (obs::MetricsEnabled()) {
      batch_occupancy_->Observe(static_cast<double>(batch->size()));
    }
    // Pin once per batch: every request in it is served by one coherent
    // model generation, and a concurrent Publish only affects later
    // batches.
    std::shared_ptr<const EngineSnapshot> snapshot = publisher_->Current();
    exec_pool_.Schedule(
        [this, batch = std::move(batch), snapshot = std::move(snapshot)] {
          ExecuteBatch(batch, snapshot);
        });

    mu_.Lock();
  }
}

void ServingFrontend::ExecuteBatch(
    std::shared_ptr<std::vector<Pending>> batch,
    std::shared_ptr<const EngineSnapshot> snapshot) {
  const auto start = Clock::now();
  if (obs::MetricsEnabled()) {
    for (const Pending& pending : *batch) {
      queue_wait_ms_->Observe(MillisSince(pending.enqueued_at, start));
    }
  }
  if (snapshot == nullptr) {
    for (Pending& pending : *batch) {
      Response response;
      response.status =
          Status::FailedPrecondition("no engine snapshot published");
      FinishRequest(&pending, std::move(response));
    }
  } else {
    // Group the batch by (kind-family, top_k): every request in a group is
    // answered by one batched MultiSearch against the same index with the
    // same k. A linear scan suffices — batches hold at most max_batch
    // requests and real traffic concentrates on a handful of (kind, k)
    // shapes.
    std::vector<GroupExec> groups;
    for (size_t i = 0; i < batch->size(); ++i) {
      const Request& r = (*batch)[i].request;
      const bool ir = r.kind == RequestKind::kRecommendItems;
      GroupExec* group = nullptr;
      for (GroupExec& candidate : groups) {
        if (candidate.ir == ir && candidate.top_k == r.top_k) {
          group = &candidate;
          break;
        }
      }
      if (group == nullptr) {
        group = &groups.emplace_back();
        group->ir = ir;
        group->top_k = r.top_k;
      }
      group->slots.push_back(i);
      group->ids.push_back(r.id);
    }
    for (const GroupExec& group : groups) {
      ExecuteGroup(*snapshot, group, *batch);
    }
  }
  if (obs::MetricsEnabled()) {
    execute_ms_->Observe(MillisSince(start, Clock::now()));
  }
  {
    MutexLock lock(&mu_);
    --inflight_batches_;
    completed_ += static_cast<int64_t>(batch->size());
  }
  state_cv_.NotifyAll();
}

void ServingFrontend::ExecuteGroup(const EngineSnapshot& snapshot,
                                   const GroupExec& group,
                                   std::vector<Pending>& batch) {
  const int64_t nq = static_cast<int64_t>(group.slots.size());
  UM_COUNTER_INC("serving.frontend.batch.exec_groups");
  if (obs::MetricsEnabled()) {
    exec_group_size_->Observe(static_cast<double>(nq));
  }
  std::vector<Result<std::vector<core::Scored>>> results;
  if (group.ir) {
    snapshot.MultiRecommendItems(group.ids.data(), nq, group.top_k, &results);
  } else {
    snapshot.MultiTargetUsers(group.ids.data(), nq, group.top_k, &results);
  }
  for (int64_t j = 0; j < nq; ++j) {
    Pending& pending = batch[group.slots[j]];
    switch (pending.request.kind) {
      case RequestKind::kRecommendItems:
        UM_COUNTER_INC("serving.frontend.requests.ir");
        break;
      case RequestKind::kTargetUsers:
        UM_COUNTER_INC("serving.frontend.requests.ut");
        break;
      case RequestKind::kBuildAudience:
        UM_COUNTER_INC("serving.frontend.requests.audience");
        break;
    }
    Response response;
    response.snapshot_version = snapshot.version();
    Result<std::vector<core::Scored>>& result = results[j];
    if (result.ok()) {
      response.results = std::move(result).value();
    } else {
      response.status = result.status();
    }
    FinishRequest(&pending, std::move(response));
  }
}

void ServingFrontend::FinishRequest(Pending* pending, Response response) {
  if (!response.status.ok()) {
    UM_COUNTER_INC("serving.frontend.errors");
  }
  response.latency_ms = MillisSince(pending->enqueued_at, Clock::now());
  if (obs::MetricsEnabled()) {
    request_ms_->Observe(response.latency_ms);
  }
  UM_COUNTER_INC("serving.frontend.completed");
  pending->promise.set_value(std::move(response));
}

}  // namespace unimatch::serving
