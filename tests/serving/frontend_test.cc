// Serving-frontend and snapshot-swap coverage. The hard guarantees under
// test:
//  * every admitted request is answered correctly, under any interleaving;
//  * shedding returns kOverloaded without dropping accepted work;
//  * a micro-batch flushes at the window even when underfull;
//  * snapshot promotion under load never fails a request, and readers
//    pinned to the old snapshot stay valid (refcounted Storage).
// All tests must stay clean under the tsan preset (ctest -L tier1).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "src/data/synthetic.h"
#include "src/serving/frontend.h"
#include "src/serving/snapshot.h"
#include "src/util/threadpool.h"

namespace unimatch::serving {
namespace {

// A snapshot with a known answer key: item k's embedding is one-hot axis
// k % d scaled so ties break by id, and user u points along axis
// (u % num_items) % d — user u's top item is deterministic and checkable.
std::shared_ptr<const EngineSnapshot> MakeToySnapshot(
    int64_t num_users, int64_t num_items, int64_t version,
    ScalarType storage = ScalarType::kF32) {
  const int64_t d = 8;
  std::vector<float> items(num_items * d, 0.0f);
  for (int64_t k = 0; k < num_items; ++k) {
    // Unique magnitudes so every (user, item) score is distinct. Each row
    // is one-hot, so int8 quantization round-trips the answer key exactly
    // (the single nonzero lane is the row max, code 127).
    items[k * d + (k % d)] = 1.0f + 0.5f / static_cast<float>(k + 1);
  }
  std::vector<float> users(num_users * d, 0.0f);
  for (int64_t u = 0; u < num_users; ++u) {
    users[u * d + ((u % num_items) % d)] = 1.0f;
  }
  auto snap = EngineSnapshot::FromEmbeddings(
      Tensor({num_users, d}, std::move(users)),
      Tensor({num_items, d}, std::move(items)), version, {},
      SnapshotOptions{storage});
  UM_CHECK(snap.ok()) << snap.status().ToString();
  return *snap;
}

// The id MakeToySnapshot guarantees as user u's best item: the argmax
// along axis (u % num_items) % d, which is the smallest item on that axis.
int64_t ExpectedTopItem(int64_t user, int64_t num_items) {
  const int64_t axis = (user % num_items) % 8;
  int64_t best = -1;
  float best_score = -1.0f;
  for (int64_t k = 0; k < num_items; ++k) {
    if (k % 8 != axis) continue;
    const float score = 1.0f + 0.5f / static_cast<float>(k + 1);
    if (score > best_score) {
      best_score = score;
      best = k;
    }
  }
  return best;
}

TEST(SnapshotTest, FromEmbeddingsValidates) {
  EXPECT_TRUE(EngineSnapshot::FromEmbeddings(Tensor({4}), Tensor({4, 2}), 0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      EngineSnapshot::FromEmbeddings(Tensor({4, 3}), Tensor({4, 2}), 0)
          .status()
          .IsInvalidArgument());
  EXPECT_TRUE(EngineSnapshot::FromEmbeddings(Tensor({4, 2}), Tensor({4, 2}),
                                             0, {1, 0})
                  .status()
                  .IsInvalidArgument());
  // An empty table is rejected whatever the storage type.
  for (const ScalarType storage :
       {ScalarType::kF32, ScalarType::kF16, ScalarType::kI8}) {
    EXPECT_TRUE(EngineSnapshot::FromEmbeddings(Tensor({0, 2}), Tensor({4, 2}),
                                               0, {}, SnapshotOptions{storage})
                    .status()
                    .IsInvalidArgument())
        << ScalarTypeName(storage);
    EXPECT_TRUE(EngineSnapshot::FromEmbeddings(Tensor({4, 2}), Tensor({0, 2}),
                                               0, {}, SnapshotOptions{storage})
                    .status()
                    .IsInvalidArgument())
        << ScalarTypeName(storage);
  }
}

TEST(SnapshotTest, ServesBothDirections) {
  auto snap = MakeToySnapshot(32, 8, 7);
  EXPECT_EQ(snap->version(), 7);
  EXPECT_EQ(snap->num_users(), 32);
  EXPECT_EQ(snap->num_items(), 8);
  auto items = snap->RecommendItems(3, 2);
  ASSERT_TRUE(items.ok());
  EXPECT_EQ((*items)[0].id, ExpectedTopItem(3, 8));
  auto users = snap->TargetUsers(5, 4);
  ASSERT_TRUE(users.ok());
  EXPECT_EQ(users->size(), 4u);
  EXPECT_TRUE(snap->RecommendItems(-1, 2).status().IsNotFound());
  EXPECT_TRUE(snap->RecommendItems(32, 2).status().IsNotFound());
  EXPECT_TRUE(snap->TargetUsers(8, 2).status().IsNotFound());
  EXPECT_TRUE(snap->RecommendItems(0, 0).status().IsInvalidArgument());
}

TEST(SnapshotTest, QuantizedTablesServeTheSameAnswers) {
  // The toy embeddings are one-hot rows, so the int8 round-trip is exact
  // and the quantized snapshot must reproduce the f32 answer key.
  for (const ScalarType storage : {ScalarType::kF16, ScalarType::kI8}) {
    auto snap = MakeToySnapshot(32, 8, 1, storage);
    EXPECT_EQ(snap->table_storage(), storage);
    // d = 8: f32 rows are 32 bytes; both quantized layouts must be smaller.
    EXPECT_LT(snap->table_bytes_per_user(), 32.0);
    for (int64_t user = 0; user < 32; ++user) {
      auto items = snap->RecommendItems(user, 2);
      ASSERT_TRUE(items.ok()) << items.status().ToString();
      EXPECT_EQ((*items)[0].id, ExpectedTopItem(user, 8))
          << ScalarTypeName(storage) << " user " << user;
    }
    auto users = snap->TargetUsers(3, 4);
    ASSERT_TRUE(users.ok());
    EXPECT_EQ(users->size(), 4u);
  }
}

TEST(SnapshotTest, UnservableUsersAreNotFound) {
  auto snap = EngineSnapshot::FromEmbeddings(Tensor::Ones({3, 2}),
                                             Tensor::Ones({2, 2}), 0,
                                             {1, 0, 1});
  ASSERT_TRUE(snap.ok());
  EXPECT_TRUE((*snap)->RecommendItems(0, 1).ok());
  EXPECT_TRUE((*snap)->RecommendItems(1, 1).status().IsNotFound());
  EXPECT_TRUE((*snap)->RecommendItems(2, 1).ok());
}

TEST(SnapshotTest, FromEngineRequiresFit) {
  core::UniMatchEngine unfitted{core::EngineConfig{}};
  EXPECT_TRUE(EngineSnapshot::FromEngine(unfitted, 0)
                  .status()
                  .IsFailedPrecondition());
}

TEST(PublisherTest, PinnedReaderSurvivesSwap) {
  SnapshotPublisher publisher;
  EXPECT_EQ(publisher.Current(), nullptr);
  publisher.Publish(MakeToySnapshot(16, 8, 1));
  auto pinned = publisher.Current();
  ASSERT_NE(pinned, nullptr);
  publisher.Publish(MakeToySnapshot(16, 8, 2));
  EXPECT_EQ(publisher.Current()->version(), 2);
  EXPECT_EQ(publisher.swaps(), 2);
  // The old generation stays fully usable for readers that pinned it.
  EXPECT_EQ(pinned->version(), 1);
  auto items = pinned->RecommendItems(3, 1);
  ASSERT_TRUE(items.ok());
  EXPECT_EQ((*items)[0].id, ExpectedTopItem(3, 8));
}

FrontendConfig SmallConfig() {
  FrontendConfig config;
  config.num_threads = 2;
  config.max_queue_depth = 1 << 20;  // effectively unbounded
  config.max_batch = 16;
  config.batch_window_us = 100;
  config.max_inflight_batches = 2;
  return config;
}

TEST(FrontendTest, NoSnapshotIsFailedPrecondition) {
  SnapshotPublisher publisher;
  ServingFrontend frontend(SmallConfig(), &publisher);
  auto response = frontend.Submit({RequestKind::kRecommendItems, 0, 5}).get();
  EXPECT_TRUE(response.status.IsFailedPrecondition());
  EXPECT_EQ(response.snapshot_version, -1);
}

TEST(FrontendTest, BadIdsPropagateStatus) {
  SnapshotPublisher publisher;
  publisher.Publish(MakeToySnapshot(16, 8, 1));
  ServingFrontend frontend(SmallConfig(), &publisher);
  EXPECT_TRUE(frontend.Submit({RequestKind::kRecommendItems, 999, 5})
                  .get()
                  .status.IsNotFound());
  EXPECT_TRUE(frontend.Submit({RequestKind::kTargetUsers, -1, 5})
                  .get()
                  .status.IsNotFound());
  EXPECT_TRUE(frontend.Submit({RequestKind::kBuildAudience, 2, 4}).get()
                  .status.ok());
}

TEST(FrontendTest, SingleRequestFlushesAtWindow) {
  SnapshotPublisher publisher;
  publisher.Publish(MakeToySnapshot(16, 8, 1));
  FrontendConfig config = SmallConfig();
  config.max_batch = 64;            // never fills from one request
  config.batch_window_us = 2000;    // 2ms window
  ServingFrontend frontend(config, &publisher);
  auto future = frontend.Submit({RequestKind::kRecommendItems, 1, 3});
  // An underfull batch must flush at the window, not wait for max_batch.
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  auto response = future.get();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.results[0].id, ExpectedTopItem(1, 8));
  EXPECT_EQ(response.snapshot_version, 1);
}

TEST(FrontendTest, ConcurrentSubmitsGetTheirOwnAnswers) {
  const int64_t kUsers = 64, kItems = 8;
  SnapshotPublisher publisher;
  publisher.Publish(MakeToySnapshot(kUsers, kItems, 1));
  ServingFrontend frontend(SmallConfig(), &publisher);

  const int kSubmitters = 4, kPerSubmitter = 200;
  std::vector<std::vector<std::pair<int64_t, std::future<Response>>>> futures(
      kSubmitters);
  ThreadPool submitters(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.Schedule([&, t] {
      futures[t].reserve(kPerSubmitter);
      for (int i = 0; i < kPerSubmitter; ++i) {
        const int64_t user = (t * kPerSubmitter + i) % kUsers;
        futures[t].emplace_back(
            user, frontend.Submit({RequestKind::kRecommendItems, user, 3}));
      }
    });
  }
  submitters.Wait();
  // Each response must answer exactly the request whose future it is,
  // regardless of how submissions interleaved into batches.
  for (auto& per_thread : futures) {
    for (auto& [user, future] : per_thread) {
      Response response = future.get();
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      ASSERT_FALSE(response.results.empty());
      EXPECT_EQ(response.results[0].id, ExpectedTopItem(user, kItems));
    }
  }
  frontend.Drain();
  EXPECT_EQ(frontend.admitted(), kSubmitters * kPerSubmitter);
  EXPECT_EQ(frontend.completed(), frontend.admitted());
  EXPECT_EQ(frontend.shed(), 0);
}

TEST(FrontendTest, BackpressureShedsWithOverloadedButKeepsAcceptedWork) {
  // Large catalog so execution is much slower than admission, a tiny
  // queue, and one in-flight batch: the queue must overflow and shed.
  SnapshotPublisher publisher;
  publisher.Publish(MakeToySnapshot(64, 50000, 1));
  FrontendConfig config;
  config.num_threads = 1;
  config.max_queue_depth = 8;
  config.max_batch = 4;
  config.batch_window_us = 0;
  config.max_inflight_batches = 1;
  ServingFrontend frontend(config, &publisher);

  const int kRequests = 2000;
  std::vector<std::future<Response>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(
        frontend.Submit({RequestKind::kRecommendItems, i % 64, 100}));
  }
  frontend.Drain();
  int ok = 0, overloaded = 0;
  for (auto& future : futures) {
    Response response = future.get();
    if (response.status.ok()) {
      ++ok;
      ASSERT_EQ(response.results.size(), 100u);
    } else {
      ASSERT_TRUE(response.status.IsOverloaded())
          << response.status.ToString();
      ++overloaded;
    }
  }
  // Everything admitted completed successfully; everything else was shed
  // with an explicit Overloaded status — no silent drops, no other errors.
  EXPECT_EQ(ok + overloaded, kRequests);
  EXPECT_EQ(ok, frontend.admitted());
  EXPECT_EQ(overloaded, frontend.shed());
  EXPECT_EQ(frontend.completed(), frontend.admitted());
  EXPECT_GT(overloaded, 0) << "queue of 8 never overflowed under a "
                           << kRequests << "-request burst";
}

TEST(FrontendTest, SnapshotSwapUnderLoadZeroFailedRequests) {
  const int64_t kUsers = 64, kItems = 8;
  SnapshotPublisher publisher;
  publisher.Publish(MakeToySnapshot(kUsers, kItems, 1));
  ServingFrontend frontend(SmallConfig(), &publisher);

  const int kSubmitters = 3, kPerSubmitter = 300;
  std::vector<std::vector<std::future<Response>>> futures(kSubmitters);
  std::atomic<bool> done{false};
  ThreadPool submitters(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.Schedule([&, t] {
      futures[t].reserve(kPerSubmitter);
      for (int i = 0; i < kPerSubmitter; ++i) {
        const RequestKind kind = (i % 2 == 0) ? RequestKind::kRecommendItems
                                              : RequestKind::kTargetUsers;
        const int64_t id = kind == RequestKind::kRecommendItems
                               ? (i % kUsers)
                               : (i % kItems);
        futures[t].push_back(frontend.Submit({kind, id, 5}));
      }
      done.store(true, std::memory_order_release);
    });
  }
  // Promote new model generations continuously while traffic is in flight
  // (at least once, even if the submitters win every race).
  int64_t version = 1;
  do {
    publisher.Publish(MakeToySnapshot(kUsers, kItems, ++version));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  } while (!done.load(std::memory_order_acquire));
  submitters.Wait();
  frontend.Drain();

  // The acceptance bar: a swap under load completes with ZERO failed
  // requests. Every response is OK and names a real published generation.
  int failures = 0;
  for (auto& per_thread : futures) {
    for (auto& future : per_thread) {
      Response response = future.get();
      if (!response.status.ok()) ++failures;
      EXPECT_GE(response.snapshot_version, 1);
      EXPECT_LE(response.snapshot_version, version);
    }
  }
  EXPECT_EQ(failures, 0);
  EXPECT_GT(publisher.swaps(), 1);
  EXPECT_EQ(frontend.completed(), kSubmitters * kPerSubmitter);
  EXPECT_EQ(frontend.shed(), 0);
}

TEST(FrontendTest, SwapToQuantizedGenerationUnderLoadZeroFailedRequests) {
  // Rolling out table quantization live: traffic in flight while the
  // publisher promotes f32 -> int8 -> f16 generations. Same acceptance bar
  // as the plain swap test — zero failed requests — plus answer
  // correctness, since the toy key round-trips exactly in every storage.
  const int64_t kUsers = 64, kItems = 8;
  SnapshotPublisher publisher;
  publisher.Publish(MakeToySnapshot(kUsers, kItems, 1));
  ServingFrontend frontend(SmallConfig(), &publisher);

  const int kSubmitters = 3, kPerSubmitter = 300;
  std::vector<std::vector<std::pair<int64_t, std::future<Response>>>> futures(
      kSubmitters);
  std::atomic<bool> done{false};
  ThreadPool submitters(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.Schedule([&, t] {
      futures[t].reserve(kPerSubmitter);
      for (int i = 0; i < kPerSubmitter; ++i) {
        const int64_t user = (t * kPerSubmitter + i) % kUsers;
        futures[t].emplace_back(
            user, frontend.Submit({RequestKind::kRecommendItems, user, 3}));
      }
      done.store(true, std::memory_order_release);
    });
  }
  const ScalarType kCycle[] = {ScalarType::kI8, ScalarType::kF16,
                               ScalarType::kF32};
  int64_t version = 1;
  do {
    publisher.Publish(
        MakeToySnapshot(kUsers, kItems, version + 1, kCycle[version % 3]));
    ++version;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  } while (!done.load(std::memory_order_acquire));
  submitters.Wait();
  frontend.Drain();

  int failures = 0;
  for (auto& per_thread : futures) {
    for (auto& [user, future] : per_thread) {
      Response response = future.get();
      if (!response.status.ok()) {
        ++failures;
        continue;
      }
      ASSERT_FALSE(response.results.empty());
      // Whatever generation (and storage) answered, the answer key holds.
      EXPECT_EQ(response.results[0].id, ExpectedTopItem(user, kItems));
      EXPECT_GE(response.snapshot_version, 1);
      EXPECT_LE(response.snapshot_version, version);
    }
  }
  EXPECT_EQ(failures, 0);
  EXPECT_GT(publisher.swaps(), 1);
  EXPECT_EQ(frontend.completed(), kSubmitters * kPerSubmitter);
  EXPECT_EQ(frontend.shed(), 0);
}

// The id MakeToySnapshot guarantees as item k's best user: users point
// along axis (u % num_items) % d with equal magnitude, so every user on
// item k's axis ties and the smallest id wins.
int64_t ExpectedTopUser(int64_t item, int64_t num_users, int64_t num_items) {
  const int64_t axis = item % 8;
  for (int64_t u = 0; u < num_users; ++u) {
    if ((u % num_items) % 8 == axis) return u;
  }
  return -1;
}

TEST(FrontendTest, MixedKindBatchesAnswerEachRequest) {
  // One micro-batch holding all three kinds and two top_k values: four
  // execution groups, and every promise must receive exactly its own
  // request's answer regardless of how grouping reordered execution.
  const int64_t kUsers = 64, kItems = 8;
  SnapshotPublisher publisher;
  publisher.Publish(MakeToySnapshot(kUsers, kItems, 1));
  FrontendConfig config = SmallConfig();
  config.max_batch = 64;
  config.batch_window_us = 5000;  // coalesce the burst into few batches
  ServingFrontend frontend(config, &publisher);

  struct Expected {
    Request request;
    int64_t top_id;
  };
  std::vector<Expected> expected;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 48; ++i) {
    const int top_k = (i % 2 == 0) ? 3 : 5;
    Request request;
    switch (i % 3) {
      case 0:
        request = {RequestKind::kRecommendItems, i % kUsers, top_k};
        expected.push_back({request, ExpectedTopItem(i % kUsers, kItems)});
        break;
      case 1:
        request = {RequestKind::kTargetUsers, i % kItems, top_k};
        expected.push_back(
            {request, ExpectedTopUser(i % kItems, kUsers, kItems)});
        break;
      default:
        request = {RequestKind::kBuildAudience, i % kItems, top_k};
        expected.push_back(
            {request, ExpectedTopUser(i % kItems, kUsers, kItems)});
        break;
    }
    futures.push_back(frontend.Submit(request));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Response response = futures[i].get();
    ASSERT_TRUE(response.status.ok())
        << "request " << i << ": " << response.status.ToString();
    ASSERT_EQ(response.results.size(),
              static_cast<size_t>(expected[i].request.top_k));
    EXPECT_EQ(response.results[0].id, expected[i].top_id)
        << "request " << i << " kind "
        << RequestKindToString(expected[i].request.kind);
  }
}

TEST(FrontendTest, GroupedExecutionShedsWithOverloadedButKeepsAcceptedWork) {
  // Shedding with the grouped executor: big catalog so grouped batches
  // execute slowly, and a tiny queue that must overflow. The admission
  // contract is unchanged: accepted work completes, everything else sheds
  // explicitly.
  SnapshotPublisher publisher;
  publisher.Publish(MakeToySnapshot(20000, 20000, 1));
  FrontendConfig config;
  config.num_threads = 2;
  config.max_queue_depth = 16;
  config.max_batch = 16;
  config.batch_window_us = 0;
  config.max_inflight_batches = 1;
  ServingFrontend frontend(config, &publisher);

  const int kRequests = 1500;
  std::vector<std::future<Response>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    const RequestKind kind = (i % 2 == 0) ? RequestKind::kRecommendItems
                                          : RequestKind::kTargetUsers;
    futures.push_back(frontend.Submit({kind, i % 20000, 100}));
  }
  frontend.Drain();
  int ok = 0, overloaded = 0;
  for (auto& future : futures) {
    Response response = future.get();
    if (response.status.ok()) {
      ++ok;
      ASSERT_EQ(response.results.size(), 100u);
    } else {
      ASSERT_TRUE(response.status.IsOverloaded())
          << response.status.ToString();
      ++overloaded;
    }
  }
  EXPECT_EQ(ok + overloaded, kRequests);
  EXPECT_EQ(ok, frontend.admitted());
  EXPECT_EQ(overloaded, frontend.shed());
  EXPECT_EQ(frontend.completed(), frontend.admitted());
  EXPECT_GT(overloaded, 0) << "queue of 16 never overflowed under a "
                           << kRequests << "-request burst";
}

TEST(FrontendTest, DestructorDrainsMidGroupedBatch) {
  // Destruction races grouped execution: a burst of mixed kinds is in
  // flight when the frontend dies. Every accepted promise must still be
  // fulfilled — the destructor waits for every batch worker.
  SnapshotPublisher publisher;
  publisher.Publish(MakeToySnapshot(4096, 4096, 1));
  std::vector<std::future<Response>> futures;
  {
    FrontendConfig config;
    config.num_threads = 4;
    config.max_queue_depth = 1 << 20;
    config.max_batch = 256;
    config.batch_window_us = 0;
    config.max_inflight_batches = 2;
    ServingFrontend frontend(config, &publisher);
    for (int i = 0; i < 1024; ++i) {
      const RequestKind kind = (i % 3 == 0) ? RequestKind::kTargetUsers
                                            : RequestKind::kRecommendItems;
      futures.push_back(frontend.Submit({kind, i % 4096, 10}));
    }
  }  // destructor runs while grouped batches are mid-execution
  int ok = 0;
  for (auto& future : futures) {
    Response response = future.get();  // fulfilled, never abandoned
    EXPECT_TRUE(response.status.ok() || response.status.IsOverloaded())
        << response.status.ToString();
    if (response.status.ok()) ++ok;
  }
  EXPECT_GT(ok, 0);
}

TEST(FrontendTest, HugeTopKAnswersLikeCatalogSizedTopK) {
  // top_k past the index's row count only adds padding, which is trimmed:
  // INT_MAX must answer exactly what the row count answers (ids and score
  // bits) instead of sizing buffers by top_k.
  SnapshotPublisher publisher;
  publisher.Publish(MakeToySnapshot(10, 12, 1));
  ServingFrontend frontend(SmallConfig(), &publisher);
  constexpr int kHuge = std::numeric_limits<int>::max();
  const struct {
    RequestKind kind;
    int rows;  // rows of the index this kind searches
  } kinds[] = {{RequestKind::kRecommendItems, 12},
               {RequestKind::kTargetUsers, 10},
               {RequestKind::kBuildAudience, 10}};
  for (const auto& k : kinds) {
    SCOPED_TRACE(RequestKindToString(k.kind));
    Response huge = frontend.Submit({k.kind, 0, kHuge}).get();
    Response rows = frontend.Submit({k.kind, 0, k.rows}).get();
    ASSERT_TRUE(huge.status.ok()) << huge.status.ToString();
    ASSERT_TRUE(rows.status.ok()) << rows.status.ToString();
    ASSERT_EQ(huge.results.size(), static_cast<size_t>(k.rows));
    ASSERT_EQ(rows.results.size(), huge.results.size());
    for (size_t r = 0; r < huge.results.size(); ++r) {
      EXPECT_EQ(huge.results[r].id, rows.results[r].id) << "rank " << r;
      EXPECT_EQ(std::bit_cast<uint32_t>(huge.results[r].score),
                std::bit_cast<uint32_t>(rows.results[r].score))
          << "rank " << r;
    }
  }
}

TEST(FrontendTest, DestructorDrainsAcceptedWork) {
  SnapshotPublisher publisher;
  publisher.Publish(MakeToySnapshot(32, 8, 1));
  std::vector<std::future<Response>> futures;
  {
    ServingFrontend frontend(SmallConfig(), &publisher);
    for (int i = 0; i < 64; ++i) {
      futures.push_back(
          frontend.Submit({RequestKind::kRecommendItems, i % 32, 2}));
    }
  }  // destructor runs with work still queued
  for (auto& future : futures) {
    Response response = future.get();  // must be fulfilled, never abandoned
    EXPECT_TRUE(response.status.ok() || response.status.IsOverloaded())
        << response.status.ToString();
  }
}

// End-to-end against a really fitted engine: snapshot answers must match
// the engine's own, and further training must not disturb a published
// snapshot (the zero-downtime promotion contract).
class EngineSnapshotFixture : public ::testing::Test {
 protected:
  static core::UniMatchEngine& engine() {
    static core::UniMatchEngine* e = [] {
      data::SyntheticConfig cfg;
      cfg.num_users = 300;
      cfg.num_items = 40;
      cfg.num_months = 4;
      cfg.target_interactions = 4000;
      cfg.seed = 99;
      core::EngineConfig ec;
      ec.model.embedding_dim = 8;
      ec.train.epochs_per_month = 1;
      auto* eng = new core::UniMatchEngine(ec);
      Status st = eng->Fit(data::GenerateSynthetic(cfg));
      UM_CHECK(st.ok()) << st.ToString();
      return eng;
    }();
    return *e;
  }
};

TEST_F(EngineSnapshotFixture, MatchesEngineAnswers) {
  auto snap = EngineSnapshot::FromEngine(engine(), 3);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  for (data::UserId user = 0; user < 20; ++user) {
    auto from_engine = engine().RecommendItems(user, 5);
    auto from_snapshot = (*snap)->RecommendItems(user, 5);
    ASSERT_EQ(from_engine.ok(), from_snapshot.ok()) << "user " << user;
    if (!from_engine.ok()) continue;
    ASSERT_EQ(from_engine->size(), from_snapshot->size());
    for (size_t i = 0; i < from_engine->size(); ++i) {
      EXPECT_EQ((*from_engine)[i].id, (*from_snapshot)[i].id);
      EXPECT_FLOAT_EQ((*from_engine)[i].score, (*from_snapshot)[i].score);
    }
  }
  auto ut_engine = engine().TargetUsers(1, 5);
  auto ut_snapshot = (*snap)->TargetUsers(1, 5);
  ASSERT_TRUE(ut_engine.ok());
  ASSERT_TRUE(ut_snapshot.ok());
  EXPECT_EQ((*ut_engine)[0].id, (*ut_snapshot)[0].id);
}

TEST(EngineSnapshotRefreshTest, PublishedSnapshotSurvivesRefresh) {
  data::SyntheticConfig cfg;
  cfg.num_users = 200;
  cfg.num_items = 40;
  cfg.num_months = 4;
  cfg.target_interactions = 3000;
  cfg.seed = 5;
  const data::InteractionLog log = data::GenerateSynthetic(cfg);
  core::EngineConfig ec;
  ec.model.embedding_dim = 8;
  ec.train.epochs_per_month = 1;
  core::UniMatchEngine engine(ec);
  ASSERT_TRUE(engine.Fit(log).ok());
  auto before = EngineSnapshot::FromEngine(engine, 1);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  auto answers = [](const EngineSnapshot& snap) {
    std::vector<std::vector<core::Scored>> out;
    for (int64_t id = 0; id < 20; ++id) {
      auto ir = snap.RecommendItems(id, 5);
      auto ut = snap.TargetUsers(id, 5);
      if (ir.ok()) out.push_back(*ir);
      if (ut.ok()) out.push_back(*ut);
    }
    return out;
  };
  const auto expected = answers(**before);
  ASSERT_FALSE(expected.empty());

  // The refresh replaces the engine's indexes and tables; the snapshot
  // shares the old generation and must keep answering from it.
  ASSERT_TRUE(engine.FitIncrementalMonth(log, engine.splits()->test_month - 1)
                  .ok());
  const auto after_refresh = answers(**before);
  ASSERT_EQ(after_refresh.size(), expected.size());
  for (size_t q = 0; q < expected.size(); ++q) {
    ASSERT_EQ(after_refresh[q].size(), expected[q].size());
    for (size_t i = 0; i < expected[q].size(); ++i) {
      EXPECT_EQ(after_refresh[q][i].id, expected[q][i].id);
      EXPECT_EQ(after_refresh[q][i].score, expected[q][i].score);
    }
  }

  auto next = EngineSnapshot::FromEngine(engine, 2);
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(AllClose((*next)->item_embeddings(),
                        (*before)->item_embeddings(), 0.0f, 0.0f));
  EXPECT_FALSE(AllClose((*next)->user_embeddings(),
                        (*before)->user_embeddings(), 0.0f, 0.0f));
}

TEST_F(EngineSnapshotFixture, FrontendServesEngineSnapshot) {
  SnapshotPublisher publisher;
  auto snap = EngineSnapshot::FromEngine(engine(), 1);
  ASSERT_TRUE(snap.ok());
  publisher.Publish(*snap);
  ServingFrontend frontend(SmallConfig(), &publisher);
  auto direct = engine().TargetUsers(2, 10);
  ASSERT_TRUE(direct.ok());
  auto via_frontend =
      frontend.Submit({RequestKind::kBuildAudience, 2, 10}).get();
  ASSERT_TRUE(via_frontend.status.ok()) << via_frontend.status.ToString();
  ASSERT_EQ(via_frontend.results.size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ(via_frontend.results[i].id, (*direct)[i].id);
  }
}

}  // namespace
}  // namespace unimatch::serving
