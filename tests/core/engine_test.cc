#include "src/core/unimatch.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <unordered_set>

#include "src/data/synthetic.h"

namespace unimatch::core {
namespace {

data::InteractionLog EngineLog() {
  data::SyntheticConfig cfg;
  cfg.num_users = 600;
  cfg.num_items = 80;
  cfg.num_months = 5;
  cfg.target_interactions = 8000;
  cfg.seed = 71;
  return data::GenerateSynthetic(cfg);
}

EngineConfig SmallEngineConfig() {
  EngineConfig cfg;
  cfg.model.embedding_dim = 8;
  cfg.train.epochs_per_month = 1;
  return cfg;
}

class EngineFixture : public ::testing::Test {
 protected:
  static UniMatchEngine& engine() {
    static UniMatchEngine* e = [] {
      auto* eng = new UniMatchEngine(SmallEngineConfig());
      Status st = eng->Fit(EngineLog());
      UM_CHECK(st.ok()) << st.ToString();
      return eng;
    }();
    return *e;
  }
};

TEST_F(EngineFixture, FitSucceedsAndExportsEmbeddings) {
  EXPECT_TRUE(engine().fitted());
  EXPECT_EQ(engine().item_embeddings().shape(), (Shape{80, 8}));
  EXPECT_EQ(engine().user_embeddings().shape(), (Shape{600, 8}));
}

TEST_F(EngineFixture, DoubleFitRejected) {
  EXPECT_TRUE(engine().Fit(EngineLog()).IsFailedPrecondition());
}

TEST_F(EngineFixture, RecommendItemsForKnownUser) {
  // Find a user with history.
  data::UserId user = -1;
  for (data::UserId u = 0; u < 600; ++u) {
    if (!engine().splits()->histories[u].empty()) {
      user = u;
      break;
    }
  }
  ASSERT_GE(user, 0);
  auto rec = engine().RecommendItems(user, 10);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec->size(), 10u);
  std::unordered_set<int64_t> distinct;
  for (size_t i = 0; i < rec->size(); ++i) {
    EXPECT_GE((*rec)[i].id, 0);
    EXPECT_LT((*rec)[i].id, 80);
    distinct.insert((*rec)[i].id);
    if (i > 0) {
      EXPECT_GE((*rec)[i - 1].score, (*rec)[i].score);
    }
  }
  EXPECT_EQ(distinct.size(), 10u);
}

TEST_F(EngineFixture, RecommendRejectsUnknownOrEmptyUsers) {
  EXPECT_TRUE(engine().RecommendItems(-1, 5).status().IsNotFound());
  EXPECT_TRUE(engine().RecommendItems(600, 5).status().IsNotFound());
  // A user with no history (if any exists) must be NotFound.
  for (data::UserId u = 0; u < 600; ++u) {
    if (engine().splits()->histories[u].empty()) {
      EXPECT_TRUE(engine().RecommendItems(u, 5).status().IsNotFound());
      break;
    }
  }
}

TEST_F(EngineFixture, RecommendForAdHocHistory) {
  auto rec = engine().RecommendItemsForHistory({3, 7, 12}, 5);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->size(), 5u);
  EXPECT_TRUE(
      engine().RecommendItemsForHistory({}, 5).status().IsInvalidArgument());
  EXPECT_TRUE(engine()
                  .RecommendItemsForHistory({999}, 5)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(EngineFixture, TargetUsersWorksAndValidates) {
  auto users = engine().TargetUsers(5, 10);
  ASSERT_TRUE(users.ok());
  EXPECT_EQ(users->size(), 10u);
  for (const auto& s : *users) {
    EXPECT_GE(s.id, 0);
    EXPECT_LT(s.id, 600);
  }
  EXPECT_TRUE(engine().TargetUsers(-2, 5).status().IsNotFound());
  EXPECT_TRUE(engine().TargetUsers(80, 5).status().IsNotFound());
}

TEST_F(EngineFixture, QueriesRejectNonPositiveN) {
  for (const int n : {0, -3}) {
    EXPECT_TRUE(engine().TargetUsers(5, n).status().IsInvalidArgument());
    EXPECT_TRUE(engine().RecommendItems(0, n).status().IsInvalidArgument());
    EXPECT_TRUE(engine()
                    .RecommendItemsForHistory({3, 7}, n)
                    .status()
                    .IsInvalidArgument());
  }
}

TEST_F(EngineFixture, RecommendationConsistentWithEmbeddingScores) {
  // The ANN result must equal the max dot product over item embeddings.
  auto rec = engine().RecommendItemsForHistory({3, 7}, 1);
  ASSERT_TRUE(rec.ok());
  const Tensor user =
      engine().model()->InferUserEmbeddings({{3, 7}});
  const Tensor& items = engine().item_embeddings();
  double best = -1e30;
  int64_t best_id = -1;
  for (int64_t i = 0; i < 80; ++i) {
    double dot = 0.0;
    for (int64_t j = 0; j < 8; ++j) dot += user.at(0, j) * items.at(i, j);
    if (dot > best) {
      best = dot;
      best_id = i;
    }
  }
  EXPECT_EQ((*rec)[0].id, best_id);
}

TEST_F(EngineFixture, CheckpointRoundtripPreservesRecommendations) {
  const std::string path =
      std::string(::testing::TempDir()) + "/engine.ckpt";
  ASSERT_TRUE(engine().SaveCheckpoint(path).ok());

  UniMatchEngine fresh(SmallEngineConfig());
  ASSERT_TRUE(fresh.Fit(EngineLog()).ok());
  ASSERT_TRUE(fresh.LoadCheckpoint(path).ok());
  EXPECT_TRUE(AllClose(fresh.item_embeddings(), engine().item_embeddings(),
                       1e-4f, 1e-5f));
  std::remove(path.c_str());
}

TEST(EngineValidationTest, EmptyLogRejected) {
  UniMatchEngine e(SmallEngineConfig());
  EXPECT_TRUE(e.Fit(data::InteractionLog(5, 5)).IsInvalidArgument());
}

TEST(EngineValidationTest, ShortLogRejected) {
  data::InteractionLog log(2, 2);
  log.Add(0, 0, 0);
  log.Add(1, 1, 35);
  log.SortByUserDay();
  UniMatchEngine e(SmallEngineConfig());
  EXPECT_TRUE(e.Fit(log).IsInvalidArgument());
}

TEST(EngineValidationTest, QueriesBeforeFitRejected) {
  UniMatchEngine e(SmallEngineConfig());
  EXPECT_TRUE(e.RecommendItems(0, 5).status().IsFailedPrecondition());
  EXPECT_TRUE(e.TargetUsers(0, 5).status().IsFailedPrecondition());
  EXPECT_TRUE(e.SaveCheckpoint("/tmp/x").IsFailedPrecondition());
  EXPECT_TRUE(e.LoadCheckpoint("/tmp/x").IsFailedPrecondition());
}

TEST(EngineValidationTest, UnknownIndexKindRejected) {
  EngineConfig cfg = SmallEngineConfig();
  cfg.index = "bruteforce";  // typo: the valid spelling is "brute_force"
  UniMatchEngine e(cfg);
  const Status st = e.Fit(EngineLog());
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.ToString().find("bruteforce"), std::string::npos)
      << "error should name the offending value: " << st.ToString();
  EXPECT_FALSE(e.fitted());
}

TEST(EngineIvfTest, IvfIndexServesQueries) {
  EngineConfig cfg = SmallEngineConfig();
  cfg.index = "ivf";
  cfg.ivf.nlist = 8;
  cfg.ivf.nprobe = 8;
  UniMatchEngine e(cfg);
  ASSERT_TRUE(e.Fit(EngineLog()).ok());
  auto rec = e.RecommendItemsForHistory({3, 7}, 5);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->size(), 5u);
}

TEST(EngineQuantIndexTest, CompressedIndexKindsServeQueries) {
  // The two quantized index kinds added alongside src/ann/pq.h: both must
  // fit and answer IR/UT through the engine facade.
  for (const char* kind : {"ivfpq", "hnsw_q"}) {
    EngineConfig cfg = SmallEngineConfig();
    cfg.index = kind;
    cfg.ivfpq.nprobe = 16;
    cfg.ivfpq.num_subspaces = 16;  // ds = 1, the accuracy end (see bench)
    UniMatchEngine e(cfg);
    ASSERT_TRUE(e.Fit(EngineLog()).ok()) << kind;
    auto rec = e.RecommendItems(1, 5);
    ASSERT_TRUE(rec.ok()) << kind << ": " << rec.status().ToString();
    EXPECT_EQ(rec->size(), 5u) << kind;
    auto ut = e.TargetUsers(1, 5);
    ASSERT_TRUE(ut.ok()) << kind << ": " << ut.status().ToString();
    EXPECT_EQ(ut->size(), 5u) << kind;
  }
}

}  // namespace
}  // namespace unimatch::core
