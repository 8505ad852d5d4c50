#include "src/core/unimatch.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <unordered_set>

#include "src/data/synthetic.h"
#include "src/serving/snapshot.h"
#include "tests/util/file_testing.h"

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

// Every IR and UT answer of `engine`, errors included.
std::vector<Result<std::vector<Scored>>> AllAnswers(
    const UniMatchEngine& engine) {
  std::vector<Result<std::vector<Scored>>> out;
  for (data::UserId u = 0; u < 600; ++u) {
    out.push_back(engine.RecommendItems(u, 10));
  }
  for (data::ItemId i = 0; i < 80; ++i) out.push_back(engine.TargetUsers(i, 10));
  return out;
}

bool SameAnswers(const std::vector<Result<std::vector<Scored>>>& a,
                 const std::vector<Result<std::vector<Scored>>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t q = 0; q < a.size(); ++q) {
    if (a[q].ok() != b[q].ok()) return false;
    if (!a[q].ok()) continue;
    if (a[q]->size() != b[q]->size()) return false;
    for (size_t r = 0; r < a[q]->size(); ++r) {
      if ((*a[q])[r].id != (*b[q])[r].id ||
          std::memcmp(&(*a[q])[r].score, &(*b[q])[r].score, sizeof(float)) !=
              0) {
        return false;
      }
    }
  }
  return true;
}

TEST_F(EngineFixture, CheckpointRoundtripPreservesRecommendations) {
  const std::string path =
      std::string(::testing::TempDir()) + "/engine.ckpt";
  ASSERT_TRUE(engine().SaveCheckpoint(path).ok());

  UniMatchEngine fresh(SmallEngineConfig());
  ASSERT_TRUE(fresh.Fit(EngineLog()).ok());
  ASSERT_TRUE(fresh.LoadCheckpoint(path).ok());
  EXPECT_TRUE(SameAnswers(AllAnswers(fresh), AllAnswers(engine())));
  std::remove(path.c_str());
}


TEST_F(EngineFixture, NonFiniteCheckpointRejectedAndAnswersUnchanged) {
  const auto before = AllAnswers(engine());
  const std::string path =
      std::string(::testing::TempDir()) + "/nonfinite.ckpt";
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    ASSERT_TRUE(engine().SaveCheckpoint(path).ok());
    // Overwrite the checkpoint's last float and reseal the checksums, so the
    // value itself is what the load must reject.
    std::string bytes = file_testing::ReadBytes(path);
    const auto layout = file_testing::Records(bytes);
    file_testing::Poke(&bytes, layout.back().crc - sizeof(float), bad);
    file_testing::Reseal(&bytes, layout);
    file_testing::WriteBytes(path, bytes);
    const Status st = engine().LoadCheckpoint(path);
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    EXPECT_TRUE(SameAnswers(AllAnswers(engine()), before)) << bad;
  }
  std::remove(path.c_str());
}

TEST_F(EngineFixture, SaveCheckpointToFullDeviceIsIOError) {
  EXPECT_TRUE(engine().SaveCheckpoint("/dev/full").IsIOError());
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

TEST(EngineValidationTest, InvalidHnswConfigRejected) {
  EngineConfig cfg = SmallEngineConfig();
  cfg.index = "hnsw";
  cfg.hnsw.m = 0;
  UniMatchEngine e(cfg);
  const Status st = e.Fit(EngineLog());
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_FALSE(e.fitted());
  EXPECT_EQ(e.model(), nullptr) << "rejected before training";
}

// A config value that would abort the process, or fail the index build
// after every training month, once it reached the model, the trainer, the
// windowing or the index.
struct BadConfig {
  const char* name;
  void (*apply)(EngineConfig*);
};

void PrintTo(const BadConfig& bad, std::ostream* os) { *os << bad.name; }

class EngineBadConfigTest : public ::testing::TestWithParam<BadConfig> {};

TEST_P(EngineBadConfigTest, FitRejectsItBeforeTraining) {
  EngineConfig cfg = SmallEngineConfig();
  GetParam().apply(&cfg);
  UniMatchEngine e(cfg);
  const Status st = e.Fit(EngineLog());
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_FALSE(e.fitted());
  EXPECT_EQ(e.model(), nullptr) << "rejected before training";
}

INSTANTIATE_TEST_SUITE_P(
    Values, EngineBadConfigTest,
    ::testing::Values(
        BadConfig{"num_threads_0",
                  [](EngineConfig* c) { c->train.num_threads = 0; }},
        BadConfig{"num_threads_minus_2",
                  [](EngineConfig* c) { c->train.num_threads = -2; }},
        BadConfig{"batch_size_0",
                  [](EngineConfig* c) { c->train.batch_size = 0; }},
        BadConfig{"batch_size_minus_4",
                  [](EngineConfig* c) { c->train.batch_size = -4; }},
        BadConfig{"ssm_num_negatives_minus_3",
                  [](EngineConfig* c) {
                    c->train.loss = loss::LossKind::kSsm;
                    c->train.ssm_num_negatives = -3;
                  }},
        BadConfig{"max_seq_len_0",
                  [](EngineConfig* c) { c->split.window.max_seq_len = 0; }},
        BadConfig{"min_history_0",
                  [](EngineConfig* c) { c->split.window.min_history = 0; }},
        BadConfig{"embedding_dim_0",
                  [](EngineConfig* c) { c->model.embedding_dim = 0; }},
        BadConfig{"temperature_0",
                  [](EngineConfig* c) { c->model.temperature = 0.0f; }},
        BadConfig{"extractor_layers_0",
                  [](EngineConfig* c) { c->model.num_extractor_layers = 0; }},
        BadConfig{"cnn_even_kernel",
                  [](EngineConfig* c) {
                    c->model.extractor = model::ContextExtractor::kCnn;
                    c->model.conv_kernel = 4;
                  }},
        BadConfig{"dropout_1", [](EngineConfig* c) { c->model.dropout = 1.0f; }},
        BadConfig{"optimizer_adamw",
                  [](EngineConfig* c) { c->train.optimizer = "adamw"; }},
        BadConfig{"hnsw_m_0",
                  [](EngineConfig* c) {
                    c->index = "hnsw";
                    c->hnsw.m = 0;
                  }},
        BadConfig{"ivf_nprobe_0",
                  [](EngineConfig* c) {
                    c->index = "ivf";
                    c->ivf.nprobe = 0;
                  }},
        BadConfig{"ivfpq_nprobe_minus_1",
                  [](EngineConfig* c) {
                    c->index = "ivfpq";
                    c->ivfpq.nprobe = -1;
                  }}),
    [](const ::testing::TestParamInfo<BadConfig>& info) {
      return std::string(info.param.name);
    });

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
  // The compressed serving indexes: IVF-PQ codes and HNSW over int8 rows.
  // Both must fit and answer IR/UT through the engine facade.
  for (const char* kind : {"ivfpq", "hnsw"}) {
    EngineConfig cfg = SmallEngineConfig();
    cfg.index = kind;
    cfg.ivfpq.nprobe = 16;
    cfg.ivfpq.num_subspaces = 16;  // ds = 1, the accuracy end (see bench)
    cfg.hnsw.storage = ScalarType::kI8;
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

void ExpectSameAnswer(const Result<std::vector<Scored>>& got,
                      const Result<std::vector<Scored>>& want) {
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_EQ(got->size(), want->size());
  for (size_t r = 0; r < got->size(); ++r) {
    EXPECT_EQ((*got)[r].id, (*want)[r].id) << "rank " << r;
    EXPECT_EQ(std::bit_cast<uint32_t>((*got)[r].score),
              std::bit_cast<uint32_t>((*want)[r].score))
        << "rank " << r;
  }
}

TEST(EngineHugeNTest, IntMaxAnswersLikeRowCountOnEveryIndexKind) {
  // n past an index's row count only adds padding, which is trimmed, so
  // INT_MAX must answer exactly what the row count answers (ids and score
  // bits) on every index kind, without sizing buffers by n.
  constexpr int kHuge = std::numeric_limits<int>::max();
  const data::InteractionLog log = EngineLog();
  for (const char* kind : {"brute_force", "ivf", "ivfpq", "hnsw"}) {
    SCOPED_TRACE(kind);
    EngineConfig cfg = SmallEngineConfig();
    cfg.index = kind;
    UniMatchEngine e(cfg);
    ASSERT_TRUE(e.Fit(log).ok());
    const int users = static_cast<int>(e.snapshot()->num_users());
    const int items = static_cast<int>(e.snapshot()->num_items());
    ExpectSameAnswer(e.RecommendItems(1, kHuge), e.RecommendItems(1, items));
    ExpectSameAnswer(e.TargetUsers(2, kHuge), e.TargetUsers(2, users));
    ExpectSameAnswer(e.RecommendItemsForHistory({3, 7}, kHuge),
                     e.RecommendItemsForHistory({3, 7}, items));
  }
}

}  // namespace
}  // namespace unimatch::core
