#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "src/data/synthetic.h"
#include "src/nn/serialize.h"
#include "src/serving/campaign.h"
#include "src/serving/embedding_store.h"
#include "tests/util/file_testing.h"

namespace unimatch::serving {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(EmbeddingStoreTest, SaveLoadRoundtrip) {
  Rng rng(1);
  EmbeddingBundle b;
  b.version = (int64_t{1} << 41) + 7;
  b.user_embeddings = Tensor::Randn({10, 4}, 1.0f, &rng);
  b.item_embeddings = Tensor::Randn({5, 4}, 1.0f, &rng);
  const std::string path = TempPath("emb.bin");
  ASSERT_TRUE(SaveEmbeddings(b, path).ok());
  auto loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->version, b.version);
  for (const auto& [got, want] :
       {std::pair{&loaded->user_embeddings, &b.user_embeddings},
        std::pair{&loaded->item_embeddings, &b.item_embeddings}}) {
    ASSERT_TRUE(got->same_shape(*want));
    EXPECT_EQ(std::memcmp(got->data(), want->data(),
                          sizeof(float) * want->numel()),
              0);
  }
  std::remove(path.c_str());
}

TEST(EmbeddingStoreTest, RejectsCorruptFile) {
  const std::string path = TempPath("junk.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("NOPE", 4, 1, f);
  std::fclose(f);
  EXPECT_TRUE(LoadEmbeddings(path).status().IsIOError());
  std::remove(path.c_str());
}

TEST(EmbeddingStoreTest, OversizedHeaderIsIOErrorNotAllocation) {
  // A small file whose user matrix claims 2^36 x 16 floats under valid
  // checksums: the loader must refuse it from the bytes left, not try to
  // allocate 4 TiB.
  const std::string path = TempPath("oversized.bin");
  EmbeddingBundle b;
  b.user_embeddings = Tensor::Ones({1, 16});
  b.item_embeddings = Tensor::Ones({1, 16});
  ASSERT_TRUE(SaveEmbeddings(b, path).ok());
  std::string bytes = file_testing::ReadBytes(path);
  const auto layout = file_testing::Records(bytes);
  file_testing::Poke(&bytes, layout[0].dims, int64_t{1} << 36);
  file_testing::Reseal(&bytes, layout);
  file_testing::WriteBytes(path, bytes);
  EXPECT_TRUE(LoadEmbeddings(path).status().IsIOError());
  std::remove(path.c_str());
}

TEST(EmbeddingStoreTest, CheckpointAndBundleAreNotInterchangeable) {
  const std::string path = TempPath("kind.bin");
  EmbeddingBundle b;
  b.user_embeddings = Tensor::Ones({2, 4});
  b.item_embeddings = Tensor::Ones({3, 4});
  ASSERT_TRUE(SaveEmbeddings(b, path).ok());
  nn::Variable users(Tensor({2, 4}), true);
  std::vector<nn::NamedParameter> params = {{"users", users}};
  EXPECT_FALSE(nn::LoadParameters(path, &params).ok());

  ASSERT_TRUE(nn::SaveParameters(params, path).ok());
  EXPECT_FALSE(LoadEmbeddings(path).ok());
  std::remove(path.c_str());
}

TEST(EmbeddingStoreTest, MissingFileIsIOError) {
  EXPECT_TRUE(LoadEmbeddings("/no/such/file").status().IsIOError());
}

TEST(EmbeddingStoreTest, NonFiniteValueIsIOError) {
  const std::string path = TempPath("nonfinite.bin");
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    EmbeddingBundle b;
    b.user_embeddings = Tensor::Ones({3, 4});
    b.item_embeddings = Tensor::Ones({2, 4});
    b.item_embeddings.at(1, 2) = bad;
    ASSERT_TRUE(SaveEmbeddings(b, path).ok());
    EXPECT_TRUE(LoadEmbeddings(path).status().IsIOError()) << bad;
  }
  std::remove(path.c_str());
}

TEST(EmbeddingStoreTest, SaveToFullDeviceIsIOError) {
  EmbeddingBundle b;
  b.user_embeddings = Tensor::Ones({4, 4});
  b.item_embeddings = Tensor::Ones({4, 4});
  EXPECT_TRUE(SaveEmbeddings(b, "/dev/full").IsIOError());
}

TEST(EmbeddingChurnTest, ZeroForIdentical) {
  Rng rng(2);
  Tensor a = Tensor::Randn({6, 3}, 1.0f, &rng);
  auto churn = EmbeddingChurn(a, a);
  ASSERT_TRUE(churn.ok());
  EXPECT_DOUBLE_EQ(*churn, 0.0);
}

TEST(EmbeddingChurnTest, MeasuresMeanRowDistance) {
  Tensor a({2, 2}, {0, 0, 0, 0});
  Tensor b({2, 2}, {3, 4, 0, 0});  // row 0 moved by 5, row 1 by 0
  auto churn = EmbeddingChurn(a, b);
  ASSERT_TRUE(churn.ok());
  EXPECT_DOUBLE_EQ(*churn, 2.5);
}

TEST(EmbeddingChurnTest, ShapeMismatchRejected) {
  EXPECT_TRUE(
      EmbeddingChurn(Tensor({2, 2}), Tensor({3, 2})).status().IsInvalidArgument());
}

class CampaignFixture : public ::testing::Test {
 protected:
  static const EngineSnapshot& snapshot() {
    static const std::shared_ptr<const EngineSnapshot> s = [] {
      auto snap = EngineSnapshot::FromEngine(engine(), 1);
      UM_CHECK(snap.ok()) << snap.status().ToString();
      return *snap;
    }();
    return *s;
  }

  static core::UniMatchEngine& engine() {
    static core::UniMatchEngine* e = [] {
      data::SyntheticConfig cfg;
      cfg.num_users = 500;
      cfg.num_items = 60;
      cfg.num_months = 5;
      cfg.target_interactions = 7000;
      cfg.seed = 77;
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

TEST_F(CampaignFixture, AudienceSizesRespected) {
  AudienceRequest req;
  req.items = {1, 2, 3};
  req.audience_size = 20;
  req.exclusive = false;
  auto audience = BuildAudience(snapshot(), req);
  ASSERT_TRUE(audience.ok());
  std::unordered_map<data::ItemId, int> counts;
  for (const auto& e : *audience) ++counts[e.item];
  for (auto item : req.items) EXPECT_EQ(counts[item], 20);
}

TEST_F(CampaignFixture, ExclusiveAudiencesDisjoint) {
  AudienceRequest req;
  req.items = {1, 2, 3, 4};
  req.audience_size = 25;
  req.exclusive = true;
  auto audience = BuildAudience(snapshot(), req);
  ASSERT_TRUE(audience.ok());
  std::unordered_set<data::UserId> seen;
  for (const auto& e : *audience) {
    EXPECT_TRUE(seen.insert(e.user).second)
        << "user " << e.user << " in two audiences";
  }
}

TEST_F(CampaignFixture, AudienceCsvWritten) {
  AudienceRequest req;
  req.items = {5};
  req.audience_size = 10;
  auto audience = BuildAudience(snapshot(), req);
  ASSERT_TRUE(audience.ok());
  const std::string path = TempPath("audience.csv");
  ASSERT_TRUE(WriteAudienceCsv(*audience, path).ok());
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "item_id,user_id,score");
  int lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, static_cast<int>(audience->size()));
  std::remove(path.c_str());
}

TEST_F(CampaignFixture, NewsletterSkipsHistorylessUsers) {
  NewsletterRequest req;
  req.items_per_user = 5;
  // Mix: some with history, and id 0..9 regardless.
  for (data::UserId u = 0; u < 10; ++u) req.users.push_back(u);
  auto news = BuildNewsletter(snapshot(), req);
  ASSERT_TRUE(news.ok());
  for (const auto& e : *news) {
    EXPECT_FALSE(engine().splits()->histories[e.user].empty());
    EXPECT_EQ(e.items.size(), 5u);
  }
}

TEST_F(CampaignFixture, NewsletterCsvFormat) {
  NewsletterRequest req;
  req.items_per_user = 3;
  for (data::UserId u = 0; u < 20; ++u) req.users.push_back(u);
  auto news = BuildNewsletter(snapshot(), req);
  ASSERT_TRUE(news.ok());
  ASSERT_FALSE(news->empty());
  const std::string path = TempPath("newsletter.csv");
  ASSERT_TRUE(WriteNewsletterCsv(*news, path).ok());
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "user_id,rank,item_id,score");
  std::remove(path.c_str());
}

// Audience entries built from one TargetUsers call per requested item:
// the reference the batched, chunked BuildAudience must match entry for
// entry, including the exclusive assignment's order.
std::vector<AudienceEntry> AudienceFromSingleQueries(
    const EngineSnapshot& snap, const AudienceRequest& req) {
  const int fetch = req.exclusive ? 2 * req.audience_size : req.audience_size;
  std::vector<AudienceEntry> all;
  for (const data::ItemId item : req.items) {
    auto users = snap.TargetUsers(item, fetch);
    UM_CHECK(users.ok()) << users.status().ToString();
    for (const auto& s : *users) all.push_back({item, s.id, s.score});
  }
  if (!req.exclusive) return all;
  std::sort(all.begin(), all.end(),
            [](const AudienceEntry& a, const AudienceEntry& b) {
              return a.score > b.score;
            });
  std::unordered_set<data::UserId> taken;
  std::unordered_map<data::ItemId, int> filled;
  std::vector<AudienceEntry> out;
  for (const auto& e : all) {
    if (taken.count(e.user) > 0 || filled[e.item] >= req.audience_size) {
      continue;
    }
    taken.insert(e.user);
    ++filled[e.item];
    out.push_back(e);
  }
  return out;
}

void ExpectSameEntries(const std::vector<AudienceEntry>& got,
                       const std::vector<AudienceEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "entry " << i;
    EXPECT_EQ(got[i].user, want[i].user) << "entry " << i;
    EXPECT_EQ(std::bit_cast<uint32_t>(got[i].score),
              std::bit_cast<uint32_t>(want[i].score))
        << "entry " << i;
  }
}

TEST_F(CampaignFixture, AudienceMatchesPerItemSnapshotQueries) {
  for (const bool exclusive : {false, true}) {
    AudienceRequest req;
    for (data::ItemId i = 0; i < 60; ++i) req.items.push_back(i);
    req.audience_size = 15;
    req.exclusive = exclusive;
    auto audience = BuildAudience(snapshot(), req);
    ASSERT_TRUE(audience.ok()) << audience.status().ToString();
    ExpectSameEntries(*audience, AudienceFromSingleQueries(snapshot(), req));
  }
  // More ids than one chunk: repeated items cross the chunk boundaries.
  AudienceRequest req;
  for (int k = 0; k < 700; ++k) req.items.push_back((k * 7) % 60);
  req.audience_size = 5;
  req.exclusive = false;
  auto audience = BuildAudience(snapshot(), req);
  ASSERT_TRUE(audience.ok()) << audience.status().ToString();
  ExpectSameEntries(*audience, AudienceFromSingleQueries(snapshot(), req));
}

TEST_F(CampaignFixture, NewsletterMatchesPerUserSnapshotQueries) {
  // Every user, with and without history: two chunks of ids.
  NewsletterRequest req;
  for (data::UserId u = 0; u < 500; ++u) req.users.push_back(u);
  req.items_per_user = 7;
  auto news = BuildNewsletter(snapshot(), req);
  ASSERT_TRUE(news.ok()) << news.status().ToString();
  size_t k = 0;
  for (const data::UserId u : req.users) {
    auto items = snapshot().RecommendItems(u, req.items_per_user);
    if (!items.ok()) continue;  // skipped by the newsletter too
    ASSERT_LT(k, news->size());
    const NewsletterEntry& e = (*news)[k++];
    EXPECT_EQ(e.user, u);
    ASSERT_EQ(e.items.size(), items->size());
    for (size_t r = 0; r < items->size(); ++r) {
      EXPECT_EQ(e.items[r].id, (*items)[r].id) << "user " << u;
      EXPECT_EQ(e.items[r].score, (*items)[r].score) << "user " << u;
    }
  }
  EXPECT_EQ(k, news->size());
}

void ExpectSameAnswers(
    const std::vector<Result<std::vector<core::Scored>>>& got,
    const std::vector<Result<std::vector<core::Scored>>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t q = 0; q < got.size(); ++q) {
    ASSERT_EQ(got[q].status().code(), want[q].status().code()) << "slot " << q;
    if (!got[q].ok()) continue;
    ASSERT_EQ(got[q]->size(), want[q]->size()) << "slot " << q;
    for (size_t r = 0; r < got[q]->size(); ++r) {
      EXPECT_EQ((*got[q])[r].id, (*want[q])[r].id) << "slot " << q;
      EXPECT_EQ(std::bit_cast<uint32_t>((*got[q])[r].score),
                std::bit_cast<uint32_t>((*want[q])[r].score))
          << "slot " << q;
    }
  }
}

TEST_F(CampaignFixture, HugeNAnswersLikeRowCount) {
  // n past the index's row count only adds padding, which is trimmed, so
  // INT_MAX must answer exactly what the row count answers (ids and score
  // bits) without sizing buffers by n.
  constexpr int kHuge = std::numeric_limits<int>::max();
  const EngineSnapshot& snap = snapshot();
  const int users = static_cast<int>(snap.num_users());
  const int items = static_cast<int>(snap.num_items());
  std::vector<Result<std::vector<core::Scored>>> huge, rows;
  const std::vector<data::UserId> user_ids = {0, 1, 7, 499};
  snap.MultiRecommendItems(user_ids.data(), 4, kHuge, &huge);
  snap.MultiRecommendItems(user_ids.data(), 4, items, &rows);
  ExpectSameAnswers(huge, rows);
  const std::vector<data::ItemId> item_ids = {0, 3, 59};
  snap.MultiTargetUsers(item_ids.data(), 3, kHuge, &huge);
  snap.MultiTargetUsers(item_ids.data(), 3, users, &rows);
  ExpectSameAnswers(huge, rows);
  ASSERT_TRUE(rows[0].ok());
  EXPECT_EQ(rows[0]->size(), static_cast<size_t>(users));

  // Audiences: doubling 2^30 + 1 for the exclusive over-fetch passes
  // INT_MAX.
  for (const bool exclusive : {false, true}) {
    SCOPED_TRACE(exclusive ? "exclusive" : "shared");
    AudienceRequest req;
    req.items = {1, 2, 3};
    req.exclusive = exclusive;
    req.audience_size = (1 << 30) + 1;
    auto huge_audience = BuildAudience(snap, req);
    req.audience_size = users;
    auto rows_audience = BuildAudience(snap, req);
    ASSERT_TRUE(huge_audience.ok()) << huge_audience.status().ToString();
    ASSERT_TRUE(rows_audience.ok()) << rows_audience.status().ToString();
    ExpectSameEntries(*huge_audience, *rows_audience);
  }
}

TEST_F(CampaignFixture, EmptyListsGiveEmptyResults) {
  for (const bool exclusive : {false, true}) {
    AudienceRequest req;
    req.exclusive = exclusive;
    auto audience = BuildAudience(snapshot(), req);
    ASSERT_TRUE(audience.ok()) << audience.status().ToString();
    EXPECT_TRUE(audience->empty());
  }
  auto news = BuildNewsletter(snapshot(), NewsletterRequest{});
  ASSERT_TRUE(news.ok()) << news.status().ToString();
  EXPECT_TRUE(news->empty());
}

TEST_F(CampaignFixture, UnknownItemFailsTheAudience) {
  AudienceRequest req;
  req.items = {1, 60, 2};
  EXPECT_TRUE(BuildAudience(snapshot(), req).status().IsNotFound());
}

TEST_F(CampaignFixture, CsvWritersReportFailedWrites) {
  AudienceRequest areq;
  areq.items = {1, 2};
  areq.audience_size = 3;
  auto audience = BuildAudience(snapshot(), areq);
  ASSERT_TRUE(audience.ok());
  EXPECT_TRUE(WriteAudienceCsv(*audience, "/dev/full").IsIOError());
  NewsletterRequest nreq;
  nreq.users = {0, 1, 2, 3};
  nreq.items_per_user = 2;
  auto news = BuildNewsletter(snapshot(), nreq);
  ASSERT_TRUE(news.ok());
  EXPECT_TRUE(WriteNewsletterCsv(*news, "/dev/full").IsIOError());
}

}  // namespace
}  // namespace unimatch::serving
