#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <unordered_set>

#include "src/data/synthetic.h"
#include "src/serving/campaign.h"
#include "src/serving/embedding_store.h"

namespace unimatch::serving {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(EmbeddingStoreTest, SaveLoadRoundtrip) {
  Rng rng(1);
  EmbeddingBundle b;
  b.version = 7;
  b.user_embeddings = Tensor::Randn({10, 4}, 1.0f, &rng);
  b.item_embeddings = Tensor::Randn({5, 4}, 1.0f, &rng);
  const std::string path = TempPath("emb.bin");
  ASSERT_TRUE(SaveEmbeddings(b, path).ok());
  auto loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->version, 7);
  EXPECT_TRUE(AllClose(loaded->user_embeddings, b.user_embeddings));
  EXPECT_TRUE(AllClose(loaded->item_embeddings, b.item_embeddings));
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
  // A 32-byte file whose first matrix header claims 2^36 x 16 floats: the
  // loader must refuse it from the file size, not try to allocate 4 TiB.
  const std::string path = TempPath("oversized.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const uint32_t format = 1;
  const int64_t version = 1;
  const int64_t dims[2] = {int64_t{1} << 36, 16};
  std::fwrite("UMEB", 4, 1, f);
  std::fwrite(&format, sizeof(format), 1, f);
  std::fwrite(&version, sizeof(version), 1, f);
  std::fwrite(dims, sizeof(dims), 1, f);
  ASSERT_EQ(std::ftell(f), 32);
  std::fclose(f);
  EXPECT_TRUE(LoadEmbeddings(path).status().IsIOError());
  std::remove(path.c_str());
}

TEST(EmbeddingStoreTest, MissingFileIsIOError) {
  EXPECT_TRUE(LoadEmbeddings("/no/such/file").status().IsIOError());
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
  auto audience = BuildAudience(engine(), req);
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
  auto audience = BuildAudience(engine(), req);
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
  auto audience = BuildAudience(engine(), req);
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
  auto news = BuildNewsletter(engine(), req);
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
  auto news = BuildNewsletter(engine(), req);
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

TEST(CampaignValidationTest, UnfittedEngineRejected) {
  core::EngineConfig ec;
  core::UniMatchEngine unfitted(ec);
  EXPECT_TRUE(
      BuildAudience(unfitted, AudienceRequest{}).status().IsFailedPrecondition());
  EXPECT_TRUE(BuildNewsletter(unfitted, NewsletterRequest{})
                  .status()
                  .IsFailedPrecondition());
}

}  // namespace
}  // namespace unimatch::serving
