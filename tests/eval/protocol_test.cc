#include "src/eval/protocol.h"

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "src/data/synthetic.h"

namespace unimatch::eval {
namespace {

data::DatasetSplits MakeTestSplits() {
  data::SyntheticConfig cfg;
  cfg.num_users = 800;
  cfg.num_items = 120;
  cfg.num_months = 6;
  cfg.target_interactions = 14000;
  cfg.seed = 55;
  const data::InteractionLog log = data::GenerateSynthetic(cfg);
  return data::MakeSplits(log, data::SplitConfig{});
}

class ProtocolTest : public ::testing::Test {
 protected:
  static const data::DatasetSplits& splits() {
    static const data::DatasetSplits* s =
        new data::DatasetSplits(MakeTestSplits());
    return *s;
  }
  static const EvalProtocol& protocol() {
    static const EvalProtocol* p = [] {
      ProtocolConfig cfg;
      cfg.top_n = 10;
      cfg.num_negatives = 20;
      return new EvalProtocol(EvalProtocol::Build(splits(), cfg));
    }();
    return *p;
  }
};

TEST_F(ProtocolTest, PoolsRespectMinInteractions) {
  const auto& marg = splits().train_marginals;
  for (auto i : protocol().item_pool()) {
    EXPECT_GE(marg.item_count(i), 3);
  }
  for (auto u : protocol().user_pool()) {
    EXPECT_GE(marg.user_count(u), 3);
    EXPECT_FALSE(splits().histories[u].empty());
  }
}

TEST_F(ProtocolTest, IrTaskCasesWellFormed) {
  ASSERT_GT(protocol().ir_cases().size(), 20u);
  std::unordered_set<data::ItemId> pool(protocol().item_pool().begin(),
                                        protocol().item_pool().end());
  std::unordered_set<data::UserId> seen_users;
  for (const auto& c : protocol().ir_cases()) {
    EXPECT_TRUE(seen_users.insert(c.anchor).second) << "duplicate user case";
    EXPECT_TRUE(pool.count(c.positive));
    EXPECT_EQ(c.negatives.size(), 20u);
    for (auto n : c.negatives) {
      EXPECT_TRUE(pool.count(n));
      EXPECT_NE(n, c.positive);
    }
  }
}

TEST_F(ProtocolTest, IrNegativesExcludeTestPurchases) {
  std::unordered_map<data::UserId, std::unordered_set<data::ItemId>> bought;
  for (const auto& s : splits().test.samples()) {
    bought[s.user].insert(s.target);
  }
  for (const auto& c : protocol().ir_cases()) {
    for (auto n : c.negatives) {
      EXPECT_FALSE(bought[c.anchor].count(n))
          << "negative " << n << " was bought by user " << c.anchor;
    }
  }
}

TEST_F(ProtocolTest, IrPositiveIsRealTestPurchase) {
  std::unordered_map<data::UserId, std::unordered_set<data::ItemId>> bought;
  for (const auto& s : splits().test.samples()) {
    bought[s.user].insert(s.target);
  }
  for (const auto& c : protocol().ir_cases()) {
    EXPECT_TRUE(bought[c.anchor].count(c.positive));
  }
}

TEST_F(ProtocolTest, UtTaskCasesWellFormed) {
  ASSERT_GT(protocol().ut_cases().size(), 10u);
  std::unordered_set<data::UserId> pool(protocol().user_pool().begin(),
                                        protocol().user_pool().end());
  std::unordered_set<data::ItemId> seen_items;
  for (const auto& c : protocol().ut_cases()) {
    EXPECT_TRUE(seen_items.insert(c.anchor).second) << "duplicate item case";
    EXPECT_EQ(c.negatives.size(), 20u);
    for (auto u : c.negatives) {
      EXPECT_TRUE(pool.count(u));
      EXPECT_NE(u, c.positive);
    }
  }
}

TEST_F(ProtocolTest, UtNegativesDidNotBuyItem) {
  std::unordered_map<data::ItemId, std::unordered_set<data::UserId>> buyers;
  for (const auto& s : splits().test.samples()) {
    buyers[s.target].insert(s.user);
  }
  for (const auto& c : protocol().ut_cases()) {
    for (auto u : c.negatives) {
      EXPECT_FALSE(buyers[c.anchor].count(u));
    }
  }
}

TEST_F(ProtocolTest, DeterministicForSeed) {
  ProtocolConfig cfg;
  cfg.num_negatives = 20;
  const EvalProtocol a = EvalProtocol::Build(splits(), cfg);
  const EvalProtocol b = EvalProtocol::Build(splits(), cfg);
  ASSERT_EQ(a.ir_cases().size(), b.ir_cases().size());
  for (size_t k = 0; k < a.ir_cases().size(); ++k) {
    EXPECT_EQ(a.ir_cases()[k].anchor, b.ir_cases()[k].anchor);
    EXPECT_EQ(a.ir_cases()[k].negatives, b.ir_cases()[k].negatives);
  }
}

TEST(ProtocolSmallPoolTest, GracefulWhenPoolTooSmall) {
  data::SyntheticConfig cfg;
  cfg.num_users = 50;
  cfg.num_items = 10;
  cfg.num_months = 4;
  cfg.target_interactions = 500;
  cfg.seed = 9;
  const data::InteractionLog log = data::GenerateSynthetic(cfg);
  const data::DatasetSplits splits = data::MakeSplits(log, data::SplitConfig{});
  ProtocolConfig pc;
  pc.num_negatives = 99;  // far more than 10 items exist
  const EvalProtocol p = EvalProtocol::Build(splits, pc);
  EXPECT_TRUE(p.ir_cases().empty());
  EXPECT_TRUE(p.ut_cases().empty());
}

}  // namespace
}  // namespace unimatch::eval
