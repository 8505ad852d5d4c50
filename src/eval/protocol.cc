#include "src/eval/protocol.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/util/logging.h"

namespace unimatch::eval {

namespace {

// One case per anchor, from the first (anchor, candidate) pair whose anchor
// and candidate are both pooled. Its negatives are drawn from
// `candidate_pool` with `rng`, skipping the anchor's partners in `pairs`
// (false-negative exclusion); an anchor with too few eligible candidates
// for rejection sampling gets no case.
std::vector<EvalCase> BuildCases(
    const std::vector<std::pair<int64_t, int64_t>>& pairs,
    const std::vector<int64_t>& anchor_pool,
    const std::vector<int64_t>& candidate_pool, int num_negatives,
    Rng* rng) {
  const std::unordered_set<int64_t> anchors(anchor_pool.begin(),
                                            anchor_pool.end());
  const std::unordered_set<int64_t> candidates(candidate_pool.begin(),
                                               candidate_pool.end());
  std::unordered_map<int64_t, std::unordered_set<int64_t>> partners;
  for (const auto& [anchor, candidate] : pairs) {
    partners[anchor].insert(candidate);
  }
  std::vector<EvalCase> cases;
  std::unordered_set<int64_t> done;
  for (const auto& [anchor, candidate] : pairs) {
    if (done.count(anchor)) continue;
    if (!anchors.count(anchor)) continue;
    if (!candidates.count(candidate)) continue;
    done.insert(anchor);
    const auto& excluded = partners[anchor];
    if (candidate_pool.size() <=
        excluded.size() + static_cast<size_t>(num_negatives)) {
      continue;
    }
    EvalCase c;
    c.anchor = anchor;
    c.positive = candidate;
    while (static_cast<int>(c.negatives.size()) < num_negatives) {
      const int64_t cand = candidate_pool[rng->Uniform(candidate_pool.size())];
      if (cand == c.positive || excluded.count(cand)) continue;
      c.negatives.push_back(cand);
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

}  // namespace

EvalProtocol EvalProtocol::Build(const data::DatasetSplits& splits,
                                 const ProtocolConfig& config) {
  EvalProtocol p;
  p.config_ = config;
  Rng rng(config.seed);

  const auto& marg = splits.train_marginals;
  for (data::ItemId i = 0; i < splits.num_items; ++i) {
    if (marg.item_count(i) >= splits.config.min_item_interactions) {
      p.item_pool_.push_back(i);
    }
  }
  for (data::UserId u = 0; u < splits.num_users; ++u) {
    if (marg.user_count(u) >= splits.config.min_user_interactions &&
        !splits.histories[u].empty()) {
      p.user_pool_.push_back(u);
    }
  }
  if (p.item_pool_.size() < static_cast<size_t>(config.num_negatives + 1) ||
      p.user_pool_.size() < static_cast<size_t>(config.num_negatives + 1)) {
    UM_LOG(WARNING) << "candidate pools too small for "
                    << config.num_negatives << " negatives (items="
                    << p.item_pool_.size() << ", users="
                    << p.user_pool_.size() << ")";
    return p;
  }

  // The test month's purchases as (user, item) pairs; UT reads them as
  // (item, user). IR draws its negatives first, from the one seeded Rng.
  std::vector<std::pair<int64_t, int64_t>> user_item, item_user;
  for (const auto& s : splits.test.samples()) {
    user_item.emplace_back(s.user, s.target);
    item_user.emplace_back(s.target, s.user);
  }
  p.ir_cases_ = BuildCases(user_item, p.user_pool_, p.item_pool_,
                           config.num_negatives, &rng);
  p.ut_cases_ = BuildCases(item_user, p.item_pool_, p.user_pool_,
                           config.num_negatives, &rng);
  return p;
}

}  // namespace unimatch::eval
