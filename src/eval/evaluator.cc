#include "src/eval/evaluator.h"

#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/obs/obs.h"
#include "src/tensor/kernels.h"
#include "src/util/logging.h"
#include "src/util/threadpool.h"
#include "src/util/timer.h"

namespace unimatch::eval {

namespace {

// Ranks every case's candidates by score(anchor, candidate), positive
// first. Cases are independent, so each is scored into its own slot on the
// shared pool, then folded serially in case order, so accumulator sums and
// output lists match a serial pass exactly. `topn` and `ndcg` are optional.
template <typename Score>
TaskResult RunTask(const std::vector<EvalCase>& cases, int top_n,
                   const Score& score, std::vector<std::vector<int64_t>>* topn,
                   std::vector<double>* ndcg) {
  struct CaseOut {
    double recall = 0.0;
    double ndcg = 0.0;
    std::vector<int64_t> top;
  };
  std::vector<CaseOut> outs(cases.size());
  ThreadPool::Global()->ParallelFor(
      0, static_cast<int64_t>(cases.size()),
      [&](int64_t k) {
        const EvalCase& c = cases[k];
        std::vector<float> scores;
        scores.reserve(c.negatives.size() + 1);
        scores.push_back(score(c.anchor, c.positive));
        for (int64_t candidate : c.negatives) {
          scores.push_back(score(c.anchor, candidate));
        }
        std::vector<bool> pos(scores.size(), false);
        pos[0] = true;
        CaseOut& slot = outs[k];
        slot.ndcg = NdcgAtN(scores, pos, top_n);
        slot.recall = RecallAtN(scores, pos, top_n);
        if (topn != nullptr) {
          for (int64_t idx : TopN(scores, top_n)) {
            slot.top.push_back(idx == 0 ? c.positive : c.negatives[idx - 1]);
          }
        }
      },
      /*min_shard=*/8);

  MetricAccumulator acc;
  for (CaseOut& slot : outs) {
    acc.Add(slot.recall, slot.ndcg);
    if (ndcg != nullptr) ndcg->push_back(slot.ndcg);
    if (topn != nullptr) topn->push_back(std::move(slot.top));
  }
  return {acc.recall(), acc.ndcg(), acc.count};
}

// IR, then UT, with score(user, item): IR anchors are users, UT anchors
// are items.
template <typename Score>
EvalResult RunTasks(const EvalProtocol& protocol, const Score& score,
                    RetrievedLists* retrieved, PerCaseMetrics* per_case) {
  UM_GAUGE_SET("eval.parallel.workers",
               static_cast<double>(ThreadPool::Global()->num_threads()));
  if (retrieved != nullptr) {
    retrieved->ir_topn.clear();
    retrieved->ut_topn.clear();
  }
  if (per_case != nullptr) {
    per_case->ir_ndcg.clear();
    per_case->ut_ndcg.clear();
  }
  const int top_n = protocol.config().top_n;
  EvalResult out;
  out.ir = RunTask(protocol.ir_cases(), top_n, score,
                   retrieved != nullptr ? &retrieved->ir_topn : nullptr,
                   per_case != nullptr ? &per_case->ir_ndcg : nullptr);
  out.ut = RunTask(
      protocol.ut_cases(), top_n,
      [&](int64_t item, int64_t user) { return score(user, item); },
      retrieved != nullptr ? &retrieved->ut_topn : nullptr,
      per_case != nullptr ? &per_case->ut_ndcg : nullptr);
  UM_COUNTER_ADD("eval.parallel.cases", out.ir.num_cases + out.ut.num_cases);
  UM_COUNTER_ADD("eval.ir.cases", out.ir.num_cases);
  UM_COUNTER_ADD("eval.ut.cases", out.ut.num_cases);
  return out;
}

}  // namespace

Evaluator::Evaluator(const data::DatasetSplits* splits,
                     const EvalProtocol* protocol)
    : splits_(splits), protocol_(protocol) {}

EvalResult Evaluator::Evaluate(const model::TwoTowerModel& model,
                               RetrievedLists* retrieved,
                               PerCaseMetrics* per_case) const {
  UM_TRACE_SPAN("eval.evaluate");
  UM_SCOPED_TIMER("eval.evaluate.ms");
  UM_COUNTER_INC("eval.evaluations");
  const int64_t d = model.config().embedding_dim;

  // Users needed by either task.
  std::unordered_set<data::UserId> needed;
  for (const auto& c : protocol_->ir_cases()) needed.insert(c.anchor);
  for (const auto& c : protocol_->ut_cases()) {
    needed.insert(c.positive);
    for (auto u : c.negatives) needed.insert(u);
  }

  // Compact index for needed users, embeddings computed in one pass.
  std::vector<data::UserId> user_list(needed.begin(), needed.end());
  std::unordered_map<data::UserId, int64_t> user_slot;
  std::vector<std::vector<int64_t>> histories;
  histories.reserve(user_list.size());
  for (size_t k = 0; k < user_list.size(); ++k) {
    user_slot[user_list[k]] = static_cast<int64_t>(k);
    histories.push_back(splits_->histories[user_list[k]]);
  }
  WallTimer embed_timer;
  const Tensor user_emb = model.InferUserEmbeddings(histories);
  const Tensor item_emb = model.InferItemEmbeddings();
  UM_HISTOGRAM_OBSERVE("eval.embed.ms", embed_timer.ElapsedMillis());

  // Zero-copy, bounds-checked row views into the (read-only) embedding
  // matrices.
  return RunTasks(
      *protocol_,
      [&](data::UserId u, data::ItemId i) {
        return kernels::DotF32(user_emb.Row(user_slot.at(u)).data(),
                               item_emb.Row(i).data(), d);
      },
      retrieved, per_case);
}

EvalResult Evaluator::EvaluateScorer(
    const std::function<double(data::UserId, data::ItemId)>& score,
    RetrievedLists* retrieved) const {
  UM_SCOPED_TIMER("eval.scorer.ms");
  UM_COUNTER_INC("eval.scorer.evaluations");
  return RunTasks(
      *protocol_,
      [&](data::UserId u, data::ItemId i) {
        return static_cast<float>(score(u, i));
      },
      retrieved, /*per_case=*/nullptr);
}

}  // namespace unimatch::eval
