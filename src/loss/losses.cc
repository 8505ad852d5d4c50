#include "src/loss/losses.h"

#include "src/util/contract.h"
#include "src/util/logging.h"

namespace unimatch::loss {

const char* LossKindToString(LossKind kind) {
  switch (kind) {
    case LossKind::kBce:
      return "BCE";
    case LossKind::kSsm:
      return "SSM w. n.";
    case LossKind::kInfoNce:
      return "InfoNCE";
    case LossKind::kSimClr:
      return "SimCLR";
    case LossKind::kRowBcNce:
      return "row-bcNCE";
    case LossKind::kColBcNce:
      return "col-bcNCE";
    case LossKind::kBbcNce:
      return "bbcNCE";
  }
  return "?";
}

Result<LossKind> LossKindFromString(const std::string& s) {
  if (s == "bce") return LossKind::kBce;
  if (s == "ssm") return LossKind::kSsm;
  if (s == "infonce") return LossKind::kInfoNce;
  if (s == "simclr") return LossKind::kSimClr;
  if (s == "row_bcnce" || s == "row-bcnce") return LossKind::kRowBcNce;
  if (s == "col_bcnce" || s == "col-bcnce") return LossKind::kColBcNce;
  if (s == "bbcnce") return LossKind::kBbcNce;
  return Status::InvalidArgument("unknown loss kind: " + s);
}

bool IsMultinomialLoss(LossKind kind) { return kind != LossKind::kBce; }

NceSettings SettingsFor(LossKind kind) {
  switch (kind) {
    case LossKind::kInfoNce:
      return {1.0f, 0.0f, false, false};
    case LossKind::kSimClr:
      return {1.0f, 1.0f, false, false};
    case LossKind::kRowBcNce:
      return {1.0f, 0.0f, true, false};
    case LossKind::kColBcNce:
      return {0.0f, 1.0f, false, true};
    case LossKind::kBbcNce:
      return {1.0f, 1.0f, true, true};
    default:
      UM_LOG(FATAL) << "SettingsFor called with non-NCE loss "
                    << LossKindToString(kind);
      return {};
  }
}

namespace {

// One in-batch term of Eq. 10 on [B, B] logits whose diagonal holds the
// positives: -weight * mean_r log softmax_c(logits[r][c] - log_p[c])[r],
// with log_p subtracted only when `correct` is set.
nn::Variable InBatchTerm(const nn::Variable& logits, const Tensor& log_p,
                         bool correct, float weight) {
  nn::Variable shifted = logits;
  if (correct) {
    shifted = nn::AddRowVector(logits,
                               nn::ScalarMul(nn::Constant(log_p), -1.0f));
  }
  return nn::ScalarMul(
      nn::Mean(nn::TakeDiagonal(nn::LogSoftmax(shifted))), -weight);
}

}  // namespace

nn::Variable NceFamilyLoss(const nn::Variable& scores, const Tensor& log_pu,
                           const Tensor& log_pi,
                           const NceSettings& settings) {
  UM_CONTRACT(scores.rank() == 2 && scores.dim(0) == scores.dim(1))
      << "NceFamilyLoss needs a square [B, B] score matrix, got "
      << contract::ShapeOf(scores);
  const int64_t b = scores.dim(0);
  UM_CHECK_SHAPE(log_pu.numel() == b, scores, log_pu) << "log_pu marginals";
  UM_CHECK_SHAPE(log_pi.numel() == b, scores, log_pi) << "log_pi marginals";
  UM_CONTRACT(settings.alpha > 0.0f || settings.beta > 0.0f)
      << "at least one of alpha/beta must be positive";
  UM_CHECK_FINITE(scores.value()) << "NceFamilyLoss scores";

  nn::Variable total;
  if (settings.alpha > 0.0f) {
    // Each user's positive against the batch's items:
    // h(u, i') = exp(phi(u, i') - log p(i')).
    total = InBatchTerm(scores, log_pi, settings.delta_alpha, settings.alpha);
  }
  if (settings.beta > 0.0f) {
    // Each item's positive against the batch's users,
    // o(u', i) = exp(phi(u', i) - log p(u')): the same term on S^T.
    nn::Variable col = InBatchTerm(nn::Transpose(scores), log_pu,
                                   settings.delta_beta, settings.beta);
    total = total.defined() ? nn::Add(total, col) : col;
  }
  return total;
}

nn::Variable SampledSoftmaxLoss(const nn::Variable& pos_scores,
                                const nn::Variable& neg_scores,
                                const Tensor& log_q_pos,
                                const Tensor& log_q_neg) {
  UM_CHECK_SHAPE(pos_scores.rank() == 1 && neg_scores.rank() == 2 &&
                     neg_scores.dim(0) == pos_scores.dim(0),
                 pos_scores, neg_scores)
      << "SampledSoftmaxLoss scores";
  const int64_t b = pos_scores.dim(0);
  const int64_t s = neg_scores.dim(1);
  UM_CHECK_SHAPE(log_q_pos.numel() == b, pos_scores, log_q_pos)
      << "SampledSoftmaxLoss positive proposal log-probs";
  UM_CHECK_SHAPE(log_q_neg.numel() == s, neg_scores, log_q_neg)
      << "SampledSoftmaxLoss negative proposal log-probs";

  nn::Variable pos_adj = nn::Reshape(
      nn::Add(pos_scores,
              nn::Reshape(nn::ScalarMul(nn::Constant(log_q_pos), -1.0f), {b})),
      {b, 1});

  nn::Variable neg_adj = nn::AddRowVector(
      neg_scores, nn::ScalarMul(nn::Constant(log_q_neg), -1.0f));

  nn::Variable logits = nn::ConcatCols(pos_adj, neg_adj);  // [B, 1+S]
  nn::Variable log_probs = nn::LogSoftmax(logits);
  return nn::ScalarMul(nn::Mean(nn::TakeColumn(log_probs, 0)), -1.0f);
}

nn::Variable BceLoss(const nn::Variable& pair_scores, const Tensor& labels) {
  return nn::BCEWithLogits(pair_scores, labels);
}

}  // namespace unimatch::loss
