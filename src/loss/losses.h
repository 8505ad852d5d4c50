// Training losses: the Eq. 10 NCE family (InfoNCE / SimCLR / row-bcNCE /
// col-bcNCE / bbcNCE), sampled softmax (SSM), and the Bernoulli BCE.
//
// The unified in-batch loss (Eq. 10 of the paper) over a batch of B positive
// pairs with score matrix S[r][c] = phi(u_r, i_c):
//
//   l = -mean_r [ alpha * log softmax_c(S[r][c] - da*log p(i_c))[r]
//               + beta  * log softmax_r(S[r][c] - db*log p(u_r))[c] ]    (diag)
//
// The beta term is the alpha term of S^T with log p(u) in place of
// log p(i), and NceFamilyLoss computes it that way: every softmax runs
// over rows.
//
// Setting (alpha, beta, da, db) recovers each named loss per Table II:
//   InfoNCE   = (1, 0, 0, 0)      -> optimum log [p(u,i) / p(u)p(i)]
//   SimCLR    = (1, 1, 0, 0)      -> same optimum, both directions
//   row-bcNCE = (1, 0, 1, 0)      -> optimum log p(i|u)
//   col-bcNCE = (0, 1, 0, 1)      -> optimum log p(u|i)
//   bbcNCE    = (1, 1, 1, 1)      -> optimum log p(u,i)   (the paper's loss)

#ifndef UNIMATCH_LOSS_LOSSES_H_
#define UNIMATCH_LOSS_LOSSES_H_

#include <string>

#include "src/nn/ops.h"
#include "src/util/status.h"

namespace unimatch::loss {

enum class LossKind {
  kBce,
  kSsm,
  kInfoNce,
  kSimClr,
  kRowBcNce,
  kColBcNce,
  kBbcNce,
};

const char* LossKindToString(LossKind kind);
Result<LossKind> LossKindFromString(const std::string& s);

/// True for losses trained on positive-only batches with in-batch negatives
/// (everything except BCE and SSM's extra sampled negatives are still
/// in-batch positives-only input data).
bool IsMultinomialLoss(LossKind kind);

/// The (alpha, beta, delta_alpha, delta_beta) switches of Eq. 10.
struct NceSettings {
  float alpha = 1.0f;
  float beta = 1.0f;
  bool delta_alpha = true;
  bool delta_beta = true;
};

/// Table II mapping. Must only be called for the five in-batch NCE kinds.
NceSettings SettingsFor(LossKind kind);

/// Eq. 10 on a [B, B] score matrix whose diagonal holds the positives.
/// `log_pu` / `log_pi` are the per-row-user / per-column-item empirical
/// log-marginals (constants; shape [B]).
nn::Variable NceFamilyLoss(const nn::Variable& scores, const Tensor& log_pu,
                           const Tensor& log_pi, const NceSettings& settings);

/// Sampled-softmax loss with sampling-bias correction: `pos_scores` [B] are
/// phi(u_r, i_r); `neg_scores` [B, S] are phi(u_r, n_s) against S shared
/// negatives drawn from a proposal q; `log_q_pos` [B] and `log_q_neg` [S]
/// are the proposal log-probabilities subtracted from the logits so the
/// optimum is log p(i|u) (the paper's "SSM w. n." when the towers
/// l2-normalize).
nn::Variable SampledSoftmaxLoss(const nn::Variable& pos_scores,
                                const nn::Variable& neg_scores,
                                const Tensor& log_q_pos,
                                const Tensor& log_q_neg);

/// Eq. 1: binary cross-entropy over paired scores with 0/1 labels.
nn::Variable BceLoss(const nn::Variable& pair_scores, const Tensor& labels);

}  // namespace unimatch::loss

#endif  // UNIMATCH_LOSS_LOSSES_H_
