#include "src/nn/optimizer.h"

#include <cmath>

#include "src/util/contract.h"
#include "src/util/parallel.h"

namespace unimatch::nn {

double Optimizer::ClipGradNorm(double max_norm) {
  double sq = 0.0;
  for (auto& p : params_) {
    if (!p.variable.grad_defined()) continue;
    const double n = p.variable.grad().L2Norm();
    sq += n * n;
  }
  const double norm = std::sqrt(sq);
  UM_CONTRACT(std::isfinite(norm))
      << "gradient norm is non-finite before clipping (" << norm << ")";
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (auto& p : params_) {
      if (!p.variable.grad_defined()) continue;
      // Safe: grad tensors are owned per-node.
      const_cast<Tensor&>(p.variable.grad()).ScaleInPlace(scale);
    }
  }
  return norm;
}

void Sgd::Step() {
  for (auto& p : params_) {
    if (!p.variable.grad_defined()) continue;
    UM_CHECK_FINITE(p.variable.grad()) << "param " << p.name;
    p.variable.mutable_value().AddInPlace(p.variable.grad(), -lr_);
  }
}

Adagrad::Adagrad(std::vector<NamedParameter> params, float lr, float eps)
    : Optimizer(std::move(params)), lr_(lr), eps_(eps) {
  accum_.reserve(params_.size());
  for (auto& p : params_) accum_.emplace_back(p.variable.shape());
}

void Adagrad::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i].variable;
    if (!p.grad_defined()) continue;
    UM_CHECK_FINITE(p.grad()) << "param " << params_[i].name;
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    float* a = accum_[i].data();
    const int64_t n = p.numel();
    // Per-element state update: region sharding is bitwise-exact.
    RegionParallelForRange(
        0, n,
        [&](int64_t lo, int64_t hi) {
          for (int64_t j = lo; j < hi; ++j) {
            a[j] += g[j] * g[j];
            w[j] -= lr_ * g[j] / (std::sqrt(a[j]) + eps_);
          }
        },
        /*min_range=*/8192);
  }
}

Adam::Adam(std::vector<NamedParameter> params, float lr, float beta1,
           float beta2, float eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (auto& p : params_) {
    m_.emplace_back(p.variable.shape());
    v_.emplace_back(p.variable.shape());
  }
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i].variable;
    if (!p.grad_defined()) continue;
    UM_CHECK_FINITE(p.grad()) << "param " << params_[i].name;
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const int64_t n = p.numel();
    // Per-element state update: region sharding is bitwise-exact.
    RegionParallelForRange(
        0, n,
        [&](int64_t lo, int64_t hi) {
          for (int64_t j = lo; j < hi; ++j) {
            m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
            v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
            const float mhat = m[j] / bc1;
            const float vhat = v[j] / bc2;
            w[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
          }
        },
        /*min_range=*/8192);
  }
}

std::unique_ptr<Optimizer> MakeOptimizer(const std::string& name,
                                         std::vector<NamedParameter> params,
                                         float lr) {
  if (name == "sgd") return std::make_unique<Sgd>(std::move(params), lr);
  if (name == "adagrad") {
    return std::make_unique<Adagrad>(std::move(params), lr);
  }
  if (name == "adam") return std::make_unique<Adam>(std::move(params), lr);
  UM_LOG(FATAL) << "unknown optimizer: " << name;
  return nullptr;
}

}  // namespace unimatch::nn
