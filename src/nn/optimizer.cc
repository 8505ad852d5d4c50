#include "src/nn/optimizer.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/kernels.h"
#include "src/util/contract.h"
#include "src/util/parallel.h"

namespace unimatch::nn {

namespace {

// Elementwise state updates shard at this many elements per region range.
constexpr int64_t kMinUpdateRange = 8192;

// Calls update(value_offset, grad_offset, count) on disjoint element ranges
// covering every stored gradient element of `p`: the whole tensor when the
// gradient is dense, each stored row when it is row-sparse. An elementwise
// update then gives the same bits either way on the stored rows, and SGD
// and Adagrad leave a row with a zero gradient unchanged, so skipping the
// omitted rows is exact.
template <typename Update>
void ForEachStoredRange(const Variable& p, const Update& update) {
  if (!p.grad_row_sparse()) {
    RegionParallelForRange(
        0, p.numel(),
        [&](int64_t lo, int64_t hi) { update(lo, lo, hi - lo); },
        kMinUpdateRange);
    return;
  }
  const std::vector<int64_t>& rows = p.grad_rows();
  const int64_t d = p.dim(1);
  RegionParallelForRange(
      0, static_cast<int64_t>(rows.size()),
      [&](int64_t lo, int64_t hi) {
        for (int64_t k = lo; k < hi; ++k) update(rows[k] * d, k * d, d);
      },
      kMinUpdateRange / std::max<int64_t>(d, 1) + 1);
}

}  // namespace

double Optimizer::ClipGradNorm(double max_norm) {
  // A row-sparse grad() holds only its stored rows, in ascending order. The
  // omitted rows would each add +0.0 to the double sum, so both the norm and
  // the rescale below are bitwise those of the dense gradient.
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
    float* w = p.variable.mutable_value().data();
    const float* g = p.variable.grad().data();
    ForEachStoredRange(p.variable, [&](int64_t wo, int64_t go, int64_t n) {
      kernels::AxpyF32(n, -lr_, g + go, w + wo);
    });
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
    // Per-element state update: region sharding is bitwise-exact.
    ForEachStoredRange(p, [&](int64_t wo, int64_t go, int64_t n) {
      for (int64_t j = 0; j < n; ++j) {
        a[wo + j] += g[go + j] * g[go + j];
        w[wo + j] -= lr_ * g[go + j] / (std::sqrt(a[wo + j]) + eps_);
      }
    });
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
  const kernels::AdamStepF32 s{
      lr_,
      beta1_,
      beta2_,
      eps_,
      1.0f - std::pow(beta1_, static_cast<float>(t_)),
      1.0f - std::pow(beta2_, static_cast<float>(t_)),
  };
  for (size_t i = 0; i < params_.size(); ++i) {
    auto& p = params_[i].variable;
    if (!p.grad_defined()) continue;
    UM_CHECK_FINITE(p.grad()) << "param " << params_[i].name;
    float* w = p.mutable_value().data();
    const float* g = p.grad().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    // Per-element state update: region sharding is bitwise-exact.
    if (!p.grad_row_sparse()) {
      RegionParallelForRange(
          0, p.numel(),
          [&](int64_t lo, int64_t hi) {
            kernels::AdamUpdateF32(hi - lo, s, g + lo, m + lo, v + lo, w + lo);
          },
          kMinUpdateRange);
      continue;
    }
    // Dense semantics on a row-sparse gradient: every row's moments decay,
    // so runs of omitted rows go through the kernel with g = +0.0f.
    const std::vector<int64_t>& rows = p.grad_rows();
    const int64_t d = p.dim(1);
    RegionParallelForRange(
        0, p.dim(0),
        [&](int64_t lo, int64_t hi) {
          auto it = std::lower_bound(rows.begin(), rows.end(), lo);
          int64_t r = lo;  // first row not yet updated
          for (; it != rows.end() && *it < hi; ++it) {
            const int64_t k = it - rows.begin();
            kernels::AdamUpdateF32((*it - r) * d, s, nullptr, m + r * d,
                                   v + r * d, w + r * d);
            kernels::AdamUpdateF32(d, s, g + k * d, m + *it * d, v + *it * d,
                                   w + *it * d);
            r = *it + 1;
          }
          kernels::AdamUpdateF32((hi - r) * d, s, nullptr, m + r * d,
                                 v + r * d, w + r * d);
        },
        kMinUpdateRange / std::max<int64_t>(d, 1) + 1);
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
  return nullptr;
}

}  // namespace unimatch::nn
