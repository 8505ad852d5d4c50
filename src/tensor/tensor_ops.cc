#include "src/tensor/tensor_ops.h"

#include <algorithm>
#include <cmath>

#include "src/obs/obs.h"
#include "src/tensor/kernels.h"
#include "src/util/contract.h"
#include "src/util/parallel.h"
#include "src/util/threadpool.h"

namespace unimatch {

namespace {

// Above this many multiply-adds a Gemm call shards row blocks across the
// global pool; below it the dispatch overhead would dominate.
constexpr int64_t kGemmParallelFlops = 1 << 18;
// Rows per shard. Multiples of the micro-kernel's 4-row tile so parallel
// splits never break register tiling.
constexpr int64_t kGemmRowBlock = 32;

}  // namespace

void Gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c) {
  UM_COUNTER_INC("tensor.gemm.calls");
  // Widen before multiplying so the flop estimate cannot overflow a narrower
  // intermediate even if the dimension types ever shrink.
  const int64_t flops = int64_t{2} * m * n * k;
  UM_COUNTER_ADD("tensor.gemm.flops", flops);
  UM_CONTRACT(m >= 0 && n >= 0 && k >= 0)
      << "Gemm dims m=" << m << " n=" << n << " k=" << k;
  if (m == 0 || n == 0) return;

  // All four layouts run on the vectorized row kernels (src/tensor/kernels):
  // A's logical element (i, p) maps to a[i * row_stride + p * col_stride],
  // and trans_b selects between the axpy ([k, n] B) and dot ([n, k] B)
  // kernel shapes. Every case — including the transposed-A backward layouts
  // that used to be serial — shards C row blocks across the pool.
  const int64_t a_row_stride = trans_a ? 1 : k;
  const int64_t a_col_stride = trans_a ? m : 1;
  auto run_rows = [&](int64_t r0, int64_t r1) {
    if (!trans_b) {
      kernels::GemmRowsAxpy(r0, r1, n, k, alpha, a, a_row_stride, a_col_stride,
                            b, beta, c);
    } else {
      kernels::GemmRowsDot(r0, r1, n, k, alpha, a, a_row_stride, a_col_stride,
                           b, beta, c);
    }
  };
  if (flops > kGemmParallelFlops && m > kGemmRowBlock) {
    const int64_t num_blocks = (m + kGemmRowBlock - 1) / kGemmRowBlock;
    ThreadPool::Global()->ParallelFor(
        0, num_blocks,
        [&](int64_t block) {
          const int64_t r0 = block * kGemmRowBlock;
          run_rows(r0, std::min(m, r0 + kGemmRowBlock));
        },
        /*min_shard=*/1);
  } else {
    run_rows(0, m);
  }
}

Tensor MatMul(const Tensor& a, const Tensor& b, bool trans_a, bool trans_b) {
  UM_COUNTER_INC("tensor.matmul.calls");
  UM_CHECK_SHAPE(a.rank() == 2 && b.rank() == 2, a, b)
      << "MatMul needs rank-2 operands";
  const int64_t m = trans_a ? a.dim(1) : a.dim(0);
  const int64_t ka = trans_a ? a.dim(0) : a.dim(1);
  const int64_t kb = trans_b ? b.dim(1) : b.dim(0);
  const int64_t n = trans_b ? b.dim(0) : b.dim(1);
  UM_CHECK_SHAPE(ka == kb, a, b)
      << "MatMul inner dimensions (trans_a=" << trans_a
      << ", trans_b=" << trans_b << ")";
  // Gemm with beta == 0 writes every C element without reading it, so the
  // output can skip the zero-fill.
  Tensor c = Tensor::Empty({m, n});
  Gemm(trans_a, trans_b, m, n, ka, 1.0f, a.data(), b.data(), 0.0f, c.data());
  return c;
}

Tensor BatchMatMul(const Tensor& a, const Tensor& b, bool trans_a,
                   bool trans_b) {
  UM_COUNTER_INC("tensor.batch_matmul.calls");
  UM_CHECK_SHAPE(a.rank() == 3 && b.rank() == 3 && a.dim(0) == b.dim(0), a, b)
      << "BatchMatMul needs rank-3 operands with equal batch dims";
  const int64_t bs = a.dim(0);
  const int64_t m = trans_a ? a.dim(2) : a.dim(1);
  const int64_t ka = trans_a ? a.dim(1) : a.dim(2);
  const int64_t kb = trans_b ? b.dim(2) : b.dim(1);
  const int64_t n = trans_b ? b.dim(1) : b.dim(2);
  UM_CHECK_SHAPE(ka == kb, a, b)
      << "BatchMatMul inner dimensions (trans_a=" << trans_a
      << ", trans_b=" << trans_b << ")";
  Tensor c = Tensor::Empty({bs, m, n});
  const int64_t a_stride = a.dim(1) * a.dim(2);
  const int64_t b_stride = b.dim(1) * b.dim(2);
  const int64_t c_stride = m * n;
  for (int64_t i = 0; i < bs; ++i) {
    Gemm(trans_a, trans_b, m, n, ka, 1.0f, a.data() + i * a_stride,
         b.data() + i * b_stride, 0.0f, c.data() + i * c_stride);
  }
  return c;
}

void SoftmaxRows(const Tensor& in, Tensor* out) {
  UM_CONTRACT(in.rank() == 2) << "SoftmaxRows input shape "
                              << contract::ShapeOf(in);
  UM_CHECK_SHAPE(in.same_shape(*out), in, *out) << "SoftmaxRows";
  const int64_t m = in.dim(0), n = in.dim(1);
  // Rows are independent, so region sharding is bitwise-exact.
  RegionParallelFor(0, m, [&](int64_t i) {
    const float* x = in.data() + i * n;
    float* y = out->data() + i * n;
    float mx = x[0];
    for (int64_t j = 1; j < n; ++j) mx = std::max(mx, x[j]);
    double denom = 0.0;
    for (int64_t j = 0; j < n; ++j) {
      y[j] = std::exp(x[j] - mx);
      denom += y[j];
    }
    const float inv = static_cast<float>(1.0 / denom);
    for (int64_t j = 0; j < n; ++j) y[j] *= inv;
  });
}

void LogSoftmaxRows(const Tensor& in, Tensor* out) {
  UM_CONTRACT(in.rank() == 2) << "LogSoftmaxRows input shape "
                              << contract::ShapeOf(in);
  UM_CHECK_SHAPE(in.same_shape(*out), in, *out) << "LogSoftmaxRows";
  const int64_t m = in.dim(0), n = in.dim(1);
  // Rows are independent, so region sharding is bitwise-exact.
  RegionParallelFor(0, m, [&](int64_t i) {
    const float* x = in.data() + i * n;
    float* y = out->data() + i * n;
    float mx = x[0];
    for (int64_t j = 1; j < n; ++j) mx = std::max(mx, x[j]);
    double denom = 0.0;
    for (int64_t j = 0; j < n; ++j) denom += std::exp(x[j] - mx);
    const float lse = mx + static_cast<float>(std::log(denom));
    for (int64_t j = 0; j < n; ++j) y[j] = x[j] - lse;
  });
}

void L2NormalizeRows(const Tensor& in, Tensor* out, Tensor* norms, float eps) {
  UM_CONTRACT(in.rank() == 2) << "L2NormalizeRows input shape "
                              << contract::ShapeOf(in);
  UM_CHECK_SHAPE(in.same_shape(*out), in, *out) << "L2NormalizeRows";
  const int64_t m = in.dim(0), n = in.dim(1);
  if (norms != nullptr) {
    UM_CHECK_SHAPE(norms->numel() == m, in, *norms) << "L2NormalizeRows norms";
  }
  RegionParallelFor(0, m, [&](int64_t i) {
    const float norm =
        kernels::L2NormalizeF32(n, in.data() + i * n, out->data() + i * n, eps);
    if (norms != nullptr) norms->at(i) = norm;
  });
}

void ReduceSumRows(const Tensor& in, Tensor* out) {
  UM_CONTRACT(in.rank() == 2) << "ReduceSumRows input shape "
                              << contract::ShapeOf(in);
  const int64_t m = in.dim(0), n = in.dim(1);
  UM_CHECK_SHAPE(out->numel() == m, in, *out) << "ReduceSumRows";
  for (int64_t i = 0; i < m; ++i) {
    const float* x = in.data() + i * n;
    double s = 0.0;
    for (int64_t j = 0; j < n; ++j) s += x[j];
    out->at(i) = static_cast<float>(s);
  }
}

void ReduceSumCols(const Tensor& in, Tensor* out) {
  UM_CONTRACT(in.rank() == 2) << "ReduceSumCols input shape "
                              << contract::ShapeOf(in);
  const int64_t m = in.dim(0), n = in.dim(1);
  UM_CHECK_SHAPE(out->numel() == n, in, *out) << "ReduceSumCols";
  out->SetZero();
  for (int64_t i = 0; i < m; ++i) {
    const float* x = in.data() + i * n;
    float* y = out->data();
    for (int64_t j = 0; j < n; ++j) y[j] += x[j];
  }
}

}  // namespace unimatch
