#include "src/nn/ops.h"

#include <algorithm>
#include <cmath>

#include "src/tensor/kernels.h"
#include "src/tensor/tensor_ops.h"
#include "src/util/contract.h"
#include "src/util/parallel.h"

namespace unimatch::nn {

namespace {

// Shorthand for building a unary elementwise op: forward maps x->f(x),
// backward multiplies the upstream grad by dfdx(x, y).
template <typename Fwd, typename Dfdx>
Variable UnaryElementwise(const Variable& a, Fwd fwd, Dfdx dfdx,
                          const char* name) {
  Tensor out = Tensor::Empty(a.shape());
  const float* x = a.value().data();
  float* y = out.data();
  for (int64_t i = 0; i < a.numel(); ++i) y[i] = fwd(x[i]);
  return MakeOpVariable(
      std::move(out), {a},
      [a, dfdx](VarNode& node) {
        Tensor gin = Tensor::Empty(a.shape());
        const float* g = node.grad.data();
        const float* x = a.value().data();
        const float* y = node.value.data();
        float* gi = gin.data();
        for (int64_t i = 0; i < a.numel(); ++i) gi[i] = g[i] * dfdx(x[i], y[i]);
        a.node()->AccumulateGrad(std::move(gin));
      },
      name);
}

// dst = src^T for a row-major [m, n] src.
void TransposeCopy(int64_t m, int64_t n, const float* src, float* dst) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) dst[j * m + i] = src[i * n + j];
  }
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  UM_CHECK_SHAPE(a.value().same_shape(b.value()), a, b) << "Add";
  Tensor out = a.value().Clone();
  out.AddInPlace(b.value());
  return MakeOpVariable(
      std::move(out), {a, b},
      [a, b](VarNode& node) {
        a.node()->AccumulateGrad(node.grad);
        b.node()->AccumulateGrad(node.grad);
      },
      "Add");
}

Variable Sub(const Variable& a, const Variable& b) {
  UM_CHECK_SHAPE(a.value().same_shape(b.value()), a, b) << "Sub";
  Tensor out = a.value().Clone();
  out.AddInPlace(b.value(), -1.0f);
  return MakeOpVariable(
      std::move(out), {a, b},
      [a, b](VarNode& node) {
        a.node()->AccumulateGrad(node.grad);
        Tensor gneg = node.grad.Clone();
        gneg.ScaleInPlace(-1.0f);
        b.node()->AccumulateGrad(std::move(gneg));
      },
      "Sub");
}

Variable Mul(const Variable& a, const Variable& b) {
  UM_CHECK_SHAPE(a.value().same_shape(b.value()), a, b) << "Mul";
  Tensor out = Tensor::Empty(a.shape());
  const float* x = a.value().data();
  const float* z = b.value().data();
  float* y = out.data();
  for (int64_t i = 0; i < a.numel(); ++i) y[i] = x[i] * z[i];
  return MakeOpVariable(
      std::move(out), {a, b},
      [a, b](VarNode& node) {
        const float* g = node.grad.data();
        Tensor ga = Tensor::Empty(a.shape());
        Tensor gb = Tensor::Empty(b.shape());
        const float* x = a.value().data();
        const float* z = b.value().data();
        for (int64_t i = 0; i < a.numel(); ++i) {
          ga.data()[i] = g[i] * z[i];
          gb.data()[i] = g[i] * x[i];
        }
        a.node()->AccumulateGrad(std::move(ga));
        b.node()->AccumulateGrad(std::move(gb));
      },
      "Mul");
}

Variable Neg(const Variable& a) { return ScalarMul(a, -1.0f); }

Variable ScalarMul(const Variable& a, float s) {
  Tensor out = a.value().Clone();
  out.ScaleInPlace(s);
  return MakeOpVariable(
      std::move(out), {a},
      [a, s](VarNode& node) {
        Tensor g = node.grad.Clone();
        g.ScaleInPlace(s);
        a.node()->AccumulateGrad(std::move(g));
      },
      "ScalarMul");
}

Variable ScalarAdd(const Variable& a, float s) {
  Tensor out = a.value().Clone();
  float* y = out.data();
  for (int64_t i = 0; i < out.numel(); ++i) y[i] += s;
  return MakeOpVariable(
      std::move(out), {a},
      [a](VarNode& node) { a.node()->AccumulateGrad(node.grad); },
      "ScalarAdd");
}

Variable Sigmoid(const Variable& a) {
  return UnaryElementwise(
      a,
      [](float x) {
        return x >= 0.0f ? 1.0f / (1.0f + std::exp(-x))
                         : std::exp(x) / (1.0f + std::exp(x));
      },
      [](float, float y) { return y * (1.0f - y); }, "Sigmoid");
}

Variable Tanh(const Variable& a) {
  return UnaryElementwise(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; }, "Tanh");
}

Variable Relu(const Variable& a) {
  return UnaryElementwise(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; }, "Relu");
}

Variable Exp(const Variable& a) {
  return UnaryElementwise(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; }, "Exp");
}

Variable Log(const Variable& a) {
  return UnaryElementwise(
      a, [](float x) { return std::log(x); },
      [](float x, float) { return 1.0f / x; }, "Log");
}

Variable Sum(const Variable& a) {
  Tensor out = Tensor::Scalar(static_cast<float>(a.value().Sum()));
  return MakeOpVariable(
      std::move(out), {a},
      [a](VarNode& node) {
        const float g = node.grad.item();
        a.node()->AccumulateGrad(Tensor::Full(a.shape(), g));
      },
      "Sum");
}

Variable Mean(const Variable& a) {
  const float inv = 1.0f / static_cast<float>(a.numel());
  Tensor out = Tensor::Scalar(static_cast<float>(a.value().Mean()));
  return MakeOpVariable(
      std::move(out), {a},
      [a, inv](VarNode& node) {
        const float g = node.grad.item() * inv;
        a.node()->AccumulateGrad(Tensor::Full(a.shape(), g));
      },
      "Mean");
}

Variable Reshape(const Variable& a, Shape shape) {
  Tensor out = a.value().Clone().Reshaped(std::move(shape));
  return MakeOpVariable(
      std::move(out), {a},
      [a](VarNode& node) {
        a.node()->AccumulateGrad(node.grad.Reshaped(a.shape()));
      },
      "Reshape");
}

Variable Transpose(const Variable& a) {
  UM_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor out = Tensor::Empty({n, m});
  TransposeCopy(m, n, a.value().data(), out.data());
  return MakeOpVariable(
      std::move(out), {a},
      [a, m, n](VarNode& node) {
        Tensor g = Tensor::Empty(a.shape());
        TransposeCopy(n, m, node.grad.data(), g.data());
        a.node()->AccumulateGrad(std::move(g));
      },
      "Transpose");
}

Variable ConcatCols(const Variable& a, const Variable& b) {
  UM_CHECK_SHAPE(a.rank() == 2 && b.rank() == 2 && a.dim(0) == b.dim(0), a, b)
      << "ConcatCols";
  const int64_t m = a.dim(0), n1 = a.dim(1), n2 = b.dim(1);
  Tensor out = Tensor::Empty({m, n1 + n2});
  for (int64_t i = 0; i < m; ++i) {
    const float* pa = a.value().data() + i * n1;
    const float* pb = b.value().data() + i * n2;
    float* po = out.data() + i * (n1 + n2);
    std::copy(pa, pa + n1, po);
    std::copy(pb, pb + n2, po + n1);
  }
  return MakeOpVariable(
      std::move(out), {a, b},
      [a, b, m, n1, n2](VarNode& node) {
        Tensor ga = Tensor::Empty(a.shape());
        Tensor gb = Tensor::Empty(b.shape());
        for (int64_t i = 0; i < m; ++i) {
          const float* g = node.grad.data() + i * (n1 + n2);
          std::copy(g, g + n1, ga.data() + i * n1);
          std::copy(g + n1, g + n1 + n2, gb.data() + i * n2);
        }
        a.node()->AccumulateGrad(std::move(ga));
        b.node()->AccumulateGrad(std::move(gb));
      },
      "ConcatCols");
}

Variable ConcatRows(const Variable& a, const Variable& b) {
  UM_CHECK_SHAPE(a.rank() == 2 && b.rank() == 2 && a.dim(1) == b.dim(1), a, b)
      << "ConcatRows";
  const int64_t m1 = a.dim(0), m2 = b.dim(0), n = a.dim(1);
  Tensor out = Tensor::Empty({m1 + m2, n});
  std::copy(a.value().data(), a.value().data() + m1 * n, out.data());
  std::copy(b.value().data(), b.value().data() + m2 * n,
            out.data() + m1 * n);
  return MakeOpVariable(
      std::move(out), {a, b},
      [a, b, m1, m2, n](VarNode& node) {
        Tensor ga = Tensor::Empty(a.shape());
        Tensor gb = Tensor::Empty(b.shape());
        std::copy(node.grad.data(), node.grad.data() + m1 * n, ga.data());
        std::copy(node.grad.data() + m1 * n,
                  node.grad.data() + (m1 + m2) * n, gb.data());
        a.node()->AccumulateGrad(std::move(ga));
        b.node()->AccumulateGrad(std::move(gb));
      },
      "ConcatRows");
}

Variable MatMul(const Variable& a, const Variable& b, bool trans_a,
                bool trans_b) {
  Tensor out = unimatch::MatMul(a.value(), b.value(), trans_a, trans_b);
  return MakeOpVariable(
      std::move(out), {a, b},
      [a, b, trans_a, trans_b](VarNode& node) {
        const Tensor& g = node.grad;
        // d(A op B)/dA and /dB for the four transpose combinations.
        Tensor ga, gb;
        if (!trans_a && !trans_b) {
          ga = unimatch::MatMul(g, b.value(), false, true);
          gb = unimatch::MatMul(a.value(), g, true, false);
        } else if (!trans_a && trans_b) {
          ga = unimatch::MatMul(g, b.value(), false, false);
          gb = unimatch::MatMul(g, a.value(), true, false);
        } else if (trans_a && !trans_b) {
          ga = unimatch::MatMul(b.value(), g, false, true);
          gb = unimatch::MatMul(a.value(), g, false, false);
        } else {
          ga = unimatch::MatMul(b.value(), g, true, true);
          gb = unimatch::MatMul(g, a.value(), true, true);
        }
        a.node()->AccumulateGrad(std::move(ga));
        b.node()->AccumulateGrad(std::move(gb));
      },
      "MatMul");
}

Variable AddRowVector(const Variable& x, const Variable& v) {
  UM_CHECK_SHAPE(x.rank() == 2 && v.numel() == x.dim(1), x, v)
      << "AddRowVector";
  const int64_t m = x.dim(0), n = x.dim(1);
  Tensor out = x.value().Clone();
  RegionParallelFor(
      0, m,
      [&](int64_t i) {
        float* row = out.data() + i * n;
        const float* pv = v.value().data();
        for (int64_t j = 0; j < n; ++j) row[j] += pv[j];
      },
      /*min_shard=*/32);
  return MakeOpVariable(
      std::move(out), {x, v},
      [x, v, m, n](VarNode& node) {
        x.node()->AccumulateGrad(node.grad);
        Tensor flat = node.grad.Reshaped({m, n});
        Tensor col_sums = Tensor::Empty({n});
        // ReduceSumCols folds rows in order; it stays serial so the float
        // accumulation order is independent of the active region.
        ReduceSumCols(flat, &col_sums);
        v.node()->AccumulateGrad(col_sums.Reshaped(v.shape()));
      },
      "AddRowVector");
}

Variable TakeDiagonal(const Variable& a) {
  UM_CHECK_EQ(a.rank(), 2);
  UM_CHECK_EQ(a.dim(0), a.dim(1));
  const int64_t n = a.dim(0);
  Tensor out = Tensor::Empty({n});
  for (int64_t i = 0; i < n; ++i) out.at(i) = a.value().at(i, i);
  return MakeOpVariable(
      std::move(out), {a},
      [a, n](VarNode& node) {
        Tensor g(a.shape());  // zero-filled: only the diagonal is written
        for (int64_t i = 0; i < n; ++i) g.at(i, i) = node.grad.at(i);
        a.node()->AccumulateGrad(std::move(g));
      },
      "TakeDiagonal");
}

Variable TakeColumn(const Variable& a, int64_t j) {
  UM_CHECK_EQ(a.rank(), 2);
  UM_CHECK_LT(j, a.dim(1));
  const int64_t m = a.dim(0);
  Tensor out = Tensor::Empty({m});
  for (int64_t i = 0; i < m; ++i) out.at(i) = a.value().at(i, j);
  return MakeOpVariable(
      std::move(out), {a},
      [a, j, m](VarNode& node) {
        Tensor g(a.shape());  // zero-filled: only column j is written
        for (int64_t i = 0; i < m; ++i) g.at(i, j) = node.grad.at(i);
        a.node()->AccumulateGrad(std::move(g));
      },
      "TakeColumn");
}

Variable RowwiseDot(const Variable& a, const Variable& b) {
  UM_CONTRACT(a.rank() == 2) << "RowwiseDot input shape "
                             << contract::ShapeOf(a);
  UM_CHECK_SHAPE(a.value().same_shape(b.value()), a, b) << "RowwiseDot";
  const int64_t m = a.dim(0), d = a.dim(1);
  Tensor out = Tensor::Empty({m});
  RegionParallelFor(0, m, [&](int64_t i) {
    out.at(i) = kernels::DotF32(a.value().data() + i * d,
                                b.value().data() + i * d, d);
  });
  return MakeOpVariable(
      std::move(out), {a, b},
      [a, b, m, d](VarNode& node) {
        // Fresh Tensors are zero-filled, so the axpy accumulate is exact.
        Tensor ga(a.shape()), gb(b.shape());
        RegionParallelFor(0, m, [&](int64_t i) {
          const float g = node.grad.at(i);
          kernels::AxpyF32(d, g, b.value().data() + i * d, ga.data() + i * d);
          kernels::AxpyF32(d, g, a.value().data() + i * d, gb.data() + i * d);
        });
        a.node()->AccumulateGrad(std::move(ga));
        b.node()->AccumulateGrad(std::move(gb));
      },
      "RowwiseDot");
}

Variable L2NormalizeRows(const Variable& a, float eps) {
  UM_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.dim(0), d = a.dim(1);
  Tensor norms = Tensor::Empty({m});
  Tensor out = Tensor::Empty(a.shape());
  unimatch::L2NormalizeRows(a.value(), &out, &norms, eps);
  Tensor y = out;  // share storage: y is the normalized output
  return MakeOpVariable(
      std::move(out), {a},
      [a, y, norms, m, d](VarNode& node) {
        // dx = (g - y * <y, g>) / ||x||  row-wise.
        Tensor gin = Tensor::Empty(a.shape());
        RegionParallelFor(0, m, [&](int64_t i) {
          const float* py = y.data() + i * d;
          const float* pg = node.grad.data() + i * d;
          float* po = gin.data() + i * d;
          const float dot = kernels::DotF32(py, pg, d);
          const float inv = 1.0f / norms.at(i);
          for (int64_t j = 0; j < d; ++j) {
            po[j] = (pg[j] - py[j] * dot) * inv;
          }
        });
        a.node()->AccumulateGrad(std::move(gin));
      },
      "L2NormalizeRows");
}

Variable LogSoftmax(const Variable& a) {
  UM_CHECK_EQ(a.rank(), 2);
  const int64_t m = a.dim(0), n = a.dim(1);
  Tensor out = Tensor::Empty(a.shape());
  // Rows are independent, so region sharding is bitwise-exact.
  RegionParallelFor(0, m, [&](int64_t i) {
    LogSoftmaxRow(n, a.value().data() + i * n, out.data() + i * n);
  });
  Tensor y = out;  // share storage: the backward reads the output
  return MakeOpVariable(
      std::move(out), {a},
      [a, y, m, n](VarNode& node) {
        Tensor gin = Tensor::Empty(a.shape());
        RegionParallelFor(0, m, [&](int64_t i) {
          LogSoftmaxRowGrad(n, y.data() + i * n, node.grad.data() + i * n,
                            gin.data() + i * n);
        });
        a.node()->AccumulateGrad(std::move(gin));
      },
      "LogSoftmax");
}

Variable LayerNorm(const Variable& x, const Variable& gain,
                   const Variable& bias, float eps) {
  UM_CONTRACT(x.rank() == 2) << "LayerNorm input shape "
                             << contract::ShapeOf(x);
  const int64_t n = x.dim(0), d = x.dim(1);
  UM_CHECK_SHAPE(gain.numel() == d, x, gain) << "LayerNorm gain";
  UM_CHECK_SHAPE(bias.numel() == d, x, bias) << "LayerNorm bias";
  Tensor out = Tensor::Empty(x.shape());
  Tensor xhat = Tensor::Empty(x.shape());
  Tensor inv_std = Tensor::Empty({n});
  for (int64_t i = 0; i < n; ++i) {
    const float* px = x.value().data() + i * d;
    double mean = 0.0;
    for (int64_t j = 0; j < d; ++j) mean += px[j];
    mean /= d;
    double var = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const double c = px[j] - mean;
      var += c * c;
    }
    var /= d;
    const float istd = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    inv_std.at(i) = istd;
    float* ph = xhat.data() + i * d;
    float* po = out.data() + i * d;
    const float* pg = gain.value().data();
    const float* pb = bias.value().data();
    for (int64_t j = 0; j < d; ++j) {
      ph[j] = (px[j] - static_cast<float>(mean)) * istd;
      po[j] = ph[j] * pg[j] + pb[j];
    }
  }
  return MakeOpVariable(
      std::move(out), {x, gain, bias},
      [x, gain, bias, xhat, inv_std, n, d](VarNode& node) {
        Tensor gx = Tensor::Empty(x.shape());
        Tensor ggain(gain.shape());  // zero-filled: accumulated over rows
        Tensor gbias(bias.shape());  // zero-filled: accumulated over rows
        for (int64_t i = 0; i < n; ++i) {
          const float* g = node.grad.data() + i * d;
          const float* h = xhat.data() + i * d;
          const float* pg = gain.value().data();
          // dxhat = g * gain; dx = (dxhat - mean(dxhat) - xhat*mean(dxhat*xhat)) * inv_std
          double mean_dh = 0.0, mean_dh_h = 0.0;
          for (int64_t j = 0; j < d; ++j) {
            const double dh = static_cast<double>(g[j]) * pg[j];
            mean_dh += dh;
            mean_dh_h += dh * h[j];
          }
          mean_dh /= d;
          mean_dh_h /= d;
          float* pgx = gx.data() + i * d;
          const float istd = inv_std.at(i);
          for (int64_t j = 0; j < d; ++j) {
            const float dh = g[j] * pg[j];
            pgx[j] = (dh - static_cast<float>(mean_dh) -
                      h[j] * static_cast<float>(mean_dh_h)) *
                     istd;
            ggain.data()[j] += g[j] * h[j];
            gbias.data()[j] += g[j];
          }
        }
        x.node()->AccumulateGrad(std::move(gx));
        gain.node()->AccumulateGrad(std::move(ggain));
        bias.node()->AccumulateGrad(std::move(gbias));
      },
      "LayerNorm");
}

Variable Dropout(const Variable& a, float p, Rng* rng) {
  UM_CHECK_GE(p, 0.0f);
  UM_CHECK_LT(p, 1.0f);
  if (p == 0.0f) return a;
  const float scale = 1.0f / (1.0f - p);
  auto mask = std::make_shared<Tensor>(Tensor::Empty(a.shape()));
  for (int64_t i = 0; i < a.numel(); ++i) {
    mask->at(i) = rng->Bernoulli(p) ? 0.0f : scale;
  }
  Tensor out = Tensor::Empty(a.shape());
  for (int64_t i = 0; i < a.numel(); ++i) {
    out.at(i) = a.value().at(i) * mask->at(i);
  }
  return MakeOpVariable(
      std::move(out), {a},
      [a, mask](VarNode& node) {
        Tensor g = Tensor::Empty(a.shape());
        for (int64_t i = 0; i < a.numel(); ++i) {
          g.at(i) = node.grad.at(i) * mask->at(i);
        }
        a.node()->AccumulateGrad(std::move(g));
      },
      "Dropout");
}

Variable BCEWithLogits(const Variable& logits, const Tensor& labels) {
  UM_CHECK_SHAPE(logits.value().same_shape(labels), logits, labels)
      << "BCEWithLogits";
  const int64_t n = logits.numel();
  UM_CHECK_GT(n, 0);
  // loss_i = max(x,0) - x*y + log(1 + exp(-|x|)).
  const float* x = logits.value().data();
  const float* yl = labels.data();
  double total = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    const float xi = x[i];
    total += std::max(xi, 0.0f) - xi * yl[i] +
             std::log1p(std::exp(-std::fabs(xi)));
  }
  Tensor out = Tensor::Scalar(static_cast<float>(total / n));
  return MakeOpVariable(
      std::move(out), {logits},
      [logits, labels, n](VarNode& node) {
        // d loss / d x_i = (sigmoid(x_i) - y_i) / n.
        const float g = node.grad.item() / static_cast<float>(n);
        Tensor gin = Tensor::Empty(logits.shape());
        const float* x = logits.value().data();
        const float* yl = labels.data();
        for (int64_t i = 0; i < n; ++i) {
          const float xi = x[i];
          const float s = xi >= 0.0f ? 1.0f / (1.0f + std::exp(-xi))
                                     : std::exp(xi) / (1.0f + std::exp(xi));
          gin.data()[i] = g * (s - yl[i]);
        }
        logits.node()->AccumulateGrad(std::move(gin));
      },
      "BCEWithLogits");
}

}  // namespace unimatch::nn
