#include "src/nn/seq_ops.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "src/tensor/tensor_ops.h"

namespace unimatch::nn {

Variable EmbeddingLookup(const Variable& table,
                         const std::vector<int64_t>& ids) {
  UM_CHECK_EQ(table.rank(), 2);
  const int64_t v = table.dim(0), d = table.dim(1);
  const int64_t n = static_cast<int64_t>(ids.size());
  Tensor out({n, d});  // zero-filled: pad rows stay zero
  for (int64_t i = 0; i < n; ++i) {
    const int64_t id = ids[i];
    if (id == kPadId) continue;
    UM_CHECK_GE(id, 0);
    UM_CHECK_LT(id, v);
    const float* src = table.value().data() + id * d;
    std::copy(src, src + d, out.data() + i * d);
  }
  return MakeOpVariable(
      std::move(out), {table},
      [table, ids, n](VarNode& node) {
        AccumulateLookupGrad(table, ids.data(), node.grad.data(), n);
      },
      "EmbeddingLookup");
}

void AccumulateLookupGrad(const Variable& table, const int64_t* ids,
                          const float* grad, int64_t n) {
  VarNode* node = table.node().get();
  if (!node->requires_grad) return;
  UM_CHECK_EQ(table.rank(), 2);
  const int64_t v = table.dim(0), d = table.dim(1);
  const int64_t words = (v + 63) / 64;
  std::vector<uint64_t> touched(words, 0);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t id = ids[i];
    if (id == kPadId) continue;
    UM_CHECK(id >= 0 && id < v) << "lookup id " << id << " of " << v;
    touched[id >> 6] |= uint64_t{1} << (id & 63);
  }
  // rank[w] is the slot of word w's lowest set bit; rows comes out ascending.
  std::vector<int64_t> rank(words);
  int64_t r = 0;
  for (int64_t w = 0; w < words; ++w) {
    rank[w] = r;
    r += std::popcount(touched[w]);
  }
  std::vector<int64_t> rows;
  rows.reserve(r);
  for (int64_t w = 0; w < words; ++w) {
    for (uint64_t bits = touched[w]; bits != 0; bits &= bits - 1) {
      rows.push_back(w * 64 + std::countr_zero(bits));
    }
  }
  Tensor values({r, d});  // every row starts at +0.0f
  for (int64_t i = 0; i < n; ++i) {
    const int64_t id = ids[i];
    if (id == kPadId) continue;
    const uint64_t word = touched[id >> 6];
    const uint64_t below = word & ((uint64_t{1} << (id & 63)) - 1);
    const int64_t slot = rank[id >> 6] + std::popcount(below);
    const float* src = grad + i * d;
    float* dst = values.data() + slot * d;
    for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
  }
  node->AccumulateRowGrad(std::move(rows), std::move(values));
}

Variable EmbeddingLookupSeq(const Variable& table,
                            const std::vector<int64_t>& ids, int64_t batch,
                            int64_t len) {
  UM_CHECK_EQ(static_cast<int64_t>(ids.size()), batch * len);
  Variable flat = EmbeddingLookup(table, ids);
  Tensor out = flat.value().Reshaped({batch, len, table.dim(1)});
  return MakeOpVariable(
      std::move(out), {flat},
      [flat](VarNode& node) {
        flat.node()->AccumulateGrad(node.grad.Reshaped(flat.shape()));
      },
      "SeqReshape");
}

Variable ShiftSeq(const Variable& x, int64_t offset) {
  UM_CHECK_EQ(x.rank(), 3);
  const int64_t b = x.dim(0), l = x.dim(1), d = x.dim(2);
  Tensor out(x.shape());
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t t = 0; t < l; ++t) {
      const int64_t src_t = t - offset;
      if (src_t < 0 || src_t >= l) continue;
      const float* src = x.value().data() + (i * l + src_t) * d;
      float* dst = out.data() + (i * l + t) * d;
      std::copy(src, src + d, dst);
    }
  }
  return MakeOpVariable(
      std::move(out), {x},
      [x, offset, b, l, d](VarNode& node) {
        Tensor g(x.shape());
        for (int64_t i = 0; i < b; ++i) {
          for (int64_t t = 0; t < l; ++t) {
            const int64_t src_t = t - offset;
            if (src_t < 0 || src_t >= l) continue;
            const float* go = node.grad.data() + (i * l + t) * d;
            float* gi = g.data() + (i * l + src_t) * d;
            for (int64_t j = 0; j < d; ++j) gi[j] += go[j];
          }
        }
        x.node()->AccumulateGrad(std::move(g));
      },
      "ShiftSeq");
}

Variable SelectTimeStep(const Variable& x, int64_t t) {
  UM_CHECK_EQ(x.rank(), 3);
  const int64_t b = x.dim(0), l = x.dim(1), d = x.dim(2);
  UM_CHECK_GE(t, 0);
  UM_CHECK_LT(t, l);
  Tensor out = Tensor::Empty({b, d});
  for (int64_t i = 0; i < b; ++i) {
    const float* src = x.value().data() + (i * l + t) * d;
    std::copy(src, src + d, out.data() + i * d);
  }
  return MakeOpVariable(
      std::move(out), {x},
      [x, t, b, l, d](VarNode& node) {
        Tensor g(x.shape());
        for (int64_t i = 0; i < b; ++i) {
          const float* src = node.grad.data() + i * d;
          float* dst = g.data() + (i * l + t) * d;
          std::copy(src, src + d, dst);
        }
        x.node()->AccumulateGrad(std::move(g));
      },
      "SelectTimeStep");
}

Variable StackTimeSteps(const std::vector<Variable>& steps) {
  UM_CHECK(!steps.empty());
  const int64_t l = static_cast<int64_t>(steps.size());
  const int64_t b = steps[0].dim(0), d = steps[0].dim(1);
  Tensor out = Tensor::Empty({b, l, d});
  for (int64_t t = 0; t < l; ++t) {
    UM_CHECK_EQ(steps[t].dim(0), b);
    UM_CHECK_EQ(steps[t].dim(1), d);
    for (int64_t i = 0; i < b; ++i) {
      const float* src = steps[t].value().data() + i * d;
      std::copy(src, src + d, out.data() + (i * l + t) * d);
    }
  }
  return MakeOpVariable(
      std::move(out), steps,
      [steps, b, l, d](VarNode& node) {
        for (int64_t t = 0; t < l; ++t) {
          Tensor g = Tensor::Empty({b, d});
          for (int64_t i = 0; i < b; ++i) {
            const float* src = node.grad.data() + (i * l + t) * d;
            std::copy(src, src + d, g.data() + i * d);
          }
          steps[t].node()->AccumulateGrad(std::move(g));
        }
      },
      "StackTimeSteps");
}

Variable Bmm(const Variable& a, const Variable& b, bool trans_a,
             bool trans_b) {
  Tensor out = BatchMatMul(a.value(), b.value(), trans_a, trans_b);
  return MakeOpVariable(
      std::move(out), {a, b},
      [a, b, trans_a, trans_b](VarNode& node) {
        const Tensor& g = node.grad;
        Tensor ga, gb;
        if (!trans_a && !trans_b) {
          ga = BatchMatMul(g, b.value(), false, true);
          gb = BatchMatMul(a.value(), g, true, false);
        } else if (!trans_a && trans_b) {
          ga = BatchMatMul(g, b.value(), false, false);
          gb = BatchMatMul(g, a.value(), true, false);
        } else if (trans_a && !trans_b) {
          ga = BatchMatMul(b.value(), g, false, true);
          gb = BatchMatMul(a.value(), g, false, false);
        } else {
          ga = BatchMatMul(b.value(), g, true, true);
          gb = BatchMatMul(g, a.value(), true, true);
        }
        a.node()->AccumulateGrad(std::move(ga));
        b.node()->AccumulateGrad(std::move(gb));
      },
      "Bmm");
}

namespace {
void CheckLengths(const Variable& x, const std::vector<int64_t>& lengths) {
  UM_CHECK_EQ(x.dim(0), static_cast<int64_t>(lengths.size()));
  for (int64_t len : lengths) {
    UM_CHECK_GE(len, 0);
    UM_CHECK_LE(len, x.dim(1));
  }
}
}  // namespace

Variable MaskedMeanPool(const Variable& x,
                        const std::vector<int64_t>& lengths) {
  UM_CHECK_EQ(x.rank(), 3);
  CheckLengths(x, lengths);
  const int64_t b = x.dim(0), l = x.dim(1), d = x.dim(2);
  Tensor out({b, d});  // zero-filled: rows with len == 0 stay zero
  for (int64_t i = 0; i < b; ++i) {
    const int64_t len = lengths[i];
    if (len == 0) continue;
    float* dst = out.data() + i * d;
    for (int64_t t = 0; t < len; ++t) {
      const float* src = x.value().data() + (i * l + t) * d;
      for (int64_t j = 0; j < d; ++j) dst[j] += src[j];
    }
    const float inv = 1.0f / static_cast<float>(len);
    for (int64_t j = 0; j < d; ++j) dst[j] *= inv;
  }
  return MakeOpVariable(
      std::move(out), {x},
      [x, lengths, l, d](VarNode& node) {
        Tensor g(x.shape());
        for (size_t i = 0; i < lengths.size(); ++i) {
          const int64_t len = lengths[i];
          if (len == 0) continue;
          const float inv = 1.0f / static_cast<float>(len);
          const float* go = node.grad.data() + static_cast<int64_t>(i) * d;
          for (int64_t t = 0; t < len; ++t) {
            float* gi = g.data() + (static_cast<int64_t>(i) * l + t) * d;
            for (int64_t j = 0; j < d; ++j) gi[j] = go[j] * inv;
          }
        }
        x.node()->AccumulateGrad(std::move(g));
      },
      "MaskedMeanPool");
}

Variable MaskedMaxPool(const Variable& x, const std::vector<int64_t>& lengths) {
  UM_CHECK_EQ(x.rank(), 3);
  CheckLengths(x, lengths);
  const int64_t b = x.dim(0), d = x.dim(2);
  // argmax[b * d + j] = winning time step for output (b, j).
  std::vector<int64_t> argmax(static_cast<size_t>(b * d), -1);
  Tensor out({b, d});
  for (int64_t i = 0; i < b; ++i) {
    const int64_t len = lengths[i];
    if (len == 0) continue;
    float* dst = out.data() + i * d;
    for (int64_t j = 0; j < d; ++j) {
      float best = -std::numeric_limits<float>::infinity();
      int64_t best_t = -1;
      for (int64_t t = 0; t < len; ++t) {
        const float v = x.value().at(i, t, j);
        if (v > best) {
          best = v;
          best_t = t;
        }
      }
      dst[j] = best;
      argmax[i * d + j] = best_t;
    }
  }
  return MakeOpVariable(
      std::move(out), {x},
      [x, argmax = std::move(argmax), b, d](VarNode& node) {
        Tensor g(x.shape());
        for (int64_t i = 0; i < b; ++i) {
          for (int64_t j = 0; j < d; ++j) {
            const int64_t t = argmax[i * d + j];
            if (t < 0) continue;
            g.at(i, t, j) += node.grad.at(i, j);
          }
        }
        x.node()->AccumulateGrad(std::move(g));
      },
      "MaskedMaxPool");
}

Variable LastPool(const Variable& x, const std::vector<int64_t>& lengths) {
  UM_CHECK_EQ(x.rank(), 3);
  CheckLengths(x, lengths);
  const int64_t b = x.dim(0), l = x.dim(1), d = x.dim(2);
  Tensor out({b, d});  // zero-filled: rows with len == 0 stay zero
  for (int64_t i = 0; i < b; ++i) {
    const int64_t len = lengths[i];
    if (len == 0) continue;
    const float* src = x.value().data() + (i * l + (len - 1)) * d;
    std::copy(src, src + d, out.data() + i * d);
  }
  return MakeOpVariable(
      std::move(out), {x},
      [x, lengths, l, d](VarNode& node) {
        Tensor g(x.shape());
        for (size_t i = 0; i < lengths.size(); ++i) {
          const int64_t len = lengths[i];
          if (len == 0) continue;
          const float* go = node.grad.data() + static_cast<int64_t>(i) * d;
          float* gi =
              g.data() + (static_cast<int64_t>(i) * l + (len - 1)) * d;
          std::copy(go, go + d, gi);
        }
        x.node()->AccumulateGrad(std::move(g));
      },
      "LastPool");
}

Variable MaskedSoftmaxSeq(const Variable& scores,
                          const std::vector<int64_t>& lengths) {
  UM_CHECK_EQ(scores.rank(), 2);
  CheckLengths(scores, lengths);
  const int64_t b = scores.dim(0), l = scores.dim(1);
  Tensor out({b, l});
  for (int64_t i = 0; i < b; ++i) {
    const int64_t len = lengths[i];
    if (len == 0) continue;
    SoftmaxRow(len, scores.value().data() + i * l, out.data() + i * l);
  }
  Tensor y = out;
  return MakeOpVariable(
      std::move(out), {scores},
      [scores, y, lengths, l](VarNode& node) {
        Tensor g(scores.shape());
        for (size_t i = 0; i < lengths.size(); ++i) {
          const int64_t len = lengths[i];
          if (len == 0) continue;
          const int64_t off = static_cast<int64_t>(i) * l;
          SoftmaxRowGrad(len, y.data() + off, node.grad.data() + off,
                         g.data() + off);
        }
        scores.node()->AccumulateGrad(std::move(g));
      },
      "MaskedSoftmaxSeq");
}

Variable WeightedPool(const Variable& x, const Variable& w) {
  UM_CHECK_EQ(x.rank(), 3);
  UM_CHECK_EQ(w.rank(), 2);
  UM_CHECK_EQ(x.dim(0), w.dim(0));
  UM_CHECK_EQ(x.dim(1), w.dim(1));
  const int64_t b = x.dim(0), l = x.dim(1), d = x.dim(2);
  Tensor out({b, d});
  for (int64_t i = 0; i < b; ++i) {
    float* dst = out.data() + i * d;
    for (int64_t t = 0; t < l; ++t) {
      const float wt = w.value().at(i, t);
      if (wt == 0.0f) continue;
      const float* src = x.value().data() + (i * l + t) * d;
      for (int64_t j = 0; j < d; ++j) dst[j] += wt * src[j];
    }
  }
  return MakeOpVariable(
      std::move(out), {x, w},
      [x, w, b, l, d](VarNode& node) {
        Tensor gx = Tensor::Empty(x.shape());
        Tensor gw = Tensor::Empty(w.shape());
        for (int64_t i = 0; i < b; ++i) {
          const float* go = node.grad.data() + i * d;
          for (int64_t t = 0; t < l; ++t) {
            const float wt = w.value().at(i, t);
            const float* src = x.value().data() + (i * l + t) * d;
            float* gxp = gx.data() + (i * l + t) * d;
            float acc = 0.0f;
            for (int64_t j = 0; j < d; ++j) {
              gxp[j] = go[j] * wt;
              acc += go[j] * src[j];
            }
            gw.at(i, t) = acc;
          }
        }
        x.node()->AccumulateGrad(std::move(gx));
        w.node()->AccumulateGrad(std::move(gw));
      },
      "WeightedPool");
}

Variable MaskedSoftmaxLastDim(const Variable& scores,
                              const std::vector<int64_t>& lengths) {
  UM_CHECK_EQ(scores.rank(), 3);
  const int64_t b = scores.dim(0), lq = scores.dim(1), lk = scores.dim(2);
  UM_CHECK_EQ(b, static_cast<int64_t>(lengths.size()));
  Tensor out(scores.shape());
  for (int64_t i = 0; i < b; ++i) {
    const int64_t len = std::min<int64_t>(std::max<int64_t>(lengths[i], 0), lk);
    for (int64_t q = 0; q < lq; ++q) {
      const int64_t off = (i * lq + q) * lk;
      float* py = out.data() + off;
      if (len == 0) {
        // Degenerate row: uniform over all keys (downstream pooling masks
        // these rows out anyway).
        const float u = 1.0f / static_cast<float>(lk);
        for (int64_t t = 0; t < lk; ++t) py[t] = u;
        continue;
      }
      SoftmaxRow(len, scores.value().data() + off, py);
    }
  }
  Tensor y = out;
  return MakeOpVariable(
      std::move(out), {scores},
      [scores, y, lengths, lq, lk](VarNode& node) {
        Tensor g(scores.shape());
        const int64_t b = scores.dim(0);
        for (int64_t i = 0; i < b; ++i) {
          const int64_t len =
              std::min<int64_t>(std::max<int64_t>(lengths[i], 0), lk);
          if (len == 0) continue;  // uniform rows carry no gradient
          for (int64_t q = 0; q < lq; ++q) {
            const int64_t off = (i * lq + q) * lk;
            SoftmaxRowGrad(len, y.data() + off, node.grad.data() + off,
                           g.data() + off);
          }
        }
        scores.node()->AccumulateGrad(std::move(g));
      },
      "MaskedSoftmaxLastDim");
}

Variable ApplySeqMask(const Variable& x, const std::vector<int64_t>& lengths) {
  UM_CHECK_EQ(x.rank(), 3);
  CheckLengths(x, lengths);
  const int64_t b = x.dim(0), l = x.dim(1), d = x.dim(2);
  Tensor out(x.shape());
  for (int64_t i = 0; i < b; ++i) {
    const int64_t len = lengths[i];
    const float* src = x.value().data() + i * l * d;
    float* dst = out.data() + i * l * d;
    std::copy(src, src + len * d, dst);
  }
  return MakeOpVariable(
      std::move(out), {x},
      [x, lengths, l, d](VarNode& node) {
        Tensor g(x.shape());
        for (size_t i = 0; i < lengths.size(); ++i) {
          const int64_t len = lengths[i];
          const float* src =
              node.grad.data() + static_cast<int64_t>(i) * l * d;
          float* dst = g.data() + static_cast<int64_t>(i) * l * d;
          std::copy(src, src + len * d, dst);
        }
        x.node()->AccumulateGrad(std::move(g));
      },
      "ApplySeqMask");
}

}  // namespace unimatch::nn
