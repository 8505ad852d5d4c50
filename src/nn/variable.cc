#include "src/nn/variable.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>
#include <utility>

namespace unimatch::nn {

namespace {

// Dense [V, d] form of a row-sparse gradient. Omitted rows are +0.0f, the
// value the dense scatter leaves in a row no id touched.
Tensor RowsToDense(const std::vector<int64_t>& rows, const Tensor& block,
                   const Shape& shape) {
  Tensor dense(shape);
  const int64_t d = shape[1];
  for (size_t k = 0; k < rows.size(); ++k) {
    const float* src = block.data() + static_cast<int64_t>(k) * d;
    std::copy(src, src + d, dense.data() + rows[k] * d);
  }
  return dense;
}

}  // namespace

void VarNode::AccumulateGrad(const Tensor& g) {
  // Constants and pruned subgraphs never need storage for gradients.
  if (!requires_grad) return;
  UM_CHECK(g.same_shape(value));
  DensifyGrad();
  if (!grad_defined) {
    // A buffer retained from a previous step (ZeroGrad keeps it) is reused
    // in place as long as nobody else still aliases it.
    if (grad.same_shape(g) && grad.storage_unique()) {
      grad.CopyFrom(g);
    } else {
      grad = g.Clone();
    }
    grad_defined = true;
  } else {
    grad.AddInPlace(g);
  }
}

void VarNode::AccumulateGrad(Tensor&& g) {
  if (!requires_grad) return;
  UM_CHECK(g.same_shape(value));
  if (!grad_defined && g.storage_unique()) {
    grad = std::move(g);
    grad_defined = true;
  } else {
    AccumulateGrad(static_cast<const Tensor&>(g));
  }
}

void VarNode::AccumulateRowGrad(std::vector<int64_t> rows, Tensor values) {
  if (!requires_grad) return;
  UM_CHECK_EQ(value.rank(), 2);
  UM_CHECK_EQ(values.rank(), 2);
  UM_CHECK_EQ(values.dim(0), static_cast<int64_t>(rows.size()));
  UM_CHECK_EQ(values.dim(1), value.dim(1));
  if (!grad_defined) {
    grad = std::move(values);
    grad_rows = std::move(rows);
    grad_sparse = true;
    grad_defined = true;
    return;
  }
  if (!grad_sparse) {
    // Rare (a dense contribution came first): add exactly what the dense
    // scatter's [V, d] tensor would have added, zero rows included.
    grad.AddInPlace(RowsToDense(rows, values, value.shape()));
    return;
  }
  // Merge two ascending row sets. A row in both is a + b, which is what
  // AddInPlace's alpha = 1 FMA rounds to; a row in one only is copied, as
  // the dense add of a +0.0f row would leave it.
  const int64_t d = value.dim(1);
  const std::vector<int64_t>& a_rows = grad_rows;
  std::vector<int64_t> merged;
  merged.reserve(a_rows.size() + rows.size());
  std::set_union(a_rows.begin(), a_rows.end(), rows.begin(), rows.end(),
                 std::back_inserter(merged));
  Tensor out = Tensor::Empty({static_cast<int64_t>(merged.size()), d});
  size_t ia = 0, ib = 0;
  for (size_t k = 0; k < merged.size(); ++k) {
    float* dst = out.data() + static_cast<int64_t>(k) * d;
    const bool in_a = ia < a_rows.size() && a_rows[ia] == merged[k];
    const bool in_b = ib < rows.size() && rows[ib] == merged[k];
    const float* a = in_a ? grad.data() + static_cast<int64_t>(ia++) * d
                          : nullptr;
    const float* b = in_b ? values.data() + static_cast<int64_t>(ib++) * d
                          : nullptr;
    if (a != nullptr && b != nullptr) {
      for (int64_t j = 0; j < d; ++j) dst[j] = a[j] + b[j];
    } else {
      const float* src = a != nullptr ? a : b;
      std::copy(src, src + d, dst);
    }
  }
  grad = std::move(out);
  grad_rows = std::move(merged);
}

Tensor VarNode::DenseGrad() const {
  return grad_sparse ? RowsToDense(grad_rows, grad, value.shape()) : grad;
}

void VarNode::DensifyGrad() {
  if (!grad_defined || !grad_sparse) return;
  grad = RowsToDense(grad_rows, grad, value.shape());
  grad_rows.clear();
  grad_sparse = false;
}

Variable::Variable(Tensor value, bool requires_grad) {
  node_ = std::make_shared<VarNode>();
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

void Variable::ZeroGrad() {
  if (!node_) return;
  node_->grad_defined = false;
  // The grad buffer itself is kept: the next AccumulateGrad overwrites it
  // in place, so parameters stop reallocating their gradients every step.
  node_->grad_rows.clear();
  node_->grad_sparse = false;
  node_->inputs.clear();
  node_->backward = nullptr;
}

Variable MakeOpVariable(Tensor value, std::vector<Variable> inputs,
                        std::function<void(VarNode&)> backward,
                        const char* op_name) {
  auto node = std::make_shared<VarNode>();
  node->value = std::move(value);
  node->op = op_name;
  bool any_grad = false;
  node->inputs.reserve(inputs.size());
  for (const auto& in : inputs) {
    UM_CHECK(in.defined());
    any_grad = any_grad || in.node()->requires_grad;
    node->inputs.push_back(in.node());
  }
  node->requires_grad = any_grad;
  if (any_grad) {
    node->backward = std::move(backward);
  } else {
    node->inputs.clear();  // prune the graph below non-differentiable ops
  }
  return Variable(std::move(node));
}

namespace {

// Iterative post-order DFS (avoids stack overflow on deep RNN graphs).
void TopoSort(VarNode* root, std::vector<VarNode*>* order) {
  std::unordered_set<VarNode*> visited;
  struct Frame {
    VarNode* node;
    size_t next_input;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  visited.insert(root);
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_input < f.node->inputs.size()) {
      VarNode* child = f.node->inputs[f.next_input++].get();
      if (child->requires_grad && !visited.count(child)) {
        visited.insert(child);
        stack.push_back({child, 0});
      }
    } else {
      order->push_back(f.node);
      stack.pop_back();
    }
  }
}

}  // namespace

void Backward(const Variable& root) {
  UM_CHECK(root.defined());
  UM_CHECK_EQ(root.numel(), 1);
  VarNode* root_node = root.node().get();
  if (!root_node->requires_grad) return;
  std::vector<VarNode*> order;
  TopoSort(root_node, &order);

  root_node->AccumulateGrad(Tensor::Ones(root.value().shape()));

  // Post-order means inputs come before consumers; walk in reverse so each
  // node's grad is complete before its backward fires.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VarNode* node = *it;
    if (node->backward && node->grad_defined) {
      node->DensifyGrad();  // backward closures read a dense grad
      node->backward(*node);
    }
  }
}

}  // namespace unimatch::nn
