#include "src/nn/variable.h"

#include <unordered_set>
#include <utility>

namespace unimatch::nn {

void VarNode::AccumulateGrad(const Tensor& g) {
  // Constants and pruned subgraphs never need storage for gradients.
  if (!requires_grad) return;
  UM_CHECK(g.same_shape(value));
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

void RunBackward(VarNode* root_node, Tensor&& seed) {
  std::vector<VarNode*> order;
  TopoSort(root_node, &order);

  root_node->AccumulateGrad(std::move(seed));

  // Post-order means inputs come before consumers; walk in reverse so each
  // node's grad is complete before its backward fires.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    VarNode* node = *it;
    if (node->backward && node->grad_defined) {
      node->backward(*node);
    }
  }
}

}  // namespace

void Backward(const Variable& root) {
  UM_CHECK(root.defined());
  UM_CHECK_EQ(root.numel(), 1);
  VarNode* root_node = root.node().get();
  if (!root_node->requires_grad) return;
  RunBackward(root_node, Tensor::Ones(root.value().shape()));
}

void BackwardFrom(const Variable& root, const Tensor& seed) {
  UM_CHECK(root.defined());
  UM_CHECK(seed.same_shape(root.value()));
  VarNode* root_node = root.node().get();
  if (!root_node->requires_grad) return;
  // The handle copy shares the caller's storage, so AccumulateGrad takes the
  // copying path and the caller's seed tensor stays untouched.
  RunBackward(root_node, Tensor(seed));
}

}  // namespace unimatch::nn
