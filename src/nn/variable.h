// Reverse-mode automatic differentiation.
//
// A Variable is a handle to a node in a dynamically-built computation graph.
// Operations in src/nn/ops.h and src/nn/seq_ops.h create new Variables whose
// nodes remember their inputs and a backward closure. Calling Backward() on
// a scalar loss topologically sorts the reachable subgraph and accumulates
// gradients into every node with requires_grad set (model parameters are
// leaf Variables created with requires_grad = true).
//
// This replaces the TensorFlow dependency of the original paper; every op's
// gradient is validated against central finite differences in
// tests/nn/gradcheck_test.cc.

#ifndef UNIMATCH_NN_VARIABLE_H_
#define UNIMATCH_NN_VARIABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/tensor/tensor.h"

namespace unimatch::nn {

struct VarNode {
  Tensor value;
  // Allocated on first accumulation. Dense: the same shape as value.
  // Row-sparse (grad_sparse, rank-2 values only): a [r, d] block whose row k
  // is row grad_rows[k] of the gradient; every other row is zero.
  Tensor grad;
  std::vector<int64_t> grad_rows;  // strictly ascending row ids
  bool requires_grad = false;
  bool grad_defined = false;
  bool grad_sparse = false;
  std::vector<std::shared_ptr<VarNode>> inputs;
  // Reads this node's grad and accumulates into the inputs' grads.
  std::function<void(VarNode&)> backward;
  const char* op = "leaf";

  /// Adds `g` into this node's gradient, allocating it on first use (the
  /// buffer is retained across ZeroGrad, so steady-state training steps
  /// reuse it instead of reallocating).
  void AccumulateGrad(const Tensor& g);
  /// Move form: when `g` is freshly built by a backward closure (sole owner
  /// of its storage) and this is the first accumulation, the tensor is
  /// adopted outright — no copy at all. Falls back to the copying overload
  /// when `g`'s storage is aliased (e.g. a Reshaped view of another grad).
  /// A dense gradient arriving on a row-sparse one densifies it first.
  void AccumulateGrad(Tensor&& g);
  /// Adds a row-sparse gradient: row k of `values` ([rows.size(), d]) is row
  /// rows[k] (strictly ascending) and every other row is zero. The first one
  /// is adopted; row sets then merge row by row as a + b, which is what the
  /// dense add computes. On a dense gradient it is added densely.
  void AccumulateRowGrad(std::vector<int64_t> rows, Tensor values);
  /// The gradient in dense form: the stored tensor when dense, otherwise a
  /// fresh zero-filled tensor with the stored rows copied in.
  Tensor DenseGrad() const;
  /// Replaces a row-sparse gradient by its dense form; no-op when dense.
  void DensifyGrad();
};

/// A differentiable tensor handle with shared-graph semantics: copying a
/// Variable aliases the same node.
class Variable {
 public:
  /// Null variable (no node). defined() is false.
  Variable() = default;

  /// Leaf variable wrapping `value`.
  explicit Variable(Tensor value, bool requires_grad = false);

  /// Internal: wraps an existing node.
  explicit Variable(std::shared_ptr<VarNode> node) : node_(std::move(node)) {}

  bool defined() const { return node_ != nullptr; }

  const Tensor& value() const { return node_->value; }
  Tensor& mutable_value() { return node_->value; }

  /// The accumulated gradient as stored: same shape as value() when dense,
  /// the [r, d] block of rows grad_rows() when row-sparse. Must only be
  /// called after Backward() reached this node (grad_defined() is true).
  const Tensor& grad() const {
    UM_CHECK(node_->grad_defined);
    return node_->grad;
  }
  bool grad_defined() const { return node_ && node_->grad_defined; }
  /// True when grad() holds only the rows in grad_rows(). Embedding tables
  /// get row-sparse gradients from EmbeddingLookup's backward.
  bool grad_row_sparse() const {
    UM_CHECK(node_->grad_defined);
    return node_->grad_sparse;
  }
  /// Ascending row ids of a row-sparse gradient; empty when dense.
  const std::vector<int64_t>& grad_rows() const {
    UM_CHECK(node_->grad_defined);
    return node_->grad_rows;
  }
  /// grad() in dense form (see VarNode::DenseGrad).
  Tensor DenseGrad() const {
    UM_CHECK(node_->grad_defined);
    return node_->DenseGrad();
  }

  bool requires_grad() const { return node_ && node_->requires_grad; }

  const Shape& shape() const { return node_->value.shape(); }
  int rank() const { return node_->value.rank(); }
  int64_t dim(int i) const { return node_->value.dim(i); }
  int64_t numel() const { return node_->value.numel(); }

  /// Clears the gradient and detaches graph edges so the node can be reused
  /// as a leaf in the next step (used for parameters between batches).
  void ZeroGrad();

  std::shared_ptr<VarNode> node() const { return node_; }

 private:
  std::shared_ptr<VarNode> node_;
};

/// Creates a non-leaf Variable for an op result.
Variable MakeOpVariable(Tensor value, std::vector<Variable> inputs,
                        std::function<void(VarNode&)> backward,
                        const char* op_name);

/// Runs reverse-mode differentiation from `root` (must be scalar). Seeds
/// d(root)/d(root) = 1 and populates .grad() on every reachable Variable with
/// requires_grad. Gradients accumulate across multiple Backward calls until
/// ZeroGrad.
void Backward(const Variable& root);

}  // namespace unimatch::nn

#endif  // UNIMATCH_NN_VARIABLE_H_
