// First-order optimizers over a fixed parameter list.

#ifndef UNIMATCH_NN_OPTIMIZER_H_
#define UNIMATCH_NN_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/nn/module.h"

namespace unimatch::nn {

/// Base optimizer: call Step() after Backward(); parameters with no gradient
/// this step are skipped.
class Optimizer {
 public:
  explicit Optimizer(std::vector<NamedParameter> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  /// Applies one update using the gradients currently on the parameters.
  virtual void Step() = 0;

  /// Changes the base learning rate (for schedules / warm restarts).
  virtual void SetLearningRate(float lr) = 0;
  virtual float learning_rate() const = 0;

  /// Clears gradients on all parameters.
  void ZeroGrad() {
    for (auto& p : params_) p.variable.ZeroGrad();
  }

  /// Globally rescales gradients so the concatenated gradient norm is at
  /// most `max_norm`. Returns the pre-clip norm.
  double ClipGradNorm(double max_norm);

  const std::vector<NamedParameter>& params() const { return params_; }

 protected:
  std::vector<NamedParameter> params_;
};

/// Plain SGD: w -= lr * g.
class Sgd : public Optimizer {
 public:
  Sgd(std::vector<NamedParameter> params, float lr)
      : Optimizer(std::move(params)), lr_(lr) {}
  void Step() override;
  void SetLearningRate(float lr) override { lr_ = lr; }
  float learning_rate() const override { return lr_; }

 private:
  float lr_;
};

/// Adagrad (the classical choice for sparse embedding tables).
class Adagrad : public Optimizer {
 public:
  Adagrad(std::vector<NamedParameter> params, float lr, float eps = 1e-8f);
  void Step() override;
  void SetLearningRate(float lr) override { lr_ = lr; }
  float learning_rate() const override { return lr_; }

 private:
  float lr_;
  float eps_;
  std::vector<Tensor> accum_;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam : public Optimizer {
 public:
  Adam(std::vector<NamedParameter> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);
  void Step() override;
  void SetLearningRate(float lr) override { lr_ = lr; }
  float learning_rate() const override { return lr_; }

 private:
  float lr_, beta1_, beta2_, eps_;
  int64_t t_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

/// Factory from a config string: "sgd" | "adagrad" | "adam". Null for any
/// other name.
std::unique_ptr<Optimizer> MakeOptimizer(const std::string& name,
                                         std::vector<NamedParameter> params,
                                         float lr);

}  // namespace unimatch::nn

#endif  // UNIMATCH_NN_OPTIMIZER_H_
