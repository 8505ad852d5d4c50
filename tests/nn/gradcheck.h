// Finite-difference gradient checking shared by the nn tests.

#ifndef UNIMATCH_TESTS_NN_GRADCHECK_H_
#define UNIMATCH_TESTS_NN_GRADCHECK_H_

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/nn/ops.h"
#include "src/nn/variable.h"

namespace unimatch::nn {

/// Verifies analytic gradients of `loss_fn` (which must rebuild the graph on
/// each call and return a scalar) against central finite differences for
/// every element of every parameter in `params`.
inline void CheckGradients(std::vector<Variable> params,
                           const std::function<Variable()>& loss_fn,
                           float eps = 5e-3f, float rel_tol = 4e-2f,
                           float abs_tol = 2e-3f) {
  // Analytic pass.
  for (auto& p : params) p.ZeroGrad();
  Variable loss = loss_fn();
  Backward(loss);
  std::vector<Tensor> analytic;
  analytic.reserve(params.size());
  for (auto& p : params) {
    ASSERT_TRUE(p.grad_defined()) << "no gradient reached a parameter";
    // Embedding tables get row-sparse gradients; compare the dense form.
    analytic.push_back(p.DenseGrad().Clone());
  }

  for (size_t pi = 0; pi < params.size(); ++pi) {
    Variable& p = params[pi];
    float* w = p.mutable_value().data();
    for (int64_t j = 0; j < p.numel(); ++j) {
      const float orig = w[j];
      w[j] = orig + eps;
      const float lp = loss_fn().value().item();
      w[j] = orig - eps;
      const float lm = loss_fn().value().item();
      w[j] = orig;
      const float numeric = (lp - lm) / (2.0f * eps);
      const float a = analytic[pi].at(j);
      const float tol = abs_tol + rel_tol * std::fabs(numeric);
      EXPECT_NEAR(a, numeric, tol)
          << "param " << pi << " element " << j;
    }
  }
  for (auto& p : params) p.ZeroGrad();
}

}  // namespace unimatch::nn

#endif  // UNIMATCH_TESTS_NN_GRADCHECK_H_
