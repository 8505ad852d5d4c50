// Run by the build_with_contracts_off buildcheck, inside the tree that
// build_with_switches_off configures with -DUNIMATCH_CONTRACTS=OFF. A
// compiled-out contract must neither abort on a violation nor evaluate its
// condition or the operands streamed after it. Exits 0 when that holds.

#include <cmath>
#include <cstdio>

#include "src/tensor/tensor.h"
#include "src/util/contract.h"

#if !defined(UNIMATCH_CONTRACTS_DISABLED)
#error "contracts_off_probe must be built with -DUNIMATCH_CONTRACTS=OFF"
#endif

int main() {
  int evaluated = 0;
  auto violated = [&evaluated] {
    ++evaluated;
    return false;
  };

  UM_CONTRACT(violated()) << "streamed operand " << violated();

  const unimatch::Tensor a({2, 3});
  const unimatch::Tensor b({4, 5});
  UM_CHECK_SHAPE(violated() && a.shape() == b.shape(), a, b) << violated();

  const unimatch::Tensor nan({2}, {std::nanf(""), 1.0f});
  UM_CHECK_FINITE(nan) << violated();

  if (evaluated != 0) {
    std::fprintf(stderr,
                 "compiled-out contracts evaluated their operands %d times\n",
                 evaluated);
    return 1;
  }
  return 0;
}
