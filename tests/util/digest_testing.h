// Helpers for the bit-parity gates (the *_digest_test.cc files): an FNV-1a
// digest over the bit patterns of a computation's outputs, and a fixture
// that runs each case under one kernel backend, skipping AVX2 on a CPU
// without it.
//
// A gate records its digests once, from the code whose bits it pins. A
// change that must keep those bits leaves every digest unchanged; a change
// that alters them on purpose records new digests and says so.

#ifndef UNIMATCH_TESTS_UTIL_DIGEST_TESTING_H_
#define UNIMATCH_TESTS_UTIL_DIGEST_TESTING_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <ios>
#include <string>
#include <vector>

#include "src/nn/module.h"
#include "src/tensor/kernels.h"
#include "src/tensor/tensor.h"

namespace unimatch::digest_testing {

/// FNV-1a over 64-bit words.
class Digest {
 public:
  void Feed(uint64_t v) {
    for (int b = 0; b < 64; b += 8) {
      h_ ^= (v >> b) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void Feed(int64_t v) { Feed(static_cast<uint64_t>(v)); }
  void Feed(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Feed(bits);
  }
  void Feed(const Tensor& t) {
    Feed(static_cast<uint64_t>(t.numel()));
    for (int64_t i = 0; i < t.numel(); ++i) {
      uint32_t bits;
      std::memcpy(&bits, t.data() + i, sizeof(bits));
      Feed(static_cast<uint64_t>(bits));
    }
  }
  /// The length, then every element.
  template <typename T>
  void Feed(const std::vector<T>& values) {
    Feed(static_cast<uint64_t>(values.size()));
    for (const T& v : values) Feed(v);
  }
  /// Every parameter's values, in Parameters() order.
  void Feed(const nn::Module& module) {
    for (const nn::NamedParameter& p : module.Parameters()) {
      Feed(p.variable.value());
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

inline void ExpectDigest(uint64_t got, uint64_t recorded) {
  EXPECT_EQ(got, recorded) << std::hex << "digest 0x" << got
                           << ", recorded 0x" << recorded;
}

/// Runs each test under the backend it is instantiated with.
class BackendDigestTest : public ::testing::TestWithParam<kernels::Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == kernels::Backend::kAvx2 &&
        kernels::ActiveBackend() != kernels::Backend::kAvx2) {
      GTEST_SKIP() << "CPU lacks AVX2/FMA";
    }
    kernels::SetBackendForTest(GetParam());
  }
  void TearDown() override { kernels::ResetBackendForTest(); }

  /// The recorded digest for the running backend.
  uint64_t ForBackend(uint64_t portable, uint64_t avx2) const {
    return GetParam() == kernels::Backend::kAvx2 ? avx2 : portable;
  }
};

inline std::string BackendParamName(
    const ::testing::TestParamInfo<kernels::Backend>& info) {
  return kernels::BackendName(info.param);
}

}  // namespace unimatch::digest_testing

#endif  // UNIMATCH_TESTS_UTIL_DIGEST_TESTING_H_
