// Graph-digest parity gate for the serial HNSW build. A change that must
// keep the graph (a faster Prune, a leaner insertion loop) has to leave
// every digest below unchanged; a change that alters the graph on purpose
// records new digests and says so.
//
// A digest hashes the entry point, every node's level and every layer's
// neighbour lists, in order. The inputs come from an integer hash and are
// normalised with std::sqrt alone, so no libm routine whose last bit may
// differ between C libraries shapes them. Every case runs under each kernel
// backend the machine has. The AVX2 dot product reassociates its sum, so
// its scores could order candidates differently from the portable path's;
// on these inputs the two graphs agree, so one digest serves both.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <ios>
#include <string>
#include <vector>

#include "src/ann/hnsw.h"
#include "src/tensor/kernels.h"

namespace unimatch::ann {
namespace {

using kernels::Backend;

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// [n, d] unit rows. Each coordinate is a 24-bit hash slice scaled into
// [-1, 1), exact in float; the norm is a double sum and one std::sqrt.
// Row i repeats row i % distinct, so distinct < n makes exact duplicates.
Tensor HashedUnitRows(int64_t n, int64_t d, uint64_t seed, int64_t distinct) {
  Tensor t({n, d});
  for (int64_t i = 0; i < n; ++i) {
    float* row = t.data() + i * d;
    double norm = 0.0;
    for (int64_t j = 0; j < d; ++j) {
      const uint64_t h = SplitMix(
          seed ^ SplitMix(static_cast<uint64_t>((i % distinct) * d + j)));
      const int64_t slice = static_cast<int64_t>(h >> 40) - (1 << 23);
      row[j] = static_cast<float>(slice) / static_cast<float>(1 << 23);
      norm += static_cast<double>(row[j]) * row[j];
    }
    const float inv = static_cast<float>(1.0 / std::sqrt(norm));
    for (int64_t j = 0; j < d; ++j) row[j] *= inv;
  }
  return t;
}

// FNV-1a over the graph's 64-bit words.
uint64_t GraphDigest(const HnswIndex& index) {
  uint64_t h = 0xCBF29CE484222325ULL;
  const auto feed = [&h](int64_t v) {
    for (int b = 0; b < 64; b += 8) {
      h ^= (static_cast<uint64_t>(v) >> b) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  feed(index.entry_point());
  feed(index.num_layers());
  for (int64_t i = 0; i < index.size(); ++i) feed(index.level(i));
  for (int l = 0; l < index.num_layers(); ++l) {
    for (int64_t i = 0; i < index.size(); ++i) {
      const std::vector<int64_t>& nbrs = index.neighbors(l, i);
      feed(static_cast<int64_t>(nbrs.size()));
      for (int64_t nb : nbrs) feed(nb);
    }
  }
  return h;
}

struct DigestCase {
  const char* name;
  int64_t n, d, distinct;
  int m, ef_construction;
  uint64_t seed;
  ScalarType storage;
  uint64_t digest;
};

// The default graph shape, and a narrow one (m = 4) whose lists overflow
// and get pruned far more often and whose levels reach higher. The repeat_
// cases cycle 600 rows through 60 distinct ones, so a node's links tie on
// score and Prune takes its full-sort path instead of the one-link insert;
// their digests were recorded with a Prune that rescored and sorted every
// overflowing list.
constexpr DigestCase kCases[] = {
    {"default_f32", 500, 16, 500, 16, 100, 101, ScalarType::kF32,
     0xF19558AA3CC8B199ULL},
    {"default_f16", 500, 16, 500, 16, 100, 101, ScalarType::kF16,
     0x05AFCC934BEA19DDULL},
    {"default_i8", 500, 16, 500, 16, 100, 101, ScalarType::kI8,
     0x7A185E390596B3CBULL},
    {"narrow_f32", 600, 8, 600, 4, 24, 202, ScalarType::kF32,
     0xE3A0811C2399294CULL},
    {"narrow_f16", 600, 8, 600, 4, 24, 202, ScalarType::kF16,
     0x237B4D7AF47F6321ULL},
    {"narrow_i8", 600, 8, 600, 4, 24, 202, ScalarType::kI8,
     0xBFFBB6E0E90D43F5ULL},
    {"repeat_default_f32", 600, 16, 60, 16, 100, 303, ScalarType::kF32,
     0x438E63F75BCD3075ULL},
    {"repeat_default_i8", 600, 16, 60, 16, 100, 303, ScalarType::kI8,
     0x48E09DEEE631A075ULL},
    {"repeat_narrow_f32", 600, 8, 60, 4, 24, 404, ScalarType::kF32,
     0xA14EB9422C73E4BFULL},
    {"repeat_narrow_i8", 600, 8, 60, 4, 24, 404, ScalarType::kI8,
     0xE06E4BCDFFCEE4C6ULL},
};

class HnswGraphDigestTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kAvx2 &&
        kernels::ActiveBackend() != Backend::kAvx2) {
      GTEST_SKIP() << "CPU lacks AVX2/FMA";
    }
    kernels::SetBackendForTest(GetParam());
  }
  void TearDown() override { kernels::ResetBackendForTest(); }
};

TEST_P(HnswGraphDigestTest, SerialBuildMatchesRecordedGraph) {
  for (const DigestCase& c : kCases) {
    SCOPED_TRACE(c.name);
    HnswConfig cfg;
    cfg.m = c.m;
    cfg.ef_construction = c.ef_construction;
    cfg.storage = c.storage;
    HnswIndex index(cfg);
    ASSERT_TRUE(
        index.Build(HashedUnitRows(c.n, c.d, c.seed, c.distinct)).ok());
    const uint64_t got = GraphDigest(index);
    EXPECT_EQ(got, c.digest) << std::hex << "digest 0x" << got
                             << ", recorded 0x" << c.digest;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, HnswGraphDigestTest,
    ::testing::Values(Backend::kPortable, Backend::kAvx2),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return std::string(kernels::BackendName(info.param));
    });

}  // namespace
}  // namespace unimatch::ann
