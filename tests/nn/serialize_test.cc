#include "src/nn/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "src/nn/layers.h"

namespace unimatch::nn {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(SerializeTest, SaveLoadRoundtrip) {
  Rng rng(1);
  Variable a(Tensor::Randn({3, 4}, 1.0f, &rng), true);
  Variable b(Tensor::Randn({7}, 1.0f, &rng), true);
  std::vector<NamedParameter> params = {{"a", a}, {"b", b}};
  const std::string path = TempPath("roundtrip.ckpt");
  ASSERT_TRUE(SaveParameters(params, path).ok());

  Variable a2(Tensor({3, 4}), true);
  Variable b2(Tensor({7}), true);
  std::vector<NamedParameter> params2 = {{"a", a2}, {"b", b2}};
  ASSERT_TRUE(LoadParameters(path, &params2).ok());
  EXPECT_TRUE(AllClose(a.value(), a2.value()));
  EXPECT_TRUE(AllClose(b.value(), b2.value()));
  std::remove(path.c_str());
}

TEST(SerializeTest, LoadMatchesByNameNotOrder) {
  Rng rng(2);
  Variable a(Tensor::Randn({2}, 1.0f, &rng), true);
  Variable b(Tensor::Randn({3}, 1.0f, &rng), true);
  const std::string path = TempPath("order.ckpt");
  std::vector<NamedParameter> save_order = {{"x", a}, {"y", b}};
  ASSERT_TRUE(SaveParameters(save_order, path).ok());

  Variable a2(Tensor({2}), true);
  Variable b2(Tensor({3}), true);
  std::vector<NamedParameter> load_order = {{"y", b2}, {"x", a2}};
  ASSERT_TRUE(LoadParameters(path, &load_order).ok());
  EXPECT_TRUE(AllClose(a2.value(), a.value()));
  EXPECT_TRUE(AllClose(b2.value(), b.value()));
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Rng rng(3);
  Variable a(Tensor::Randn({4}, 1.0f, &rng), true);
  const std::string path = TempPath("shape.ckpt");
  std::vector<NamedParameter> params = {{"a", a}};
  ASSERT_TRUE(SaveParameters(params, path).ok());

  Variable wrong(Tensor({5}), true);
  std::vector<NamedParameter> target = {{"a", wrong}};
  Status st = LoadParameters(path, &target);
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  std::remove(path.c_str());
}

TEST(SerializeTest, UnknownParameterRejected) {
  Rng rng(4);
  Variable a(Tensor::Randn({2}, 1.0f, &rng), true);
  const std::string path = TempPath("unknown.ckpt");
  std::vector<NamedParameter> params = {{"a", a}};
  ASSERT_TRUE(SaveParameters(params, path).ok());

  Variable other(Tensor({2}), true);
  std::vector<NamedParameter> target = {{"b", other}};
  EXPECT_TRUE(LoadParameters(path, &target).IsNotFound());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingParametersReported) {
  Rng rng(5);
  Variable a(Tensor::Randn({2}, 1.0f, &rng), true);
  const std::string path = TempPath("missing.ckpt");
  std::vector<NamedParameter> params = {{"a", a}};
  ASSERT_TRUE(SaveParameters(params, path).ok());

  Variable a2(Tensor({2}), true);
  Variable extra(Tensor({3}), true);
  std::vector<NamedParameter> target = {{"a", a2}, {"extra", extra}};
  std::vector<std::string> missing;
  ASSERT_TRUE(LoadParameters(path, &target, &missing).ok());
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0], "extra");
  std::remove(path.c_str());
}

TEST(SerializeTest, NonexistentFileIsIOError) {
  std::vector<NamedParameter> params;
  EXPECT_TRUE(LoadParameters("/nonexistent/nope.ckpt", &params).IsIOError());
}

TEST(SerializeTest, CorruptMagicRejected) {
  const std::string path = TempPath("corrupt.ckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite("JUNKJUNKJUNK", 1, 12, f);
  std::fclose(f);
  std::vector<NamedParameter> params;
  EXPECT_TRUE(LoadParameters(path, &params).IsIOError());
  std::remove(path.c_str());
}

TEST(SerializeTest, OversizedNameLengthRejected) {
  // A header that claims a 4 GiB parameter name in a 20-byte file must fail
  // on the file size, before any allocation of that size.
  const std::string path = TempPath("oversized_name.ckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const uint32_t format = 1;
  const uint64_t count = 1;
  const uint32_t name_len = 0xFFFFFFFFu;
  std::fwrite("UMCK", 4, 1, f);
  std::fwrite(&format, sizeof(format), 1, f);
  std::fwrite(&count, sizeof(count), 1, f);
  std::fwrite(&name_len, sizeof(name_len), 1, f);
  std::fclose(f);
  Variable a(Tensor({2}), true);
  std::vector<NamedParameter> params = {{"a", a}};
  EXPECT_TRUE(LoadParameters(path, &params).IsIOError());
  std::remove(path.c_str());
}

TEST(SerializeTest, OversizedShapeRejected) {
  // One parameter whose dims multiply past int64: rejected as corrupt
  // instead of overflowing the element count.
  Variable a(Tensor({2}), true);
  std::vector<NamedParameter> params = {{"a", a}};
  const std::string path = TempPath("oversized_shape.ckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  const uint32_t format = 1, name_len = 1, rank = 2;
  const uint64_t count = 1;
  const int64_t dims[2] = {int64_t{1} << 40, int64_t{1} << 40};
  std::fwrite("UMCK", 4, 1, f);
  std::fwrite(&format, sizeof(format), 1, f);
  std::fwrite(&count, sizeof(count), 1, f);
  std::fwrite(&name_len, sizeof(name_len), 1, f);
  std::fwrite("a", 1, 1, f);
  std::fwrite(&rank, sizeof(rank), 1, f);
  std::fwrite(dims, sizeof(dims), 1, f);
  std::fclose(f);
  EXPECT_TRUE(LoadParameters(path, &params).IsIOError());
  std::remove(path.c_str());
}

// Saves two 4x4 parameters "a" and "b" to `path`.
void SaveTwoParams(const std::string& path) {
  Rng rng(8);
  Variable a(Tensor::Randn({4, 4}, 1.0f, &rng), true);
  Variable b(Tensor::Randn({4, 4}, 1.0f, &rng), true);
  std::vector<NamedParameter> params = {{"a", a}, {"b", b}};
  ASSERT_TRUE(SaveParameters(params, path).ok());
}

bool BitwiseEqual(const Tensor& x, const Tensor& y) {
  return x.same_shape(y) &&
         std::memcmp(x.data(), y.data(), sizeof(float) * x.numel()) == 0;
}

TEST(SerializeTest, TruncatedFileLeavesEveryParameterUnchanged) {
  const std::string path = TempPath("truncated.ckpt");
  SaveTwoParams(path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 8);

  Variable a(Tensor({4, 4}), true);
  Variable b(Tensor({4, 4}), true);
  const Tensor a0 = a.value().Clone(), b0 = b.value().Clone();
  std::vector<NamedParameter> params = {{"a", a}, {"b", b}};
  EXPECT_TRUE(LoadParameters(path, &params).IsIOError());
  EXPECT_TRUE(BitwiseEqual(a.value(), a0));
  EXPECT_TRUE(BitwiseEqual(b.value(), b0));
  std::remove(path.c_str());
}

TEST(SerializeTest, MismatchedSecondRecordLeavesEveryParameterUnchanged) {
  const std::string path = TempPath("second_mismatch.ckpt");
  SaveTwoParams(path);

  Variable a(Tensor({4, 4}), true);
  Variable b(Tensor({4, 5}), true);  // the file's "b" is 4x4
  const Tensor a0 = a.value().Clone(), b0 = b.value().Clone();
  std::vector<NamedParameter> params = {{"a", a}, {"b", b}};
  EXPECT_TRUE(LoadParameters(path, &params).IsInvalidArgument());
  EXPECT_TRUE(BitwiseEqual(a.value(), a0));
  EXPECT_TRUE(BitwiseEqual(b.value(), b0));
  std::remove(path.c_str());
}

TEST(SerializeTest, NonFiniteValueRejectedAndLeavesParametersUnchanged) {
  const std::string path = TempPath("nonfinite.ckpt");
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    SaveTwoParams(path);
    // Overwrite the last float of "b".
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, -static_cast<long>(sizeof(float)), SEEK_END), 0);
    ASSERT_EQ(std::fwrite(&bad, sizeof(bad), 1, f), 1u);
    std::fclose(f);

    Variable a(Tensor({4, 4}), true);
    Variable b(Tensor({4, 4}), true);
    const Tensor a0 = a.value().Clone(), b0 = b.value().Clone();
    std::vector<NamedParameter> params = {{"a", a}, {"b", b}};
    EXPECT_TRUE(LoadParameters(path, &params).IsIOError()) << bad;
    EXPECT_TRUE(BitwiseEqual(a.value(), a0));
    EXPECT_TRUE(BitwiseEqual(b.value(), b0));
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, SaveToFullDeviceIsIOError) {
  Variable a(Tensor({4, 4}), true);
  std::vector<NamedParameter> params = {{"a", a}};
  EXPECT_TRUE(SaveParameters(params, "/dev/full").IsIOError());
}

TEST(SnapshotTest, SnapshotRestoreRoundtrip) {
  Rng rng(6);
  Variable a(Tensor::Randn({3}, 1.0f, &rng), true);
  std::vector<NamedParameter> params = {{"a", a}};
  auto snap = SnapshotParameters(params);
  const float orig = a.value().at(0);
  a.mutable_value().Fill(99.0f);
  ASSERT_TRUE(RestoreParameters(snap, &params).ok());
  EXPECT_FLOAT_EQ(a.value().at(0), orig);
}

TEST(SnapshotTest, SnapshotIsDeepCopy) {
  Variable a(Tensor({2}, {1, 2}), true);
  std::vector<NamedParameter> params = {{"a", a}};
  auto snap = SnapshotParameters(params);
  a.mutable_value().Fill(0.0f);
  EXPECT_FLOAT_EQ(snap[0].second.at(0), 1.0f);
}

TEST(ModuleTest, ParameterNamesPrefixed) {
  Rng rng(7);
  Linear lin(2, 3, &rng);
  auto params = lin.Parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0].name, "weight");
  EXPECT_EQ(params[1].name, "bias");
  EXPECT_EQ(lin.NumParameters(), 2 * 3 + 3);
}

}  // namespace
}  // namespace unimatch::nn
