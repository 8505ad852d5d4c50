// Persistence under hostile conditions, across the three savers and the
// two record-file loaders plus the CSV parser: saves that fail part-way must
// leave the previous file intact, and every truncation, bit flip, extreme
// size field and non-finite payload of a small file must come back as a
// non-OK Status, with the model untouched.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/data/csv_loader.h"
#include "src/nn/serialize.h"
#include "src/serving/campaign.h"
#include "src/serving/embedding_store.h"
#include "tests/util/file_testing.h"

namespace unimatch {
namespace {

using file_testing::Poke;
using file_testing::ReadBytes;
using file_testing::RecordLayout;
using file_testing::ScopedTempDir;
using file_testing::WriteBytes;

bool BitwiseEqual(const Tensor& x, const Tensor& y) {
  return x.same_shape(y) &&
         std::memcmp(x.data(), y.data(), sizeof(float) * x.numel()) == 0;
}

// Runs `save` over the file at `path` in a child process whose files may
// not grow past 1 KiB. SIGXFSZ is ignored there, so the write fails with
// EFBIG instead of killing the child; the limit never reaches this process.
// The child exits 0 only when `save` returned IOError.
void ExpectFailedSaveKeepsFile(const std::function<Status()>& save,
                               const std::string& path) {
  const std::string before = ReadBytes(path);
  ASSERT_GT(before.size(), 1024u) << "the limit must cut the save short";
  EXPECT_EXIT(
      {
        std::signal(SIGXFSZ, SIG_IGN);
        rlimit limit{};
        limit.rlim_cur = limit.rlim_max = 1024;
        ::setrlimit(RLIMIT_FSIZE, &limit);
        std::_Exit(save().IsIOError() ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  const std::string after = ReadBytes(path);
  EXPECT_EQ(after.size(), before.size());
  EXPECT_TRUE(after == before) << "the previous file was damaged";
}

TEST(FailedSaveTest, CheckpointKeepsThePreviousFile) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/model.ckpt";
  Rng rng(1);
  nn::Variable w(Tensor::Randn({20, 20}, 1.0f, &rng), true);
  std::vector<nn::NamedParameter> params = {{"w", w}};
  ASSERT_TRUE(nn::SaveParameters(params, path).ok());
  const Tensor saved = w.value().Clone();
  EXPECT_EQ(dir.Entries(), std::set<std::string>{"model.ckpt"});

  w.mutable_value().Fill(0.5f);
  ExpectFailedSaveKeepsFile([&] { return nn::SaveParameters(params, path); },
                            path);
  ASSERT_TRUE(nn::LoadParameters(path, &params).ok());
  EXPECT_TRUE(BitwiseEqual(w.value(), saved));
  EXPECT_EQ(dir.Entries(), std::set<std::string>{"model.ckpt"});
}

TEST(FailedSaveTest, EmbeddingBundleKeepsThePreviousFile) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/emb.bin";
  Rng rng(2);
  serving::EmbeddingBundle bundle;
  bundle.version = 3;
  bundle.user_embeddings = Tensor::Randn({20, 8}, 1.0f, &rng);
  bundle.item_embeddings = Tensor::Randn({20, 8}, 1.0f, &rng);
  ASSERT_TRUE(serving::SaveEmbeddings(bundle, path).ok());
  EXPECT_EQ(dir.Entries(), std::set<std::string>{"emb.bin"});

  serving::EmbeddingBundle next = bundle;
  next.version = 4;
  next.user_embeddings = Tensor::Ones({20, 8});
  ExpectFailedSaveKeepsFile([&] { return serving::SaveEmbeddings(next, path); },
                            path);
  auto loaded = serving::LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->version, 3);
  EXPECT_TRUE(BitwiseEqual(loaded->user_embeddings, bundle.user_embeddings));
  EXPECT_EQ(dir.Entries(), std::set<std::string>{"emb.bin"});
}

TEST(FailedSaveTest, AudienceCsvKeepsThePreviousFile) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/audience.csv";
  std::vector<serving::AudienceEntry> audience;
  for (int64_t u = 0; u < 100; ++u) audience.push_back({7, u, 0.25f});
  ASSERT_TRUE(serving::WriteAudienceCsv(audience, path).ok());
  EXPECT_EQ(dir.Entries(), std::set<std::string>{"audience.csv"});

  for (auto& e : audience) e.item = 8;
  ExpectFailedSaveKeepsFile(
      [&] { return serving::WriteAudienceCsv(audience, path); }, path);
  EXPECT_EQ(ReadBytes(path).rfind("item_id,user_id,score\n7,0,", 0), 0u);
  EXPECT_EQ(dir.Entries(), std::set<std::string>{"audience.csv"});
}

// One small file of each record kind, corrupted every way the gate names.
class RecordFileMutationTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    path_ = dir_.path() + "/file";
    Rng rng(3);
    if (checkpoint()) {
      nn::Variable a(Tensor::Randn({2, 3}, 1.0f, &rng), true);
      nn::Variable b(Tensor::Randn({4}, 1.0f, &rng), true);
      ASSERT_TRUE(nn::SaveParameters({{"a", a}, {"b", b}}, path_).ok());
    } else {
      serving::EmbeddingBundle bundle;
      bundle.version = (int64_t{1} << 41) + 5;
      bundle.user_embeddings = Tensor::Randn({3, 2}, 1.0f, &rng);
      bundle.item_embeddings = Tensor::Randn({2, 2}, 1.0f, &rng);
      ASSERT_TRUE(serving::SaveEmbeddings(bundle, path_).ok());
    }
    pristine_ = ReadBytes(path_);
    layout_ = file_testing::Records(pristine_);
    ASSERT_EQ(layout_.size(), 2u);
    ASSERT_TRUE(Load(pristine_).ok()) << "the unmodified file must load";
  }

  bool checkpoint() const { return std::strcmp(GetParam(), "checkpoint") == 0; }

  // Writes `bytes` and loads them. A checkpoint loads into parameters that
  // hold a sentinel; a failed load must leave them bitwise unchanged.
  Status Load(const std::string& bytes) {
    WriteBytes(path_, bytes);
    if (!checkpoint()) return serving::LoadEmbeddings(path_).status();
    nn::Variable a(Tensor::Full({2, 3}, 9.0f), true);
    nn::Variable b(Tensor::Full({4}, 9.0f), true);
    std::vector<nn::NamedParameter> params = {{"a", a}, {"b", b}};
    const Status st = nn::LoadParameters(path_, &params);
    if (!st.ok()) {
      EXPECT_TRUE(BitwiseEqual(a.value(), Tensor::Full({2, 3}, 9.0f)) &&
                  BitwiseEqual(b.value(), Tensor::Full({4}, 9.0f)))
          << "a failed load changed the model: " << st.ToString();
    }
    return st;
  }

  ::testing::AssertionResult Rejected(const std::string& bytes) {
    const Status st = Load(bytes);
    if (st.ok()) return ::testing::AssertionFailure() << "loaded OK";
    return ::testing::AssertionSuccess();
  }

  std::string Resealed(std::string bytes) const {
    file_testing::Reseal(&bytes, layout_);
    return bytes;
  }

  ScopedTempDir dir_;
  std::string path_;
  std::string pristine_;
  std::vector<RecordLayout> layout_;
};

TEST_P(RecordFileMutationTest, EveryTruncationIsRejected) {
  for (size_t n = 0; n < pristine_.size(); ++n) {
    ASSERT_TRUE(Rejected(pristine_.substr(0, n))) << "kept " << n << " bytes";
  }
}

TEST_P(RecordFileMutationTest, EveryBitFlipIsRejected) {
  for (size_t bit = 0; bit < 8 * pristine_.size(); ++bit) {
    std::string bytes = pristine_;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    ASSERT_TRUE(Rejected(bytes)) << "byte " << bit / 8 << " bit " << bit % 8;
  }
}

TEST_P(RecordFileMutationTest, ExtremeSizeFieldsAreRejected) {
  // Every size field, as {offset, width in bytes}.
  std::vector<std::pair<size_t, size_t>> fields = {
      {file_testing::kCountOffset, 4}};
  for (const RecordLayout& r : layout_) {
    fields.push_back({r.begin, 8});
    fields.push_back({r.name_len, 4});
    fields.push_back({r.rank, 4});
    for (size_t d = r.dims; d < r.payload; d += 8) fields.push_back({d, 8});
  }
  const int64_t extremes[] = {0, -1, std::numeric_limits<int64_t>::max(),
                              std::numeric_limits<uint32_t>::max()};
  for (const auto& [offset, width] : fields) {
    for (const int64_t value : extremes) {
      std::string bytes = pristine_;
      if (width == 8) {
        Poke(&bytes, offset, value);
      } else {
        Poke(&bytes, offset, static_cast<uint32_t>(value));
      }
      ASSERT_TRUE(Rejected(bytes)) << "offset " << offset << " = " << value;
      // Resealed, the value gets past the checksums to the size checks.
      ASSERT_TRUE(Rejected(Resealed(bytes)))
          << "resealed offset " << offset << " = " << value;
    }
  }
}

TEST_P(RecordFileMutationTest, NonFinitePayloadUnderValidChecksumIsRejected) {
  for (const RecordLayout& r : layout_) {
    for (size_t at = r.payload; at < r.crc; at += sizeof(float)) {
      std::string bytes = pristine_;
      Poke(&bytes, at, -2.5f);
      ASSERT_TRUE(Load(Resealed(bytes)).ok()) << "a finite edit must load";
      for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()}) {
        Poke(&bytes, at, bad);
        ASSERT_TRUE(Rejected(Resealed(bytes)))
            << "offset " << at << " = " << bad;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, RecordFileMutationTest, ::testing::Values("checkpoint", "bundle"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

TEST(CsvMutationTest, EveryTruncationAndByteFlipIsRejectedOrInRange) {
  const std::string csv =
      "user_id,item_id,day\nu1,i1,0\nu2,i1,31\nu1,i3,62\nu3,i2,95\n";
  std::vector<std::string> inputs;
  for (size_t n = 0; n <= csv.size(); ++n) inputs.push_back(csv.substr(0, n));
  for (size_t i = 0; i < csv.size(); ++i) {
    for (const int mask : {1, 2, 4, 8, 16, 32, 64, 128, 255}) {
      std::string bytes = csv;
      bytes[i] = static_cast<char>(bytes[i] ^ mask);
      inputs.push_back(bytes);
    }
  }
  for (const auto unit : {data::CsvFormat::TimeUnit::kDayIndex,
                          data::CsvFormat::TimeUnit::kUnixSeconds,
                          data::CsvFormat::TimeUnit::kIsoDate}) {
    for (const bool skip : {false, true}) {
      data::CsvFormat format;
      format.time_unit = unit;
      format.skip_bad_rows = skip;
      for (const std::string& input : inputs) {
        std::istringstream in(input);
        const auto loaded = data::ParseCsvLog(in, format);
        if (!loaded.ok()) continue;
        const data::InteractionLog& log = loaded->log;
        ASSERT_EQ(log.num_users(), loaded->users.size()) << input;
        ASSERT_EQ(log.num_items(), loaded->items.size()) << input;
        for (const auto& r : log.records()) {
          ASSERT_TRUE(r.user >= 0 && r.user < log.num_users() &&
                      r.item >= 0 && r.item < log.num_items() && r.day >= 0)
              << input;
        }
      }
    }
  }
}

}  // namespace
}  // namespace unimatch
