#include "src/util/file_util.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "tests/util/file_testing.h"

namespace unimatch {
namespace {

using file_testing::ReadBytes;
using file_testing::ScopedTempDir;

mode_t ModeOf(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_mode & 07777;
}

TEST(WriteFileAtomicTest, ReplacesContentsAndLeavesNoTempFile) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/out.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "first version, longer\n").ok());
  EXPECT_EQ(ReadBytes(path), "first version, longer\n");
  ASSERT_TRUE(WriteFileAtomic(path, "second\n").ok());
  EXPECT_EQ(ReadBytes(path), "second\n");
  ASSERT_TRUE(WriteFileAtomic(path, "").ok());
  EXPECT_EQ(ReadBytes(path), "");
  EXPECT_EQ(dir.Entries(), std::set<std::string>{"out.txt"});
}

TEST(WriteFileAtomicTest, NewFileGetsFopenModeAndReplacedFileKeepsItsMode) {
  ScopedTempDir dir;
  const std::string by_fopen = dir.path() + "/by_fopen";
  std::FILE* f = std::fopen(by_fopen.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  const std::string path = dir.path() + "/by_writer";
  ASSERT_TRUE(WriteFileAtomic(path, "x").ok());
  EXPECT_EQ(ModeOf(path), ModeOf(by_fopen));

  ASSERT_EQ(::chmod(path.c_str(), 0640), 0);
  ASSERT_TRUE(WriteFileAtomic(path, "y").ok());
  EXPECT_EQ(ModeOf(path), 0640u);
}

TEST(WriteFileAtomicTest, NonRegularTargetIsRefusedBeforeAnythingIsCreated) {
  // A rename would replace the pipe with a regular file, as it would a
  // device node.
  ScopedTempDir dir;
  const std::string pipe = dir.path() + "/a_pipe";
  const std::string subdir = dir.path() + "/a_directory";
  ASSERT_EQ(::mkfifo(pipe.c_str(), 0600), 0);
  std::filesystem::create_directories(subdir);
  for (const std::string& target : {pipe, subdir}) {
    const Status st = WriteFileAtomic(target, "x");
    EXPECT_TRUE(st.IsIOError()) << st.ToString();
    EXPECT_NE(st.message().find(target), std::string::npos) << st.message();
  }
  EXPECT_TRUE(std::filesystem::is_fifo(pipe));
  EXPECT_TRUE(std::filesystem::is_directory(subdir));
  EXPECT_EQ(dir.Entries(), (std::set<std::string>{"a_directory", "a_pipe"}));
}

TEST(WriteFileAtomicTest, MissingDirectoryIsIOError) {
  EXPECT_TRUE(WriteFileAtomic("/nonexistent-dir/x/y.txt", "x").IsIOError());
}

TEST(RecordFileTest, RoundTripIsBitwiseWithTheTagIntact) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/records.bin";
  const std::vector<int64_t> dims_a = {2, 3}, dims_b = {0, 5}, dims_c = {};
  const std::vector<float> a = {1.5f, -0.0f, 3.25f,
                                std::numeric_limits<float>::denorm_min(),
                                std::numeric_limits<float>::max(), -7.0f};
  const std::vector<float> c = {42.0f};
  const RecordView records[] = {
      {"a", dims_a, a}, {"empty", dims_b, {}}, {"scalar", dims_c, c}};
  for (const int64_t tag : {int64_t{0}, (int64_t{1} << 41) + 3, int64_t{-9},
                            std::numeric_limits<int64_t>::max()}) {
    ASSERT_TRUE(
        WriteRecordFile(path, RecordKind::kEmbeddingBundle, tag, records).ok());
    Result<RecordFile> file =
        ReadRecordFile(path, RecordKind::kEmbeddingBundle);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    EXPECT_EQ(file->tag, tag);
    ASSERT_EQ(file->records.size(), 3u);
    EXPECT_EQ(file->records[0].name, "a");
    EXPECT_EQ(file->records[0].dims, dims_a);
    ASSERT_EQ(file->records[0].values.size(), a.size());
    EXPECT_EQ(std::memcmp(file->records[0].values.data(), a.data(),
                          sizeof(float) * a.size()),
              0);
    EXPECT_EQ(file->records[1].dims, dims_b);
    EXPECT_TRUE(file->records[1].values.empty());
    EXPECT_EQ(file->records[2].dims, dims_c);
    EXPECT_EQ(file->records[2].values, c);
  }
  EXPECT_EQ(dir.Entries(), std::set<std::string>{"records.bin"});
}

TEST(RecordFileTest, ChecksumsAreStandardCrc32) {
  // The reference CRC's own check value, then the writer's checksums
  // recomputed by it: the mutation tests reseal files with it.
  EXPECT_EQ(file_testing::ReferenceCrc32("123456789", 9), 0xCBF43926u);
  ScopedTempDir dir;
  const std::string path = dir.path() + "/records.bin";
  const std::vector<int64_t> dims = {3};
  const std::vector<float> v = {1.0f, 2.0f, 3.0f};
  const RecordView records[] = {{"v", dims, v}, {"w", dims, v}};
  ASSERT_TRUE(WriteRecordFile(path, RecordKind::kCheckpoint, 5, records).ok());
  const std::string bytes = ReadBytes(path);
  std::string resealed = bytes;
  file_testing::Reseal(&resealed, file_testing::Records(bytes));
  EXPECT_EQ(resealed, bytes);
}

TEST(RecordFileTest, KindMismatchIsInvalidArgument) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/records.bin";
  ASSERT_TRUE(WriteRecordFile(path, RecordKind::kCheckpoint, 0, {}).ok());
  EXPECT_TRUE(ReadRecordFile(path, RecordKind::kCheckpoint).ok());
  const Status st =
      ReadRecordFile(path, RecordKind::kEmbeddingBundle).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST(RecordFileTest, TrailingBytesAreIOError) {
  ScopedTempDir dir;
  const std::string path = dir.path() + "/records.bin";
  const std::vector<int64_t> dims = {1};
  const std::vector<float> v = {1.0f};
  const RecordView records[] = {{"v", dims, v}};
  ASSERT_TRUE(WriteRecordFile(path, RecordKind::kCheckpoint, 0, records).ok());
  file_testing::WriteBytes(path, ReadBytes(path) + '\0');
  EXPECT_TRUE(
      ReadRecordFile(path, RecordKind::kCheckpoint).status().IsIOError());
}

TEST(RecordFileTest, DirectoryIsIOError) {
  ScopedTempDir dir;
  EXPECT_TRUE(
      ReadRecordFile(dir.path(), RecordKind::kCheckpoint).status().IsIOError());
}

}  // namespace
}  // namespace unimatch
