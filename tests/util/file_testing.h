// Helpers for tests that write, list and corrupt files: a per-test scratch
// directory, whole-file reads and writes, and for record files
// (src/util/file_util.h) a reference CRC-32, where each field of a
// well-formed file sits, and a reseal that recomputes every checksum so a
// crafted field gets past the checksums to the reader's structural checks.

#ifndef UNIMATCH_TESTS_UTIL_FILE_TESTING_H_
#define UNIMATCH_TESTS_UTIL_FILE_TESTING_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <system_error>
#include <vector>

namespace unimatch::file_testing {

/// An empty directory named after the running test and this process, so
/// parallel test processes never share one; removed with everything in it
/// when it goes out of scope.
class ScopedTempDir {
 public:
  ScopedTempDir() {
    const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(test->test_suite_name()) + "." +
                       test->name() + "." + std::to_string(::getpid());
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

  /// The names in the directory, so a test can see that no temp file is
  /// left behind.
  std::set<std::string> Entries() const {
    std::set<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(path_)) {
      names.insert(e.path().filename().string());
    }
    return names;
  }

 private:
  std::string path_;
};

// Magic, format version, kind, count, tag, then the header's CRC.
inline constexpr size_t kCountOffset = 12;
inline constexpr size_t kHeaderBytes = 28;

/// Bitwise CRC-32 (reflected polynomial 0xEDB88320), written independently
/// of the table-driven one the library uses.
inline uint32_t ReferenceCrc32(const char* p, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc ^= static_cast<unsigned char>(p[i]);
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

inline std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

inline void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void Poke(std::string* bytes, size_t offset, T value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

template <typename T>
T Peek(const std::string& bytes, size_t offset) {
  T value{};
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

/// Byte offsets of one record's fields.
struct RecordLayout {
  size_t begin;     // u64 body length; the record's CRC covers [begin, crc)
  size_t name_len;  // u32
  size_t rank;      // u32
  size_t dims;      // i64[rank]
  size_t payload;   // f32 values
  size_t crc;       // u32
};

/// The records of a well-formed record file, in order.
inline std::vector<RecordLayout> Records(const std::string& file) {
  std::vector<RecordLayout> out;
  for (size_t off = kHeaderBytes; off < file.size();) {
    RecordLayout r{};
    r.begin = off;
    r.crc = off + 8 + Peek<uint64_t>(file, off);
    r.name_len = off + 8;
    r.rank = r.name_len + 4 + Peek<uint32_t>(file, r.name_len);
    r.dims = r.rank + 4;
    r.payload = r.dims + 8 * Peek<uint32_t>(file, r.rank);
    out.push_back(r);
    off = r.crc + 4;
  }
  return out;
}

/// Recomputes the header's CRC and each record's over the spans `layout`
/// gives (taken from the file before it was edited).
inline void Reseal(std::string* file, const std::vector<RecordLayout>& layout) {
  Poke(file, kHeaderBytes - 4, ReferenceCrc32(file->data(), kHeaderBytes - 4));
  for (const RecordLayout& r : layout) {
    Poke(file, r.crc, ReferenceCrc32(file->data() + r.begin, r.crc - r.begin));
  }
}

}  // namespace unimatch::file_testing

#endif  // UNIMATCH_TESTS_UTIL_FILE_TESTING_H_
