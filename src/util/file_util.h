// File I/O for the whole program, behind one module.
//
// WriteFileAtomic is the only way the program writes a file: the target is
// replaced whole or left exactly as it was. The record file is the one binary
// format the program reads back; checkpoints (nn/serialize.h) and embedding
// bundles (serving/embedding_store.h) are both record files. Its layout,
// little-endian:
//
//   header  magic "UMRF" | u32 format version (1) | u32 kind | u32 count |
//           i64 tag | u32 CRC-32 of the 24 header bytes before it
//   record  u64 body length | body | u32 CRC-32 of the length and the body,
//           `count` times, and nothing after the last one
//   body    u32 name length | name | u32 rank | i64 dims[rank] |
//           f32 values[product of dims]

#ifndef UNIMATCH_UTIL_FILE_UTIL_H_
#define UNIMATCH_UTIL_FILE_UTIL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/status.h"

namespace unimatch {

/// Replaces the file at `path` with `contents`. Writes a temp file in the
/// same directory, checks every write, then flushes, fsyncs and closes it
/// and renames it over `path`, so a failed or interrupted save leaves the
/// previous file intact. A new file gets the mode fopen(path, "w") would
/// give it; a replaced one keeps its mode; a symlink at `path` is replaced,
/// not followed. IOError naming `path` when `path` exists and is not a
/// regular file (nothing is created then) or any step fails (the temp file
/// is removed).
Status WriteFileAtomic(const std::string& path, std::string_view contents);

/// What a record file holds. Stored in the header, so loading one kind as
/// the other fails.
enum class RecordKind : uint32_t { kCheckpoint = 1, kEmbeddingBundle = 2 };

/// One named float array to write. Views only: they must outlive the call.
struct RecordView {
  std::string_view name;
  std::span<const int64_t> dims;
  std::span<const float> values;  // row-major, product of dims
};

/// One named float array as read back.
struct Record {
  std::string name;
  std::vector<int64_t> dims;
  std::vector<float> values;
};

struct RecordFile {
  /// A 64-bit stamp the caller stores in the header (the embedding bundle's
  /// version; 0 in a checkpoint).
  int64_t tag = 0;
  std::vector<Record> records;
};

/// Writes `records` to `path` as a record file through WriteFileAtomic.
Status WriteRecordFile(const std::string& path, RecordKind kind, int64_t tag,
                       std::span<const RecordView> records);

/// Reads the record file at `path`. Nothing in it is trusted: every size is
/// checked against the bytes left before anything is allocated for it, each
/// checksum is verified before its bytes are used, and every value must be
/// finite. IOError when the file cannot be read, is corrupt, holds a NaN or
/// infinite value or has bytes after its last record; InvalidArgument when
/// it holds another kind.
Result<RecordFile> ReadRecordFile(const std::string& path, RecordKind kind);

}  // namespace unimatch

#endif  // UNIMATCH_UTIL_FILE_UTIL_H_
