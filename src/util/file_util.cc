#include "src/util/file_util.h"

#include <cmath>

namespace unimatch {

Status CloseWritten(FilePtr f, const std::string& path) {
  std::FILE* raw = f.release();
  const bool write_failed = std::ferror(raw) != 0;
  const bool flush_failed = std::fflush(raw) != 0;
  const bool close_failed = std::fclose(raw) != 0;
  if (write_failed || flush_failed || close_failed) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

int64_t BytesLeft(std::FILE* f) {
  const long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) return -1;
  const long end = std::ftell(f);
  if (end < 0 || std::fseek(f, pos, SEEK_SET) != 0) return -1;
  return static_cast<int64_t>(end) - pos;
}

Status ReadFiniteFloats(std::FILE* f, float* out, int64_t n,
                        const std::string& path) {
  if (std::fread(out, sizeof(float), static_cast<size_t>(n), f) !=
      static_cast<size_t>(n)) {
    return Status::IOError("truncated float data: " + path);
  }
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(out[i])) {
      return Status::IOError("non-finite value in " + path);
    }
  }
  return Status::OK();
}

}  // namespace unimatch
