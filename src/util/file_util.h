// Helpers shared by the binary file readers and writers (nn/serialize.cc,
// serving/embedding_store.cc).

#ifndef UNIMATCH_UTIL_FILE_UTIL_H_
#define UNIMATCH_UTIL_FILE_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <memory>

namespace unimatch {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Bytes between the read position of `f` and the end of the file, or -1
/// when the stream cannot report them. Readers check every size a file
/// declares against this before allocating for it.
int64_t BytesLeft(std::FILE* f);

}  // namespace unimatch

#endif  // UNIMATCH_UTIL_FILE_UTIL_H_
