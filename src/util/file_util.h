// Helpers shared by the file readers and writers (nn/serialize.cc,
// serving/embedding_store.cc, serving/campaign.cc).

#ifndef UNIMATCH_UTIL_FILE_UTIL_H_
#define UNIMATCH_UTIL_FILE_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "src/util/status.h"

namespace unimatch {

/// Closes without reporting: for read streams and early error returns.
/// Writers end their success path with CloseWritten instead.
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// Flushes and closes a stream opened for writing. Returns IOError naming
/// `path` when any earlier write to it failed (the stream's error flag),
/// or the flush or the close did: a full disk often shows only there.
Status CloseWritten(FilePtr f, const std::string& path);

/// Bytes between the read position of `f` and the end of the file, or -1
/// when the stream cannot report them. Readers check every size a file
/// declares against this before allocating for it.
int64_t BytesLeft(std::FILE* f);

/// Reads `n` floats into `out`. Returns IOError naming `path` when the
/// file ends first or a value is NaN or infinite, so a loaded file can
/// never trip the finite-value contracts of the model or the indexes.
Status ReadFiniteFloats(std::FILE* f, float* out, int64_t n,
                        const std::string& path);

}  // namespace unimatch

#endif  // UNIMATCH_UTIL_FILE_UTIL_H_
