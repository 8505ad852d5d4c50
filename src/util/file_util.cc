#include "src/util/file_util.h"

namespace unimatch {

int64_t BytesLeft(std::FILE* f) {
  const long pos = std::ftell(f);
  if (pos < 0 || std::fseek(f, 0, SEEK_END) != 0) return -1;
  const long end = std::ftell(f);
  if (end < 0 || std::fseek(f, pos, SEEK_SET) != 0) return -1;
  return static_cast<int64_t>(end) - pos;
}

}  // namespace unimatch
