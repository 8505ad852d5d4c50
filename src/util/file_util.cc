#include "src/util/file_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>

#include "src/util/string_util.h"

namespace unimatch {

namespace {

// The record file stores integers and floats in host byte order.
static_assert(std::endian::native == std::endian::little,
              "the record file format is little-endian");

constexpr char kRecordMagic[4] = {'U', 'M', 'R', 'F'};
constexpr uint32_t kRecordFormatVersion = 1;
// Magic, format version, kind, count and tag; the header CRC follows.
constexpr size_t kHeaderBodyBytes = 4 + 4 + 4 + 4 + 8;
// Far above any tensor the program builds; keeps a hostile rank from
// sizing the dims array.
constexpr uint32_t kMaxRank = 8;

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// CRC-32 as zlib and PNG compute it (reflected polynomial 0xEDB88320).
uint32_t Crc32(const char* p, size_t n) {
  static constexpr std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = kTable[(crc ^ static_cast<unsigned char>(p[i])) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

template <typename T>
void Put(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

// Takes sizeof(T) bytes off the front of `in`; false when fewer are left.
template <typename T>
bool Take(std::string_view* in, T* v) {
  if (in->size() < sizeof(T)) return false;
  std::memcpy(v, in->data(), sizeof(T));
  in->remove_prefix(sizeof(T));
  return true;
}

const char* KindName(uint32_t kind) {
  switch (static_cast<RecordKind>(kind)) {
    case RecordKind::kCheckpoint:
      return "checkpoint";
    case RecordKind::kEmbeddingBundle:
      return "embedding bundle";
  }
  return "unknown record kind";
}

// The whole of a regular file. A device or a pipe is refused, so a read
// never waits on or runs through an endless stream.
Result<std::string> ReadRegularFile(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open for read: " + path);
  struct stat st {};
  if (::fstat(::fileno(f.get()), &st) != 0 || !S_ISREG(st.st_mode)) {
    return Status::IOError("not a regular file: " + path);
  }
  std::string bytes(static_cast<size_t>(st.st_size), '\0');
  if (std::fread(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
    return Status::IOError("read failed: " + path);
  }
  return bytes;
}

// Parses one record off the front of `in`.
Status ReadRecord(std::string_view* in, Record* rec) {
  const char* start = in->data();
  uint64_t body_len = 0;
  if (!Take(in, &body_len) || in->size() < sizeof(uint32_t) ||
      body_len > in->size() - sizeof(uint32_t)) {
    return Status::IOError("truncated record");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, in->data() + body_len, sizeof(stored_crc));
  if (Crc32(start, sizeof(body_len) + body_len) != stored_crc) {
    return Status::IOError("record checksum mismatch");
  }
  std::string_view body = in->substr(0, body_len);
  in->remove_prefix(body_len + sizeof(stored_crc));

  uint32_t name_len = 0, rank = 0;
  if (!Take(&body, &name_len) || name_len > body.size()) {
    return Status::IOError("corrupt record name");
  }
  rec->name.assign(body.data(), name_len);
  body.remove_prefix(name_len);
  if (!Take(&body, &rank) || rank > kMaxRank ||
      rank > body.size() / sizeof(int64_t)) {
    return Status::IOError("corrupt record rank");
  }
  rec->dims.resize(rank);
  int64_t numel = 1;
  for (int64_t& d : rec->dims) {
    Take(&body, &d);
    if (d < 0 || (d > 0 && numel > std::numeric_limits<int64_t>::max() / d)) {
      return Status::IOError("corrupt record shape");
    }
    numel *= d;
  }
  if (body.size() % sizeof(float) != 0 ||
      numel != static_cast<int64_t>(body.size() / sizeof(float))) {
    return Status::IOError("record payload does not match its shape");
  }
  rec->values.resize(static_cast<size_t>(numel));
  if (numel > 0) std::memcpy(rec->values.data(), body.data(), body.size());
  for (const float v : rec->values) {
    if (!std::isfinite(v)) return Status::IOError("non-finite value");
  }
  return Status::OK();
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  // Renaming over a device or a directory would replace the node itself: a
  // save to /dev/full would take the device's place instead of failing.
  struct stat target {};
  const bool exists = ::stat(path.c_str(), &target) == 0;
  if (exists && !S_ISREG(target.st_mode)) {
    return Status::IOError("not a regular file: " + path);
  }
  // Created with O_EXCL and mode 0666, so the kernel applies the umask as it
  // does for fopen; mkstemp would create it 0600. The pid and a process-wide
  // counter make the name unique; a leftover of that name is skipped.
  static std::atomic<uint64_t> next_temp{0};
  std::string temp;
  int fd = -1;
  for (int attempt = 0; fd < 0 && attempt < 64; ++attempt) {
    temp = StrFormat("%s.tmp.%ld.%llu", path.c_str(),
                     static_cast<long>(::getpid()),
                     static_cast<unsigned long long>(next_temp.fetch_add(1)));
    fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd < 0 && errno != EEXIST) break;
  }
  if (fd < 0) return Status::IOError("cannot create a temp file for " + path);
  std::FILE* f = ::fdopen(fd, "wb");
  if (f == nullptr) {
    ::close(fd);
    std::remove(temp.c_str());
    return Status::IOError("write failed: " + path);
  }
  // A replaced file keeps its mode, as under fopen(path, "w").
  bool ok = !exists || ::fchmod(fd, target.st_mode & 07777) == 0;
  ok = ok &&
       std::fwrite(contents.data(), 1, contents.size(), f) == contents.size();
  ok = std::fflush(f) == 0 && ok;
  ok = ::fsync(fd) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok || std::rename(temp.c_str(), path.c_str()) != 0) {
    std::remove(temp.c_str());
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

Status WriteRecordFile(const std::string& path, RecordKind kind, int64_t tag,
                       std::span<const RecordView> records) {
  std::string out;
  out.append(kRecordMagic, sizeof(kRecordMagic));
  Put(&out, kRecordFormatVersion);
  Put(&out, static_cast<uint32_t>(kind));
  Put(&out, static_cast<uint32_t>(records.size()));
  Put(&out, tag);
  Put(&out, Crc32(out.data(), out.size()));
  for (const RecordView& r : records) {
    const size_t start = out.size();
    const uint64_t body_len = sizeof(uint32_t) + r.name.size() +
                              sizeof(uint32_t) + r.dims.size_bytes() +
                              r.values.size_bytes();
    Put(&out, body_len);
    Put(&out, static_cast<uint32_t>(r.name.size()));
    out.append(r.name);
    Put(&out, static_cast<uint32_t>(r.dims.size()));
    out.append(reinterpret_cast<const char*>(r.dims.data()),
               r.dims.size_bytes());
    out.append(reinterpret_cast<const char*>(r.values.data()),
               r.values.size_bytes());
    Put(&out, Crc32(out.data() + start, out.size() - start));
  }
  return WriteFileAtomic(path, out);
}

Result<RecordFile> ReadRecordFile(const std::string& path, RecordKind kind) {
  Result<std::string> bytes = ReadRegularFile(path);
  if (!bytes.ok()) return bytes.status();
  std::string_view in(*bytes);
  char magic[sizeof(kRecordMagic)] = {};
  uint32_t version = 0, file_kind = 0, count = 0, header_crc = 0;
  RecordFile file;
  if (!Take(&in, &magic) ||
      std::memcmp(magic, kRecordMagic, sizeof(magic)) != 0) {
    return Status::IOError("not a record file: " + path);
  }
  if (!Take(&in, &version) || !Take(&in, &file_kind) || !Take(&in, &count) ||
      !Take(&in, &file.tag) || !Take(&in, &header_crc)) {
    return Status::IOError("truncated header: " + path);
  }
  if (Crc32(bytes->data(), kHeaderBodyBytes) != header_crc) {
    return Status::IOError("header checksum mismatch: " + path);
  }
  if (version != kRecordFormatVersion) {
    return Status::IOError(StrFormat(
        "unsupported record format version %u: %s", version, path.c_str()));
  }
  if (file_kind != static_cast<uint32_t>(kind)) {
    return Status::InvalidArgument(
        StrFormat("%s holds a %s, not a %s", path.c_str(), KindName(file_kind),
                  KindName(static_cast<uint32_t>(kind))));
  }
  for (uint32_t i = 0; i < count; ++i) {
    Record rec;
    if (Status st = ReadRecord(&in, &rec); !st.ok()) {
      return Status::IOError(
          StrFormat("%s in record %u of %s", st.message().c_str(), i,
                    path.c_str()));
    }
    file.records.push_back(std::move(rec));
  }
  if (!in.empty()) {
    return Status::IOError("bytes after the last record: " + path);
  }
  return file;
}

}  // namespace unimatch
