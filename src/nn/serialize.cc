#include "src/nn/serialize.h"

#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "src/util/file_util.h"
#include "src/util/string_util.h"

namespace unimatch::nn {

namespace {
constexpr char kMagic[4] = {'U', 'M', 'C', 'K'};
constexpr uint32_t kVersion = 1;

bool WriteBytes(std::FILE* f, const void* p, size_t n) {
  return std::fwrite(p, 1, n, f) == n;
}
bool ReadBytes(std::FILE* f, void* p, size_t n) {
  return std::fread(p, 1, n, f) == n;
}
}  // namespace

Status SaveParameters(const std::vector<NamedParameter>& params,
                      const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IOError("cannot open for write: " + path);
  uint64_t count = params.size();
  if (!WriteBytes(f.get(), kMagic, 4) ||
      !WriteBytes(f.get(), &kVersion, sizeof(kVersion)) ||
      !WriteBytes(f.get(), &count, sizeof(count))) {
    return Status::IOError("write failed: " + path);
  }
  for (const auto& p : params) {
    const uint32_t name_len = static_cast<uint32_t>(p.name.size());
    const uint32_t rank = static_cast<uint32_t>(p.variable.rank());
    if (!WriteBytes(f.get(), &name_len, sizeof(name_len)) ||
        !WriteBytes(f.get(), p.name.data(), name_len) ||
        !WriteBytes(f.get(), &rank, sizeof(rank))) {
      return Status::IOError("write failed: " + path);
    }
    for (int i = 0; i < static_cast<int>(rank); ++i) {
      const int64_t d = p.variable.dim(i);
      if (!WriteBytes(f.get(), &d, sizeof(d))) {
        return Status::IOError("write failed: " + path);
      }
    }
    if (!WriteBytes(f.get(), p.variable.value().data(),
                    sizeof(float) * p.variable.numel())) {
      return Status::IOError("write failed: " + path);
    }
  }
  return Status::OK();
}

Status LoadParameters(const std::string& path,
                      std::vector<NamedParameter>* params,
                      std::vector<std::string>* missing) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open for read: " + path);
  char magic[4];
  uint32_t version = 0;
  uint64_t count = 0;
  if (!ReadBytes(f.get(), magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::IOError("bad checkpoint magic: " + path);
  }
  if (!ReadBytes(f.get(), &version, sizeof(version)) || version != kVersion) {
    return Status::IOError("unsupported checkpoint version");
  }
  if (!ReadBytes(f.get(), &count, sizeof(count))) {
    return Status::IOError("truncated checkpoint: " + path);
  }

  std::unordered_map<std::string, Variable*> by_name;
  for (auto& p : *params) by_name[p.name] = &p.variable;
  std::unordered_map<std::string, bool> seen;
  // Every record is read and checked into staging first; the model is only
  // written once the whole file has passed, so a failed load changes nothing.
  std::vector<std::pair<Variable*, std::vector<float>>> staged;

  // Every size below comes from the file, so each is checked against the
  // bytes actually left before anything is allocated for it.
  for (uint64_t idx = 0; idx < count; ++idx) {
    uint32_t name_len = 0, rank = 0;
    if (!ReadBytes(f.get(), &name_len, sizeof(name_len)) ||
        name_len > BytesLeft(f.get())) {
      return Status::IOError("truncated checkpoint: " + path);
    }
    std::string name(name_len, '\0');
    if (!ReadBytes(f.get(), name.data(), name_len) ||
        !ReadBytes(f.get(), &rank, sizeof(rank)) ||
        rank > BytesLeft(f.get()) / static_cast<int64_t>(sizeof(int64_t))) {
      return Status::IOError("truncated checkpoint: " + path);
    }
    Shape shape(rank);
    for (uint32_t i = 0; i < rank; ++i) {
      if (!ReadBytes(f.get(), &shape[i], sizeof(int64_t))) {
        return Status::IOError("truncated checkpoint: " + path);
      }
    }
    const int64_t max_numel =
        BytesLeft(f.get()) / static_cast<int64_t>(sizeof(float));
    int64_t numel = 1;
    for (const int64_t d : shape) {
      if (d < 0 || (d > 0 && numel > max_numel / d)) {
        return Status::IOError("corrupt parameter shape in checkpoint: " +
                               path);
      }
      numel *= d;
    }
    if (numel > max_numel) {
      return Status::IOError("truncated checkpoint: " + path);
    }
    std::vector<float> data(numel);
    if (!ReadBytes(f.get(), data.data(), sizeof(float) * numel)) {
      return Status::IOError("truncated checkpoint: " + path);
    }
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::NotFound("checkpoint parameter not in model: " + name);
    }
    if (it->second->shape() != shape) {
      return Status::InvalidArgument(StrFormat(
          "shape mismatch for %s: model %s vs checkpoint %s", name.c_str(),
          ShapeToString(it->second->shape()).c_str(),
          ShapeToString(shape).c_str()));
    }
    staged.emplace_back(it->second, std::move(data));
    seen[name] = true;
  }
  for (auto& [var, data] : staged) {
    std::copy(data.begin(), data.end(), var->mutable_value().data());
  }
  if (missing != nullptr) {
    missing->clear();
    for (auto& p : *params) {
      if (!seen.count(p.name)) missing->push_back(p.name);
    }
  }
  return Status::OK();
}

std::vector<std::pair<std::string, Tensor>> SnapshotParameters(
    const std::vector<NamedParameter>& params) {
  std::vector<std::pair<std::string, Tensor>> snap;
  snap.reserve(params.size());
  for (const auto& p : params) {
    snap.emplace_back(p.name, p.variable.value().Clone());
  }
  return snap;
}

Status RestoreParameters(
    const std::vector<std::pair<std::string, Tensor>>& snapshot,
    std::vector<NamedParameter>* params) {
  std::unordered_map<std::string, Variable*> by_name;
  for (auto& p : *params) by_name[p.name] = &p.variable;
  for (const auto& [name, tensor] : snapshot) {
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::NotFound("snapshot parameter not in model: " + name);
    }
    if (it->second->shape() != tensor.shape()) {
      return Status::InvalidArgument("shape mismatch for " + name);
    }
    std::copy(tensor.data(), tensor.data() + tensor.numel(),
              it->second->mutable_value().data());
  }
  return Status::OK();
}

}  // namespace unimatch::nn
