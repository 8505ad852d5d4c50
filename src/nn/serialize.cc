#include "src/nn/serialize.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "src/util/file_util.h"
#include "src/util/string_util.h"

namespace unimatch::nn {

Status SaveParameters(const std::vector<NamedParameter>& params,
                      const std::string& path) {
  std::vector<RecordView> records;
  records.reserve(params.size());
  for (const auto& p : params) {
    const Tensor& value = p.variable.value();
    records.push_back({p.name, value.shape(),
                       {value.data(), static_cast<size_t>(value.numel())}});
  }
  return WriteRecordFile(path, RecordKind::kCheckpoint, /*tag=*/0, records);
}

Status LoadParameters(const std::string& path,
                      std::vector<NamedParameter>* params,
                      std::vector<std::string>* missing) {
  Result<RecordFile> file = ReadRecordFile(path, RecordKind::kCheckpoint);
  if (!file.ok()) return file.status();

  std::unordered_map<std::string, Variable*> by_name;
  for (auto& p : *params) by_name[p.name] = &p.variable;
  // Every record is matched first; the model is only written once the whole
  // file has passed, so a failed load changes nothing.
  std::vector<Variable*> targets;
  std::unordered_set<std::string> seen;
  for (const Record& rec : file->records) {
    auto it = by_name.find(rec.name);
    if (it == by_name.end()) {
      return Status::NotFound("checkpoint parameter not in model: " +
                              rec.name);
    }
    if (it->second->shape() != rec.dims) {
      return Status::InvalidArgument(StrFormat(
          "shape mismatch for %s: model %s vs checkpoint %s", rec.name.c_str(),
          ShapeToString(it->second->shape()).c_str(),
          ShapeToString(rec.dims).c_str()));
    }
    targets.push_back(it->second);
    seen.insert(rec.name);
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    const std::vector<float>& values = file->records[i].values;
    std::copy(values.begin(), values.end(),
              targets[i]->mutable_value().data());
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
