#include "src/serving/embedding_store.h"

#include <cmath>

#include "src/obs/obs.h"
#include "src/tensor/kernels.h"
#include "src/util/file_util.h"
#include "src/util/string_util.h"

namespace unimatch::serving {

namespace {
// The bundle's two records, in file order.
constexpr const char* kMatrixNames[2] = {"users", "items"};

RecordView MatrixRecord(const char* name, const Tensor& t) {
  return {name, t.shape(), {t.data(), static_cast<size_t>(t.numel())}};
}
}  // namespace

Status SaveEmbeddings(const EmbeddingBundle& bundle,
                      const std::string& path) {
  UM_SCOPED_TIMER("serving.store.save.ms");
  UM_COUNTER_INC("serving.store.saves");
  UM_GAUGE_SET("serving.store.version", static_cast<double>(bundle.version));
  if (bundle.user_embeddings.rank() != 2 ||
      bundle.item_embeddings.rank() != 2) {
    return Status::InvalidArgument("expected [N, d] matrices");
  }
  const RecordView records[] = {
      MatrixRecord(kMatrixNames[0], bundle.user_embeddings),
      MatrixRecord(kMatrixNames[1], bundle.item_embeddings)};
  return WriteRecordFile(path, RecordKind::kEmbeddingBundle, bundle.version,
                         records);
}

Result<EmbeddingBundle> LoadEmbeddings(const std::string& path) {
  UM_SCOPED_TIMER("serving.store.load.ms");
  UM_COUNTER_INC("serving.store.loads");
  Result<RecordFile> file = ReadRecordFile(path, RecordKind::kEmbeddingBundle);
  if (!file.ok()) return file.status();
  if (file->records.size() != 2) {
    return Status::IOError("an embedding bundle holds two matrices: " + path);
  }
  EmbeddingBundle bundle;
  bundle.version = file->tag;
  Tensor* matrices[2] = {&bundle.user_embeddings, &bundle.item_embeddings};
  for (int k = 0; k < 2; ++k) {
    Record& rec = file->records[k];
    if (rec.name != kMatrixNames[k] || rec.dims.size() != 2 ||
        rec.dims[1] < 1) {
      return Status::IOError(
          StrFormat("record %d of %s is not the [N, d] %s matrix", k,
                    path.c_str(), kMatrixNames[k]));
    }
    *matrices[k] = Tensor(std::move(rec.dims), std::move(rec.values));
  }
  return bundle;
}

Result<double> EmbeddingChurn(const Tensor& before, const Tensor& after) {
  if (!before.same_shape(after) || before.rank() != 2) {
    return Status::InvalidArgument("embedding matrices must match in shape");
  }
  const int64_t n = before.dim(0), d = before.dim(1);
  if (n == 0) return 0.0;
  double total = 0.0;
  // Pooled scratch row + zero-copy row views into both matrices.
  Tensor diff = Tensor::Empty({d});
  for (int64_t i = 0; i < n; ++i) {
    // diff = after_row - before_row, then ||diff||_2 via the dot kernel.
    diff.CopyFrom(after.Row(i));
    kernels::AxpyF32(d, -1.0f, before.Row(i).data(), diff.data());
    total += std::sqrt(
        static_cast<double>(kernels::DotF32(diff.data(), diff.data(), d)));
  }
  const double churn = total / static_cast<double>(n);
  UM_COUNTER_INC("serving.store.churn_checks");
  UM_GAUGE_SET("serving.store.churn.last", churn);
  return churn;
}

}  // namespace unimatch::serving
