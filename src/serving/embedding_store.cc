#include "src/serving/embedding_store.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/obs/obs.h"
#include "src/tensor/kernels.h"
#include "src/util/file_util.h"

namespace unimatch::serving {

namespace {
constexpr char kMagic[4] = {'U', 'M', 'E', 'B'};
constexpr uint32_t kVersion = 1;

Status WriteMatrix(std::FILE* f, const Tensor& t) {
  if (t.rank() != 2) return Status::InvalidArgument("expected [N, d] matrix");
  const int64_t dims[2] = {t.dim(0), t.dim(1)};
  if (std::fwrite(dims, sizeof(dims), 1, f) != 1 ||
      std::fwrite(t.data(), sizeof(float), t.numel(), f) !=
          static_cast<size_t>(t.numel())) {
    return Status::IOError("short write");
  }
  return Status::OK();
}

Result<Tensor> ReadMatrix(std::FILE* f, const std::string& path) {
  int64_t dims[2] = {0, 0};
  if (std::fread(dims, sizeof(dims), 1, f) != 1 || dims[0] < 0 ||
      dims[1] <= 0) {
    return Status::IOError("corrupt matrix header");
  }
  // The header is file input: the floats it claims must fit in what is
  // left of the file before anything is allocated for them.
  const int64_t left_floats =
      BytesLeft(f) / static_cast<int64_t>(sizeof(float));
  if (dims[1] > left_floats || dims[0] > left_floats / dims[1]) {
    return Status::IOError("matrix header exceeds the file size");
  }
  Tensor t({dims[0], dims[1]});
  UNIMATCH_RETURN_IF_ERROR(ReadFiniteFloats(f, t.data(), t.numel(), path));
  return t;
}
}  // namespace

Status SaveEmbeddings(const EmbeddingBundle& bundle,
                      const std::string& path) {
  UM_SCOPED_TIMER("serving.store.save.ms");
  UM_COUNTER_INC("serving.store.saves");
  UM_GAUGE_SET("serving.store.version", static_cast<double>(bundle.version));
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IOError("cannot open for write: " + path);
  if (std::fwrite(kMagic, 4, 1, f.get()) != 1 ||
      std::fwrite(&kVersion, sizeof(kVersion), 1, f.get()) != 1 ||
      std::fwrite(&bundle.version, sizeof(bundle.version), 1, f.get()) != 1) {
    return Status::IOError("short write: " + path);
  }
  UNIMATCH_RETURN_IF_ERROR(WriteMatrix(f.get(), bundle.user_embeddings));
  UNIMATCH_RETURN_IF_ERROR(WriteMatrix(f.get(), bundle.item_embeddings));
  return CloseWritten(std::move(f), path);
}

Result<EmbeddingBundle> LoadEmbeddings(const std::string& path) {
  UM_SCOPED_TIMER("serving.store.load.ms");
  UM_COUNTER_INC("serving.store.loads");
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open for read: " + path);
  char magic[4];
  uint32_t version = 0;
  EmbeddingBundle bundle;
  if (std::fread(magic, 4, 1, f.get()) != 1 ||
      std::memcmp(magic, kMagic, 4) != 0) {
    return Status::IOError("bad embedding-store magic: " + path);
  }
  if (std::fread(&version, sizeof(version), 1, f.get()) != 1 ||
      version != kVersion) {
    return Status::IOError("unsupported embedding-store version");
  }
  if (std::fread(&bundle.version, sizeof(bundle.version), 1, f.get()) != 1) {
    return Status::IOError("truncated bundle header");
  }
  UNIMATCH_ASSIGN_OR_RETURN(bundle.user_embeddings, ReadMatrix(f.get(), path));
  UNIMATCH_ASSIGN_OR_RETURN(bundle.item_embeddings, ReadMatrix(f.get(), path));
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
