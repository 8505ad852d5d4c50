// Embedding store: the deployment hand-off format.
//
// In the paper's production setting, training and serving are separate
// systems: the trainer exports one user matrix and one item matrix per
// refresh; downstream ANN services load them. This store writes/reads the
// matrices with a version tag and row-count/dimension metadata, and can
// diff two versions to quantify embedding churn between monthly refreshes.
//
// Thread safety: stateless free functions — no shared mutable state, no
// locks, nothing to rank. Concurrent calls are safe as long as callers do
// not hand the same Tensor buffers or target path to two calls at once.

#ifndef UNIMATCH_SERVING_EMBEDDING_STORE_H_
#define UNIMATCH_SERVING_EMBEDDING_STORE_H_

#include <string>

#include "src/tensor/tensor.h"
#include "src/util/status.h"

namespace unimatch::serving {

struct EmbeddingBundle {
  /// Monotonic refresh counter (e.g. months since launch).
  int64_t version = 0;
  Tensor user_embeddings;  // [M, d]
  Tensor item_embeddings;  // [K, d]
};

/// Writes a bundle to `path` (binary, versioned, magic-checked). IOError
/// when any write, the flush or the close fails.
Status SaveEmbeddings(const EmbeddingBundle& bundle, const std::string& path);

/// Reads a bundle back. IOError when the file is corrupt or holds a NaN or
/// infinite value.
Result<EmbeddingBundle> LoadEmbeddings(const std::string& path);

/// Mean L2 distance between matching rows of two embedding matrices —
/// the churn metric between consecutive refreshes (rows must align).
Result<double> EmbeddingChurn(const Tensor& before, const Tensor& after);

}  // namespace unimatch::serving

#endif  // UNIMATCH_SERVING_EMBEDDING_STORE_H_
