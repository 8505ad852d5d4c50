// Checkpointing: save/load a module's named parameters to a binary file.
//
// Format (little-endian):
//   magic "UMCK" | uint32 version | uint64 count |
//   per parameter: uint32 name_len | name bytes | uint32 rank |
//                  int64 dims[rank] | float data[numel]
//
// Loading matches by name and checks shapes, so checkpoints survive
// reordering of parameter registration but not architecture changes. This is
// what makes the paper's incremental training possible: each month restarts
// from the previous month's checkpoint.

#ifndef UNIMATCH_NN_SERIALIZE_H_
#define UNIMATCH_NN_SERIALIZE_H_

#include <string>
#include <vector>

#include "src/nn/module.h"
#include "src/util/status.h"

namespace unimatch::nn {

/// Writes all parameters to `path`. IOError when any write, the flush or
/// the close fails.
Status SaveParameters(const std::vector<NamedParameter>& params,
                      const std::string& path);

/// Reads a checkpoint and copies values into matching parameters. Fails if a
/// checkpoint entry has no matching name or mismatched shape, or the file is
/// corrupt or holds a NaN or infinite value (IOError); a failed load leaves
/// every parameter unchanged. Parameters not
/// present in the checkpoint are left untouched (and reported via the
/// optional `missing` list).
Status LoadParameters(const std::string& path,
                      std::vector<NamedParameter>* params,
                      std::vector<std::string>* missing = nullptr);

/// In-memory snapshot used by the incremental trainer (checkpoints between
/// months without touching disk).
std::vector<std::pair<std::string, Tensor>> SnapshotParameters(
    const std::vector<NamedParameter>& params);

/// Restores a snapshot into matching parameters (by name, shape-checked).
Status RestoreParameters(
    const std::vector<std::pair<std::string, Tensor>>& snapshot,
    std::vector<NamedParameter>* params);

}  // namespace unimatch::nn

#endif  // UNIMATCH_NN_SERIALIZE_H_
