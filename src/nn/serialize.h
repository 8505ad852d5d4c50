// Checkpointing: save/load a module's named parameters to a file.
//
// A checkpoint is a record file (src/util/file_util.h), the format embedding
// bundles share: one checksummed record per parameter, holding its name,
// shape and values, and written atomically, so a failed save leaves the
// previous checkpoint intact.
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

/// Replaces `path` with a checkpoint of all parameters. IOError when the
/// save fails; the previous file is then left as it was.
Status SaveParameters(const std::vector<NamedParameter>& params,
                      const std::string& path);

/// Reads a checkpoint and copies values into matching parameters. Fails if a
/// checkpoint entry has no matching name or mismatched shape, or the file is
/// corrupt or holds a NaN or infinite value (IOError) or is not a checkpoint;
/// a failed load leaves every parameter unchanged. Parameters not present in
/// the checkpoint are left untouched (and reported via the optional
/// `missing` list).
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
