// The benchmark's workloads. Each one runs UniMatch's deployment loop
// (paper Fig. 3) through the library's public entry points:
//
//   set-up -> train (UniMatchEngine::Fit) -> evaluate -> publish a snapshot
//   -> fixed-rate serving -> closed-loop serving -> refreshes under load
//
// and reports every end-to-end metric. Workloads differ in the catalog
// size, the serving index and the traffic, which decides the layer that
// dominates each phase. A traced run (`trace = true`) re-drives training
// step by step and wraps every call into a layer in a span, and reports
// the per-layer metrics instead.

#ifndef PERFBENCH_HARNESS_WORKLOAD_H_
#define PERFBENCH_HARNESS_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Items in the catalog; 0 keeps the books preset's 3k.
  int64_t num_items = 0;
  /// EngineConfig::index of the served snapshots.
  std::string index;
  /// Fresh models trained month by month for train_samples_per_s.
  int train_passes = 1;
  /// Requests per second of the fixed-rate phase and of the refresh phase.
  double open_rate = 0.0;
  double refresh_rate = 0.0;
  /// Requests sent by the closed loop, in five equal windows.
  int64_t closed_requests = 0;
  /// Refreshes made under load. A fixed count keeps the snapshots held
  /// for the answer checks, and so peak memory, the same from run to run.
  int refreshes = 1;
  /// Cores left to the rest of the run; the exec pool gets nproc - this.
  int reserved_cores = 2;
};

const std::vector<WorkloadSpec>& Workloads();

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its Chrome trace ("" = don't write).
  std::string trace_path;
  /// When > 0, the run only times this many set-ups and reports setup_s.
  int setup_only = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// The end-to-end metrics as measured in a traced run, for the tracing
  /// overhead; empty in an untraced run.
  std::vector<Metric> traced_end_to_end;
  /// Environment and determinism facts recorded with the result.
  std::vector<std::pair<std::string, std::string>> info;
  /// Why `correct` is false, one line each.
  std::vector<std::string> problems;
};

/// Runs one workload; the seed drives the synthetic log and every request
/// id stream. Returns a report whose `problems` explain any failed check.
RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOAD_H_
