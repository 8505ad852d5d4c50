// In-memory spans recorded by the benchmark around its calls into the
// library, written out as Chrome trace-event JSON when the run ends.
//
// A span is a named [start, end) interval on one thread. Spans on a thread
// nest; a span's self time is its duration minus the part its children
// cover. Requests, which cross threads, are recorded as async spans keyed
// by their sequence number. A disabled tracer records nothing and costs
// one branch per span.

#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  const char* name = "";
  int tid = 0;
  int64_t seq = -1;  // request sequence number, -1 for none
  bool async = false;
  Clock::time_point start;
  Clock::time_point end;
};

/// Total and self time of all spans sharing one name.
struct LayerTime {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Small per-thread id for the trace viewer (stable for the thread).
  static int ThreadId();

  /// `name` must be a string literal (it is stored by pointer).
  void Record(const char* name, Clock::time_point start, Clock::time_point end,
              int64_t seq = -1);
  /// A request-scoped span that may start and end on different threads.
  void RecordAsync(const char* name, int64_t seq, Clock::time_point start,
                   Clock::time_point end);

  /// Per-name totals; self time subtracts same-thread nested children.
  std::map<std::string, LayerTime> LayerTimes() const;

  /// Writes every span as Chrome trace-event JSON (opens in Perfetto and
  /// chrome://tracing). Returns false when the file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// Records one span from construction to destruction when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t seq = -1)
      : tracer_(tracer->enabled() ? tracer : nullptr), name_(name), seq_(seq) {
    if (tracer_ != nullptr) start_ = Clock::now();
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Record(name_, start_, Clock::now(), seq_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  int64_t seq_;
  Clock::time_point start_;
};

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
