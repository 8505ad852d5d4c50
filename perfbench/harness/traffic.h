// Serving load for the benchmark: a seeded request stream, an open-loop
// generator that sends on a fixed schedule, a closed loop that keeps a
// fixed number of requests outstanding, and the answer check against an
// exact key built independently of the snapshot's own index.

#ifndef PERFBENCH_HARNESS_TRAFFIC_H_
#define PERFBENCH_HARNESS_TRAFFIC_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "harness/stats.h"
#include "harness/trace.h"
#include "src/serving/frontend.h"
#include "src/serving/snapshot.h"
#include "src/util/random.h"

namespace perfbench {

namespace serving = unimatch::serving;

/// 60% IR top-10 over servable users, 30% UT top-10 and 10% audience
/// top-100 over all items, drawn from one seeded generator.
class RequestStream {
 public:
  RequestStream(uint64_t seed, std::vector<int64_t> servable_users,
                int64_t num_items);
  serving::Request Next();

 private:
  unimatch::Rng rng_;
  std::vector<int64_t> users_;
  int64_t num_items_;
};

/// What the benchmark keeps of one sent request.
struct Answer {
  int64_t seq = 0;
  int64_t id = 0;
  uint64_t digest = 0;      // hash of the answer's ids and scores
  int64_t version = -1;     // snapshot version that answered
  float latency_ms = 0.0f;  // due time (closed loop: send time) to response
  float service_ms = 0.0f;  // Response::latency_ms: admission to response
  float lag_ms = 0.0f;      // generator lateness: send time - due time
  float submit_us = 0.0f;   // time spent inside ServingFrontend::Submit
  int32_t top_k = 0;
  serving::RequestKind kind = serving::RequestKind::kRecommendItems;
  bool ok = false;          // answered with an OK status
  std::vector<ScoredId> results;  // kept only when the phase asks for it

  bool ir() const { return kind == serving::RequestKind::kRecommendItems; }
};

struct PhaseResult {
  std::vector<Answer> answers;  // in send order, when the phase keeps them
  int64_t sent = 0;
  int64_t answered_ok = 0;
  double seconds = 0.0;  // measured wall time
};

/// What an open-loop phase keeps of each answer besides the counts.
enum class Keep { kCounts, kAnswers, kAnswersAndResults };

/// Sends `rate` requests per second, each at its due time, for `seconds`
/// and then on until `*until` is set (when non-null). Latency counts from
/// the due time. A second thread collects responses. kAnswersAndResults
/// keeps every answer's ids and scores (for recall); kAnswers only their
/// digest; kCounts only the counts.
PhaseResult RunOpenLoop(serving::ServingFrontend* frontend,
                        RequestStream* stream, double rate, double seconds,
                        const std::atomic<bool>* until, Keep keep,
                        int64_t first_seq, Tracer* tracer);

/// Sends `total` requests keeping `outstanding` in flight: a request goes
/// out as soon as the oldest one completes. Latency counts from the send.
PhaseResult RunClosedLoop(serving::ServingFrontend* frontend,
                          RequestStream* stream, int outstanding,
                          int64_t total, int64_t first_seq);

uint64_t DigestOf(const std::vector<ScoredId>& results);

/// Exact top-k answers per (snapshot version, request kind, id), computed
/// by an ann::BruteForceIndex built over that version's tables. Snapshots
/// registered here stay alive until the key set is destroyed, so every
/// answer can be checked against the version that produced it.
class ExactKeys {
 public:
  void AddSnapshot(std::shared_ptr<const serving::EngineSnapshot> snapshot);

  /// Whether the snapshot of `version` was registered.
  bool Holds(int64_t version) const { return snapshots_.count(version) > 0; }

  /// Computes the keys of every distinct query among the OK `answers` whose
  /// version is held, in parallel; run after the measured phases.
  void Prepare(const std::vector<const Answer*>& answers);

  /// Key for one OK answer; Prepare must have covered it.
  const std::vector<ScoredId>& Key(const Answer& answer) const;

 private:
  using Query = std::tuple<int64_t, bool, int64_t, int>;  // version, ir, id, k
  std::map<int64_t, std::shared_ptr<const serving::EngineSnapshot>> snapshots_;
  std::map<Query, std::vector<ScoredId>> keys_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRAFFIC_H_
