#include "harness/traffic.h"

#include <sys/prctl.h>

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "src/ann/index.h"
#include "src/util/logging.h"
#include "src/util/threadpool.h"

namespace perfbench {

namespace {

// Sleeps until `due`. The caller's timer slack is 1 ns for the phase, so
// the wake-up lands within microseconds of the due time instead of the
// default 50 us slack, and the generator leaves its core to the system
// under test between requests. How late it runs is reported.
void WaitUntil(Clock::time_point due) {
  const Clock::time_point now = Clock::now();
  if (due > now) std::this_thread::sleep_for(due - now);
}

class ScopedTimerSlack {
 public:
  ScopedTimerSlack() : previous_(prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0)) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  }
  ~ScopedTimerSlack() {
    if (previous_ > 0) {
      prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(previous_), 0, 0, 0);
    }
  }
  ScopedTimerSlack(const ScopedTimerSlack&) = delete;
  ScopedTimerSlack& operator=(const ScopedTimerSlack&) = delete;

 private:
  const int previous_;
};

void Stamp(const serving::Request& request, int64_t seq, Answer* a) {
  a->seq = seq;
  a->id = request.id;
  a->top_k = request.top_k;
  a->kind = request.kind;
}

void FillFromResponse(serving::Response response, bool keep_results,
                      Answer* a) {
  a->ok = response.status.ok();
  a->version = response.snapshot_version;
  a->service_ms = static_cast<float>(response.latency_ms);
  std::vector<ScoredId> results;
  results.reserve(response.results.size());
  for (const auto& s : response.results) results.push_back({s.id, s.score});
  a->digest = DigestOf(results);
  if (keep_results) a->results = std::move(results);
}

}  // namespace

RequestStream::RequestStream(uint64_t seed, std::vector<int64_t> servable_users,
                             int64_t num_items)
    : rng_(seed), users_(std::move(servable_users)), num_items_(num_items) {}

serving::Request RequestStream::Next() {
  serving::Request r;
  const uint64_t mix = rng_.Uniform(10);
  if (mix < 6) {
    r.kind = serving::RequestKind::kRecommendItems;
    r.id = users_[rng_.Uniform(users_.size())];
    r.top_k = 10;
  } else if (mix < 9) {
    r.kind = serving::RequestKind::kTargetUsers;
    r.id = static_cast<int64_t>(rng_.Uniform(num_items_));
    r.top_k = 10;
  } else {
    r.kind = serving::RequestKind::kBuildAudience;
    r.id = static_cast<int64_t>(rng_.Uniform(num_items_));
    r.top_k = 100;
  }
  return r;
}

uint64_t DigestOf(const std::vector<ScoredId>& results) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const ScoredId& s : results) {
    uint32_t bits = 0;
    std::memcpy(&bits, &s.score, sizeof(bits));
    mix(static_cast<uint64_t>(s.id));
    mix(bits);
  }
  return h;
}

PhaseResult RunOpenLoop(serving::ServingFrontend* frontend,
                        RequestStream* stream, double rate, double seconds,
                        const std::atomic<bool>* until, Keep keep,
                        int64_t first_seq, Tracer* tracer) {
  PhaseResult out;
  if (keep != Keep::kCounts) {
    out.answers.reserve(static_cast<size_t>(rate * seconds) + 1);
  }
  struct InFlight {
    Answer answer;
    Clock::time_point due;
    Clock::time_point sent;
    std::future<serving::Response> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> in_flight;
  bool done = false;

  // Collects responses in send order; only this thread touches `out`
  // until it is joined. The latency it records comes from the frontend's
  // own admission-to-response stamp, so its own wake-up delay does not
  // enter it.
  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !in_flight.empty() || done; });
        if (in_flight.empty()) return;
        f = std::move(in_flight.front());
        in_flight.pop_front();
      }
      Answer& a = f.answer;
      serving::Response response;
      {
        ScopedSpan span(tracer, "bench.await_response", a.seq);
        response = f.future.get();
      }
      FillFromResponse(std::move(response), keep == Keep::kAnswersAndResults,
                       &a);
      a.latency_ms = static_cast<float>(MsBetween(f.due, f.sent)) + a.service_ms;
      if (a.ok && tracer->enabled()) {
        const auto end = f.sent + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double, std::milli>(
                                          a.service_ms));
        tracer->RecordAsync("bench.request", a.seq, f.due, end);
      }
      ++out.sent;
      if (a.ok) ++out.answered_ok;
      if (keep != Keep::kCounts) out.answers.push_back(std::move(a));
    }
  });

  const ScopedTimerSlack slack;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  const Clock::time_point min_end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (int64_t i = 0;; ++i) {
    const Clock::time_point due = start + i * interval;
    if (due >= min_end && (until == nullptr || until->load())) break;
    WaitUntil(due);
    const serving::Request request = stream->Next();
    InFlight f;
    Stamp(request, first_seq + i, &f.answer);
    const Clock::time_point t0 = Clock::now();
    f.future = frontend->Submit(request);
    const Clock::time_point t1 = Clock::now();
    tracer->Record("serving.frontend.submit", t0, t1, f.answer.seq);
    f.answer.lag_ms = static_cast<float>(MsBetween(due, t0));
    f.answer.submit_us = static_cast<float>(1000.0 * MsBetween(t0, t1));
    f.due = due;
    f.sent = t1;
    {
      std::lock_guard<std::mutex> lock(mu);
      in_flight.push_back(std::move(f));
    }
    cv.notify_one();
  }
  const Clock::time_point end = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  out.seconds = MsBetween(start, end) / 1000.0;
  return out;
}

PhaseResult RunClosedLoop(serving::ServingFrontend* frontend,
                          RequestStream* stream, int outstanding,
                          int64_t total, int64_t first_seq) {
  PhaseResult out;
  out.answers.reserve(static_cast<size_t>(total));
  struct InFlight {
    size_t index = 0;
    Clock::time_point sent;
    std::future<serving::Response> future;
  };
  std::deque<InFlight> window;
  auto send = [&] {
    const serving::Request request = stream->Next();
    Answer& a = out.answers.emplace_back();
    Stamp(request, first_seq + out.sent++, &a);
    const Clock::time_point t0 = Clock::now();
    std::future<serving::Response> future = frontend->Submit(request);
    a.submit_us = static_cast<float>(1000.0 * MsBetween(t0, Clock::now()));
    window.push_back({out.answers.size() - 1, t0, std::move(future)});
  };
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < outstanding && out.sent < total; ++i) send();
  while (!window.empty()) {
    InFlight f = std::move(window.front());
    window.pop_front();
    Answer& a = out.answers[f.index];
    FillFromResponse(f.future.get(), /*keep_results=*/false, &a);
    a.latency_ms = static_cast<float>(MsBetween(f.sent, Clock::now()));
    if (a.ok) ++out.answered_ok;
    if (out.sent < total) send();
  }
  out.seconds = MsBetween(start, Clock::now()) / 1000.0;
  return out;
}

void ExactKeys::AddSnapshot(
    std::shared_ptr<const serving::EngineSnapshot> snapshot) {
  const int64_t version = snapshot->version();
  snapshots_[version] = std::move(snapshot);
}

void ExactKeys::Prepare(const std::vector<const Answer*>& answers) {
  // Distinct queries grouped by (version, side, k): each group is answered
  // by one independent exact index over that version's table.
  std::map<std::tuple<int64_t, bool, int>, std::vector<int64_t>> groups;
  for (const Answer* a : answers) {
    if (!a->ok || !Holds(a->version)) continue;
    const Query q{a->version, a->ir(), a->id, a->top_k};
    if (keys_.count(q) > 0) continue;
    keys_[q];
    groups[{a->version, a->ir(), a->top_k}].push_back(a->id);
  }
  constexpr int64_t kChunk = 64;
  unimatch::ThreadPool pool(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  for (const auto& [group, ids] : groups) {
    const auto [version, ir, k] = group;
    const auto& snap = snapshots_.at(version);
    const unimatch::Tensor table =
        ir ? snap->item_embeddings() : snap->user_embeddings();
    const unimatch::Tensor queries =
        ir ? snap->user_embeddings() : snap->item_embeddings();
    unimatch::ann::BruteForceIndex exact;
    const unimatch::Status st = exact.Build(table);
    UM_CHECK(st.ok()) << st.ToString();
    const int64_t d = table.dim(1);
    const auto n = static_cast<int64_t>(ids.size());
    pool.ParallelFor(
        0, (n + kChunk - 1) / kChunk,
        [&, version = version, ir = ir, k = k](int64_t c) {
          const int64_t lo = c * kChunk;
          const int64_t hi = std::min<int64_t>(lo + kChunk, n);
          std::vector<float> rows(static_cast<size_t>((hi - lo) * d));
          for (int64_t i = lo; i < hi; ++i) {
            std::memcpy(rows.data() + (i - lo) * d,
                        queries.data() + ids[static_cast<size_t>(i)] * d,
                        sizeof(float) * static_cast<size_t>(d));
          }
          std::vector<unimatch::ann::SearchResult> found(
              static_cast<size_t>((hi - lo) * k));
          exact.MultiSearch(rows.data(), hi - lo, k,
                            unimatch::ann::ThreadLocalSearchWorkspace(),
                            found.data());
          for (int64_t i = lo; i < hi; ++i) {
            std::vector<ScoredId>& key =
                keys_.at(Query{version, ir, ids[static_cast<size_t>(i)], k});
            for (int r = 0; r < k; ++r) {
              const auto& s = found[static_cast<size_t>((i - lo) * k + r)];
              if (s.id < 0) break;
              key.push_back({s.id, s.score});
            }
          }
        },
        /*min_shard=*/1);
  }
}

const std::vector<ScoredId>& ExactKeys::Key(const Answer& answer) const {
  return keys_.at(Query{answer.version, answer.ir(), answer.id, answer.top_k});
}

}  // namespace perfbench
