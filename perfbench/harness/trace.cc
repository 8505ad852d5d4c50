#include "harness/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>

namespace perfbench {

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::ThreadId() {
  static std::atomic<int> next{1};
  thread_local const int id = next.fetch_add(1);
  return id;
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, int64_t seq) {
  if (!enabled_) return;
  SpanRecord span{name, ThreadId(), seq, false, start, end};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void Tracer::RecordAsync(const char* name, int64_t seq,
                         Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  SpanRecord span{name, 0, seq, true, start, end};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::map<std::string, LayerTime> Tracer::LayerTimes() const {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  std::map<std::string, LayerTime> out;
  // Thread spans: sort by (thread, start, longest first) so a parent
  // precedes its children; a stack of open spans attributes each child's
  // duration to its innermost enclosing parent.
  std::vector<const SpanRecord*> sync;
  for (const SpanRecord& s : spans) {
    if (s.async) {
      LayerTime& t = out[s.name];
      const double ms = MsBetween(s.start, s.end);
      ++t.count;
      t.total_ms += ms;
      t.self_ms += ms;
    } else {
      sync.push_back(&s);
    }
  }
  std::sort(sync.begin(), sync.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              if (a->tid != b->tid) return a->tid < b->tid;
              if (a->start != b->start) return a->start < b->start;
              return a->end > b->end;
            });
  struct Open {
    const SpanRecord* span;
    double child_ms;
  };
  std::vector<Open> stack;
  auto close = [&out](const Open& open) {
    LayerTime& t = out[open.span->name];
    const double ms = MsBetween(open.span->start, open.span->end);
    ++t.count;
    t.total_ms += ms;
    t.self_ms += ms - open.child_ms;
  };
  for (const SpanRecord* s : sync) {
    while (!stack.empty() && (stack.back().span->tid != s->tid ||
                              stack.back().span->end <= s->start)) {
      close(stack.back());
      stack.pop_back();
    }
    if (!stack.empty()) {
      const Clock::time_point child_end = std::min(s->end, stack.back().span->end);
      stack.back().child_ms += MsBetween(s->start, child_end);
    }
    stack.push_back({s, 0.0});
  }
  while (!stack.empty()) {
    close(stack.back());
    stack.pop_back();
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::vector<SpanRecord> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans = spans_;
  }
  std::ofstream os(path);
  if (!os) return false;
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  char buf[512];
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const SpanRecord& s : spans) {
    const char* sep = first ? "" : ",\n";
    first = false;
    if (s.async) {
      // Legacy async events: one b/e pair per request, keyed by its
      // sequence number, drawn on their own track.
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"b\","
                    "\"id\":%lld,\"pid\":1,\"tid\":0,\"ts\":%.3f},\n"
                    "{\"name\":\"%s\",\"cat\":\"request\",\"ph\":\"e\","
                    "\"id\":%lld,\"pid\":1,\"tid\":0,\"ts\":%.3f}",
                    sep, s.name, static_cast<long long>(s.seq), us(s.start),
                    s.name, static_cast<long long>(s.seq), us(s.end));
    } else if (s.seq >= 0) {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"seq\":%lld}}",
                    sep, s.name, s.tid, us(s.start), us(s.end) - us(s.start),
                    static_cast<long long>(s.seq));
    } else {
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
                    sep, s.name, s.tid, us(s.start), us(s.end) - us(s.start));
    }
    os << buf;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
