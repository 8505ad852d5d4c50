// unimatch_perfbench: runs one benchmark workload and prints one JSON
// object as the last line of stdout.
//
//   unimatch_perfbench --workload books --seed 1 --seconds 10 --trace 0
//       [--trace-file out.json]
//   unimatch_perfbench --workload books --seed 1 --setup-only 3
//
// The object holds `correct`, `attempted`, `failed`, `metrics` (name ->
// {value, unit}) and `info` (environment and determinism facts). With
// --trace 1 the metrics are the per-layer ones and `traced_end_to_end`
// holds the end-to-end numbers measured under tracing.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/workload.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i > 0 ? ", " : "") + JsonString(metrics[i].name) +
           ": {\"value\": " + value +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: unimatch_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-file PATH] [--setup-only N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-file") {
      opt.trace_path = value;
    } else if (arg == "--setup-only") {
      opt.setup_only = std::atoi(value);
    } else {
      return Usage();
    }
  }
  bool known = false;
  for (const auto& w : perfbench::Workloads()) known |= w.name == opt.workload;
  if (!have_workload || !known || opt.seconds <= 0.0) return Usage();

  const perfbench::RunReport report = perfbench::RunWorkload(opt);
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  std::string info = "{";
  for (size_t i = 0; i < report.info.size(); ++i) {
    info += (i > 0 ? ", " : "") + JsonString(report.info[i].first) + ": " +
            JsonString(report.info[i].second);
  }
  info += "}";
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s, \"traced_end_to_end\": %s, \"info\": %s}\n",
      report.correct ? "true" : "false",
      static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed),
      MetricsJson(report.metrics).c_str(),
      MetricsJson(report.traced_end_to_end).c_str(), info.c_str());
  return 0;
}
