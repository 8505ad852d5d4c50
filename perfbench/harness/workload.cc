#include "harness/workload.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <thread>

#include "harness/stats.h"
#include "harness/trace.h"
#include "harness/traffic.h"
#include "harness/train_layers.h"
#include "src/core/unimatch.h"
#include "src/data/splits.h"
#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/eval/protocol.h"
#include "src/obs/metrics.h"
#include "src/serving/frontend.h"
#include "src/serving/snapshot.h"
#include "src/tensor/kernels.h"
#include "src/tensor/storage.h"
#include "src/util/logging.h"

namespace perfbench {

namespace um = unimatch;

namespace {

// Latency limit of serve_slo_pct, from each request's due time.
constexpr double kSloLimitMs = 10.0;
// Frontend shape: max_batch 64 with a 200 us window; the closed loop keeps
// 4 x max_batch requests outstanding.
constexpr int kMaxBatch = 64;
constexpr int64_t kBatchWindowUs = 200;
constexpr int kClosedLoopOutstanding = 4 * kMaxBatch;
constexpr int kClosedLoopWindows = 5;
// A queue deep enough to ride out a scheduling stall of a few hundred ms
// at the fixed rates without shedding; overload shows as missed latency.
constexpr int kMaxQueueDepth = 16384;
// Set-up repeats of a full run; run.py pools them with those of separate
// set-up-only runs.
constexpr int kSetupRepeats = 5;
// Share of --seconds in the fixed-rate phase, and the training time the
// traced re-drive may take before it stops at the end of a month.
constexpr double kOpenShare = 0.30;
constexpr double kTracedTrainShare = 0.35;
// The refresh thread cycles through the three training months that end at
// the last training month.
constexpr int kRefreshMonths = 3;
// Busy time each snapshot/index replay runs per request kind (traced run).
constexpr double kReplaySeconds = 0.2;
// On the exact workloads every fifth refresh version stays alive until its
// answers are checked against the exact key; answers of the other versions
// are checked for status only. Holding all of them would fill peak memory
// with snapshots the system itself has already released.
constexpr int64_t kCheckedVersionStride = 5;

// ---- obs registry deltas ---------------------------------------------------

struct HistMark {
  double sum = 0.0;
  int64_t count = 0;
};

HistMark MarkHistogram(const char* name) {
  const um::obs::Histogram* h =
      um::obs::MetricRegistry::Global()->FindHistogram(name);
  return h == nullptr ? HistMark{} : HistMark{h->sum(), h->count()};
}

HistMark HistogramSince(const char* name, const HistMark& before) {
  const HistMark now = MarkHistogram(name);
  return {now.sum - before.sum, now.count - before.count};
}

double MeanSince(const char* name, const HistMark& before) {
  const HistMark d = HistogramSince(name, before);
  return d.count > 0 ? d.sum / static_cast<double>(d.count) : 0.0;
}

int64_t CounterValue(const char* name) {
  const um::obs::Counter* c =
      um::obs::MetricRegistry::Global()->FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Resident set size now, from /proc/self/statm (resident pages).
double CurrentRssMb() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    long size = 0;
    if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) pages = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

std::string Exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---- configuration ---------------------------------------------------------

um::data::SplitConfig SplitConfig() {
  um::data::SplitConfig split;
  split.window.max_seq_len = 20;  // the books truncation length
  return split;
}

// bbcNCE, Adam, batch 256, two training threads, one epoch per month.
um::core::EngineConfig EngineConfigFor(const WorkloadSpec& spec) {
  um::core::EngineConfig ec;
  ec.model.embedding_dim = 16;
  ec.model.extractor = um::model::ContextExtractor::kNone;
  ec.model.aggregator = um::model::Aggregator::kMean;
  ec.model.temperature = 0.1667f;
  ec.train.loss = um::loss::LossKind::kBbcNce;
  ec.train.optimizer = "adam";
  ec.train.batch_size = 256;
  ec.train.epochs_per_month = 1;
  ec.train.num_threads = 2;
  ec.split = SplitConfig();
  ec.index = spec.index;
  return ec;
}

// ---- set-up ----------------------------------------------------------------

struct Data {
  um::data::InteractionLog log;
  um::data::DatasetSplits splits;
  std::unique_ptr<um::eval::EvalProtocol> protocol;
  um::model::TwoTowerConfig model;  // num_items filled in
};

// Data generation, splits, the evaluation protocol and model init: what a
// user waits for before the first training step.
std::unique_ptr<Data> SetUp(const WorkloadSpec& spec, uint64_t seed,
                            double* seconds) {
  const Clock::time_point t0 = Clock::now();
  auto data = std::make_unique<Data>();
  um::data::SyntheticConfig cfg = um::data::BooksPreset();
  if (spec.num_items > 0) cfg.num_items = spec.num_items;
  cfg.seed = seed;
  data->log = um::data::GenerateSynthetic(cfg);
  data->splits = um::data::MakeSplits(data->log, SplitConfig());
  um::eval::ProtocolConfig protocol;
  protocol.top_n = 10;
  protocol.num_negatives = 99;
  data->protocol = std::make_unique<um::eval::EvalProtocol>(
      um::eval::EvalProtocol::Build(data->splits, protocol));
  data->model = EngineConfigFor(spec).model;
  data->model.num_items = data->log.num_items();
  const um::model::TwoTowerModel model(data->model);
  *seconds = MsBetween(t0, Clock::now()) / 1000.0;
  return data;
}

// ---- training --------------------------------------------------------------

struct TrainPass {
  std::vector<double> month_rates;  // samples/s of each trained month
  int64_t steps = 0;
  double ir_ndcg = 0.0;
  double ut_ndcg = 0.0;
};

void Evaluate(const Data& data, const um::model::TwoTowerModel& model,
              TrainPass* pass) {
  const um::eval::Evaluator evaluator(&data.splits, data.protocol.get());
  const um::eval::EvalResult res = evaluator.Evaluate(model);
  pass->ir_ndcg = res.ir.ndcg;
  pass->ut_ndcg = res.ut.ndcg;
}

// Trainer::TrainMonths on a fresh model, driven one TrainMonth at a time
// (the same loop) so each month is timed on its own: the median month
// shrugs off a burst of interference that a whole-pass time would absorb.
um::Status TrainOnce(const Data& data, const um::train::TrainConfig& tc,
                     TrainPass* pass) {
  um::model::TwoTowerModel model(data.model);
  um::train::Trainer trainer(&model, &data.splits, tc);
  for (int32_t month = 0; month < data.splits.test_month; ++month) {
    const int64_t records0 = trainer.records_processed();
    const Clock::time_point t0 = Clock::now();
    UNIMATCH_RETURN_IF_ERROR(trainer.TrainMonth(month));
    const double ms = MsBetween(t0, Clock::now());
    const int64_t records = trainer.records_processed() - records0;
    if (records > 0) {
      pass->month_rates.push_back(static_cast<double>(records) / (ms / 1000.0));
    }
  }
  pass->steps = trainer.total_steps();
  Evaluate(data, model, pass);
  return um::Status::OK();
}

// ---- refreshes -------------------------------------------------------------

struct Refresh {
  bool ok = false;
  double fit_ms = 0.0;
  double build_ms = 0.0;
  double publish_ms = 0.0;
  double total_s() const { return (fit_ms + build_ms + publish_ms) / 1000.0; }
};

// ---- snapshot query / index search replay (traced run) ---------------------

struct Replay {
  double query_us = 0.0;   // EngineSnapshot::Multi* per query
  double search_us = 0.0;  // Index::MultiSearch per query
};

// Replays groups of `group` requests of one kind against the snapshot's
// batched entry point and against `index` (a fresh index of the configured
// kind over the same table), for kReplaySeconds of busy time each.
Replay ReplayKind(const um::serving::EngineSnapshot& snap,
                  const um::ann::Index& index, bool ir, int k, int64_t group,
                  const std::vector<int64_t>& servable, uint64_t seed,
                  Tracer* tracer) {
  um::Rng rng(seed);
  const um::Tensor queries = ir ? snap.user_embeddings() : snap.item_embeddings();
  const int64_t d = queries.dim(1);
  std::vector<int64_t> ids(static_cast<size_t>(group));
  std::vector<float> rows(static_cast<size_t>(group * d));
  std::vector<um::ann::SearchResult> found(static_cast<size_t>(group * k));
  std::vector<um::Result<std::vector<um::core::Scored>>> answers;
  Replay out;
  for (const bool search : {false, true}) {
    int64_t queries_done = 0;
    double busy_ms = 0.0;
    while (busy_ms < 1000.0 * kReplaySeconds) {
      for (auto& id : ids) {
        id = ir ? servable[rng.Uniform(servable.size())]
                : static_cast<int64_t>(rng.Uniform(snap.num_items()));
      }
      for (int64_t q = 0; search && q < group; ++q) {
        std::copy_n(queries.data() + ids[static_cast<size_t>(q)] * d, d,
                    rows.data() + q * d);
      }
      const Clock::time_point t0 = Clock::now();
      if (search) {
        index.MultiSearch(rows.data(), group, k,
                          um::ann::ThreadLocalSearchWorkspace(), found.data());
      } else if (ir) {
        snap.MultiRecommendItems(ids.data(), group, k, &answers);
      } else {
        snap.MultiTargetUsers(ids.data(), group, k, &answers);
      }
      const Clock::time_point t1 = Clock::now();
      tracer->Record(search ? "ann.search" : "serving.snapshot.query", t0, t1);
      busy_ms += MsBetween(t0, t1);
      queries_done += group;
    }
    (search ? out.search_us : out.query_us) =
        1000.0 * busy_ms / static_cast<double>(queries_done);
  }
  return out;
}

void PrintLayerTable(const std::string& workload, const Tracer& tracer) {
  std::fprintf(stderr, "\nper-layer self time, workload %s (traced run)\n",
               workload.c_str());
  std::fprintf(stderr, "  %-28s %10s %12s %12s %12s\n", "span", "count",
               "total ms", "self ms", "self us/call");
  for (const auto& [name, t] : tracer.LayerTimes()) {
    std::fprintf(stderr, "  %-28s %10lld %12.1f %12.1f %12.2f\n", name.c_str(),
                 static_cast<long long>(t.count), t.total_ms, t.self_ms,
                 t.count > 0 ? 1000.0 * t.self_ms / t.count : 0.0);
  }
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      // name, items, index, training passes, open rate, refresh rate,
      // closed-loop requests, refreshes, reserved cores
      {"books", 0, "brute_force", 4, 20000.0, 5000.0, 100000, 40, 2},
      {"large_catalog", 30000, "brute_force", 2, 1000.0, 1000.0, 10000, 40, 2},
      {"books_hnsw", 0, "hnsw", 4, 10000.0, 10000.0, 40000, 4, 3},
  };
  return kWorkloads;
}

RunReport RunWorkload(const RunOptions& opt) {
  RunReport report;
  const WorkloadSpec* spec_ptr = nullptr;
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == opt.workload) spec_ptr = &w;
  }
  UM_CHECK(spec_ptr != nullptr) << "unknown workload " << opt.workload;
  const WorkloadSpec& spec = *spec_ptr;
  const bool exact_index = spec.index == "brute_force";
  const um::core::EngineConfig engine_config = EngineConfigFor(spec);
  const int nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  Tracer tracer(opt.trace);
  auto fail = [&report](const std::string& why) {
    report.correct = false;
    report.problems.push_back(why);
  };
  // Resident and peak memory at each phase boundary, for the record.
  auto note_rss = [&report](const char* phase) {
    report.info.push_back({std::string("rss_mb.") + phase,
                           Exact(CurrentRssMb()) + " peak " + Exact(PeakRssMb())});
  };
  report.info = {
      {"workload", spec.name},
      {"seed", std::to_string(opt.seed)},
      {"seconds", Exact(opt.seconds)},
      {"trace", opt.trace ? "1" : "0"},
      {"nproc", std::to_string(nproc)},
      {"kernel_backend",
       um::kernels::BackendName(um::kernels::ActiveBackend())},
      {"compiler", std::string("g++ ") + __VERSION__},
      {"build_type", PERFBENCH_BUILD_TYPE},
  };

  // ---- set-up, repeated; the first repeat's data is used ----
  std::vector<double> setup_s;
  std::unique_ptr<Data> data;
  const int setup_repeats =
      opt.setup_only > 0 ? opt.setup_only : kSetupRepeats;
  for (int r = 0; r < setup_repeats; ++r) {
    double s = 0.0;
    auto d = SetUp(spec, opt.seed, &s);
    setup_s.push_back(s);
    if (data == nullptr) {
      data = std::move(d);
    } else if (d->log.size() != data->log.size()) {
      fail("set-up is not deterministic for a seed");
    }
  }

  std::string samples;
  for (const double s : setup_s) {
    samples += (samples.empty() ? "" : ",") + Exact(s);
  }
  report.info.push_back({"setup_samples_s", samples});
  if (opt.setup_only > 0) {
    report.metrics = {{"setup_s", Median(setup_s), "s"}};
    return report;
  }
  note_rss("setup");

  // ---- training ----
  // The untraced run first trains spec.train_passes fresh models through
  // Trainer, timing each month; the traced run re-drives the steps layer by
  // layer instead. Each model is freed before the next, so peak memory holds
  // one trainer. Fit then trains the engine that serves, and every model
  // must reach exactly its NDCG.
  std::vector<double> month_rates;
  std::vector<TrainPass> passes;
  for (int p = 0; !opt.trace && p < spec.train_passes; ++p) {
    TrainPass& pass = passes.emplace_back();
    const um::Status st = TrainOnce(*data, engine_config.train, &pass);
    report.attempted += pass.steps;
    if (!st.ok()) {
      ++report.failed;
      fail("TrainMonth failed: " + st.ToString());
      return report;
    }
    month_rates.insert(month_rates.end(), pass.month_rates.begin(),
                       pass.month_rates.end());
  }
  TrainLayers traced_train;
  if (opt.trace) {
    traced_train = RunTracedTraining(data->splits, data->model,
                                     engine_config.train,
                                     kTracedTrainShare * opt.seconds,
                                     &tracer);
    report.attempted += traced_train.steps;
    report.failed += traced_train.failed_steps;
    if (traced_train.failed_steps > 0) fail("non-finite loss in traced training");
    if (traced_train.all_months) {
      // The re-driven tape steps must train the model Fit trains.
      Evaluate(*data, *traced_train.model, &passes.emplace_back());
    }
    traced_train.model.reset();
    report.info.push_back(
        {"traced_train_all_months", traced_train.all_months ? "1" : "0"});
  }

  auto engine = std::make_unique<um::core::UniMatchEngine>(engine_config);
  const int64_t fit_steps0 = CounterValue("train.steps");
  const HistMark fit_month0 = MarkHistogram("train.month.ms");
  const um::Status fit_status = engine->Fit(data->log);
  report.attempted += CounterValue("train.steps") - fit_steps0;
  if (!fit_status.ok()) {
    ++report.failed;
    fail("Fit failed: " + fit_status.ToString());
    return report;
  }
  const double fit_train_ms = HistogramSince("train.month.ms", fit_month0).sum;
  const int64_t fit_steps = CounterValue("train.steps") - fit_steps0;
  TrainPass fitted;
  Evaluate(*data, *engine->model(), &fitted);
  for (const TrainPass& pass : passes) {
    if (pass.ir_ndcg != fitted.ir_ndcg || pass.ut_ndcg != fitted.ut_ndcg) {
      fail("NDCG differs between training runs of one seed");
    }
  }
  report.info.push_back({"ir_ndcg10", Exact(fitted.ir_ndcg)});
  report.info.push_back({"ut_ndcg10", Exact(fitted.ut_ndcg)});

  note_rss("train");

  // ---- serving bring-up ----
  std::vector<int64_t> servable;
  {
    const auto& histories = engine->splits()->histories;
    for (size_t u = 0; u < histories.size(); ++u) {
      if (!histories[u].empty()) servable.push_back(static_cast<int64_t>(u));
    }
  }
  const int64_t num_items = data->log.num_items();
  um::serving::SnapshotPublisher publisher;
  ExactKeys keys;
  {
    auto snap = um::serving::EngineSnapshot::FromEngine(*engine, 1);
    if (!snap.ok()) {
      fail("FromEngine failed: " + snap.status().ToString());
      return report;
    }
    keys.AddSnapshot(*snap);
    publisher.Publish(*snap);
  }
  um::serving::FrontendConfig fc;
  fc.num_threads = std::max(1, nproc - spec.reserved_cores);
  fc.max_batch = kMaxBatch;
  fc.batch_window_us = kBatchWindowUs;
  fc.max_queue_depth = kMaxQueueDepth;
  auto frontend =
      std::make_unique<um::serving::ServingFrontend>(fc, &publisher);
  const uint64_t stream_seed = opt.seed * 0x9E3779B97F4A7C15ULL;
  int64_t seq = 0;
  {
    RequestStream warm(stream_seed + 0, servable, num_items);
    const PhaseResult w =
        RunClosedLoop(frontend.get(), &warm, kMaxBatch, 4 * kMaxBatch, seq);
    seq += w.sent;
    for (const Answer& a : w.answers) {
      if (!a.ok) fail("warm-up request failed");
    }
  }

  note_rss("bring_up");

  // ---- phase 1: fixed rate ----
  const HistMark queue0 = MarkHistogram("serving.frontend.stage.queue.ms");
  const HistMark exec0 = MarkHistogram("serving.frontend.stage.execute.ms");
  const HistMark occ0 = MarkHistogram("serving.frontend.batch.occupancy");
  const HistMark group0 =
      MarkHistogram("serving.frontend.batch.exec_group.size");
  const int64_t full0 = CounterValue("serving.frontend.batch.flush_full");
  const int64_t window0 = CounterValue("serving.frontend.batch.flush_window");
  const int64_t acquires0 = um::BufferPool::Global()->stats().acquires;
  RequestStream open_stream(stream_seed + 1, servable, num_items);
  const PhaseResult open = RunOpenLoop(
      frontend.get(), &open_stream, spec.open_rate, kOpenShare * opt.seconds,
      /*until=*/nullptr, Keep::kAnswersAndResults, seq, &tracer);
  seq += open.sent;
  const double queue_ms = MeanSince("serving.frontend.stage.queue.ms", queue0);
  const double execute_ms =
      MeanSince("serving.frontend.stage.execute.ms", exec0);
  const double occupancy =
      MeanSince("serving.frontend.batch.occupancy", occ0);
  const double group_size =
      MeanSince("serving.frontend.batch.exec_group.size", group0);
  const int64_t full = CounterValue("serving.frontend.batch.flush_full") - full0;
  const int64_t windowed =
      CounterValue("serving.frontend.batch.flush_window") - window0;
  const double acquires_per_request =
      static_cast<double>(um::BufferPool::Global()->stats().acquires -
                          acquires0) /
      std::max<double>(1.0, static_cast<double>(open.sent));

  note_rss("fixed_rate");

  // ---- phase 2 (traced run only): closed loop, in windows ----
  // Capacity moved 35% between identical runs while its windows agreed
  // within a run, so it is a per-layer diagnostic rather than a gated
  // end-to-end metric.
  RequestStream closed_stream(stream_seed + 2, servable, num_items);
  std::vector<PhaseResult> closed;
  std::vector<double> window_qps;
  for (int w = 0; opt.trace && w < kClosedLoopWindows; ++w) {
    closed.push_back(RunClosedLoop(frontend.get(), &closed_stream,
                                   kClosedLoopOutstanding,
                                   spec.closed_requests / kClosedLoopWindows,
                                   seq));
    seq += closed.back().sent;
    window_qps.push_back(static_cast<double>(closed.back().answered_ok) /
                         closed.back().seconds);
  }

  // ---- phase 3: a fixed number of refreshes under fixed-rate load ----
  const HistMark month0 = MarkHistogram("train.month.ms");
  const HistMark rebuild0 = MarkHistogram("core.index.rebuild.ms");
  const HistMark hnsw0 = MarkHistogram("ann.hnsw.build.ms");
  std::vector<Refresh> refreshes;
  std::vector<std::shared_ptr<const um::serving::EngineSnapshot>> published;
  std::atomic<bool> refreshed{false};
  std::thread refresher([&] {
    const int32_t first_month = data->splits.test_month - kRefreshMonths;
    int64_t version = 1;
    for (int i = 0; i < spec.refreshes; ++i) {
      Refresh r;
      const Clock::time_point t0 = Clock::now();
      um::Status st;
      {
        ScopedSpan span(&tracer, "core.fit_incremental_month");
        st = engine->FitIncrementalMonth(data->log,
                                         first_month + i % kRefreshMonths);
      }
      const Clock::time_point t1 = Clock::now();
      um::Result<std::shared_ptr<const um::serving::EngineSnapshot>> snap =
          um::Status::Internal("not built");
      if (st.ok()) {
        ScopedSpan span(&tracer, "serving.snapshot.from_engine");
        snap = um::serving::EngineSnapshot::FromEngine(*engine, ++version);
      }
      const Clock::time_point t2 = Clock::now();
      if (snap.ok()) {
        ScopedSpan span(&tracer, "serving.publish");
        publisher.Publish(*snap);
      }
      const Clock::time_point t3 = Clock::now();
      r.ok = st.ok() && snap.ok();
      r.fit_ms = MsBetween(t0, t1);
      r.build_ms = MsBetween(t1, t2);
      r.publish_ms = MsBetween(t2, t3);
      if (snap.ok() && exact_index && version % kCheckedVersionStride == 0) {
        published.push_back(*snap);
      }
      refreshes.push_back(r);
      if (!r.ok) break;
    }
    refreshed.store(true);
  });
  RequestStream refresh_stream(stream_seed + 3, servable, num_items);
  const PhaseResult during = RunOpenLoop(
      frontend.get(), &refresh_stream, spec.refresh_rate, /*seconds=*/0.0,
      &refreshed, exact_index ? Keep::kAnswers : Keep::kCounts, seq,
      &tracer);
  refresher.join();
  frontend->Drain();
  frontend.reset();
  // Peak memory of the workload itself; the answer checks below allocate
  // their keys afterwards.
  const double peak_rss_mb = PeakRssMb();
  note_rss("refresh");
  const HistMark month_d = HistogramSince("train.month.ms", month0);
  const HistMark rebuild_d = HistogramSince("core.index.rebuild.ms", rebuild0);
  const HistMark hnsw_d = HistogramSince("ann.hnsw.build.ms", hnsw0);
  for (const auto& snap : published) keys.AddSnapshot(snap);
  std::vector<double> refresh_s;
  for (const Refresh& r : refreshes) {
    ++report.attempted;
    if (!r.ok) {
      ++report.failed;
      fail("a refresh failed");
    } else {
      refresh_s.push_back(r.total_s());
    }
  }

  // ---- answer checks ----
  std::vector<const Answer*> need_keys;
  for (const Answer& a : open.answers) need_keys.push_back(&a);
  if (exact_index) {
    for (const PhaseResult& p : closed) {
      for (const Answer& a : p.answers) need_keys.push_back(&a);
    }
    for (const Answer& a : during.answers) need_keys.push_back(&a);
  }
  keys.Prepare(need_keys);
  int64_t wrong = 0;
  int64_t checked_exactly = 0;
  auto check = [&](const Answer& a) {
    ++report.attempted;
    if (!a.ok) {
      ++report.failed;
      return false;
    }
    if (!exact_index || !keys.Holds(a.version)) return true;
    ++checked_exactly;
    if (DigestOf(keys.Key(a)) != a.digest) {
      ++report.failed;
      ++wrong;
      return false;
    }
    return true;
  };
  std::vector<RequestOutcome> outcomes;
  std::vector<double> latencies, lags, recalls, submit_us, service_ms;
  for (const Answer& a : open.answers) {
    const bool right = check(a);
    outcomes.push_back({a.ok, right, a.latency_ms});
    lags.push_back(a.lag_ms);
    submit_us.push_back(a.submit_us);
    if (!a.ok) continue;
    latencies.push_back(a.latency_ms);
    service_ms.push_back(a.service_ms);
    recalls.push_back(RecallAgainstKey(a.results, keys.Key(a)));
  }
  for (const PhaseResult& p : closed) {
    for (const Answer& a : p.answers) check(a);
  }
  for (const Answer& a : during.answers) check(a);
  if (during.answers.empty()) {
    // Approximate answers get no key check: count the refusals only.
    report.attempted += during.sent;
    report.failed += during.sent - during.answered_ok;
  }
  if (wrong > 0) {
    fail(std::to_string(wrong) + " answers differ from the exact key");
  }
  report.info.push_back({"answers_checked_exactly", std::to_string(checked_exactly)});
  std::sort(latencies.begin(), latencies.end());
  std::sort(lags.begin(), lags.end());
  const double lag_p99_ms = PercentileSorted(lags, 99.0);
  const double lag_max_ms = lags.empty() ? 0.0 : lags.back();
  report.info.push_back({"generator_lag_p99_ms", Exact(lag_p99_ms)});
  report.info.push_back({"generator_lag_max_ms", Exact(lag_max_ms)});

  // ---- end-to-end metrics ----
  const double train_rate =
      opt.trace ? (traced_train.seconds > 0.0
                       ? traced_train.records / traced_train.seconds
                       : 0.0)
                : Median(month_rates);
  std::vector<Metric> e2e = {
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"train_samples_per_s", train_rate, "samples/s"},
      {"ir_ndcg10", fitted.ir_ndcg, "ratio"},
      {"ut_ndcg10", fitted.ut_ndcg, "ratio"},
      {"serve_p50_ms", PercentileSorted(latencies, 50.0), "ms"},
      {"serve_slo_pct", SloPercent(outcomes, kSloLimitMs), "%"},
      {"serve_recall", Mean(recalls), "ratio"},
      {"refresh_s", Median(refresh_s), "s"},
  };
  if (!opt.trace) {
    report.metrics = std::move(e2e);
    return report;
  }
  report.traced_end_to_end = std::move(e2e);

  // ---- traced run: replays and per-layer metrics ----
  const auto snap = publisher.Current();
  const int64_t g = std::max<int64_t>(1, std::llround(group_size));
  auto item_index = engine->MakeConfiguredIndex();
  auto user_index = engine->MakeConfiguredIndex();
  std::vector<double> replay_build_ms;
  for (const bool items : {true, false}) {
    const Clock::time_point t0 = Clock::now();
    const um::Status st =
        (items ? item_index : user_index)
            ->Build(items ? snap->item_embeddings() : snap->user_embeddings());
    const Clock::time_point t1 = Clock::now();
    tracer.Record("ann.build", t0, t1);
    replay_build_ms.push_back(MsBetween(t0, t1));
    if (!st.ok()) fail("replay index build failed: " + st.ToString());
  }
  const Replay ir = ReplayKind(*snap, *item_index, true, 10, g, servable,
                               stream_seed + 4, &tracer);
  const Replay ut = ReplayKind(*snap, *user_index, false, 10, g, servable,
                               stream_seed + 5, &tracer);
  const Replay aud = ReplayKind(*snap, *user_index, false, 100, g, servable,
                                stream_seed + 6, &tracer);

  const auto layers = tracer.LayerTimes();
  auto per_step = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() || traced_train.steps == 0
               ? 0.0
               : it->second.total_ms / static_cast<double>(traced_train.steps);
  };
  const double step_ms = per_step("train.step");
  double layer_sum = 0.0;
  for (const char* name :
       {"data.batch_wait", "model.user_tower", "model.item_tower",
        "loss.forward", "nn.backward", "train.shard_backward",
        "nn.optimizer"}) {
    layer_sum += per_step(name);
  }
  const double untraced_step_ms =
      fit_steps > 0 ? fit_train_ms / static_cast<double>(fit_steps) : 0.0;
  const double service = Mean(service_ms);
  const double stage_gap_pct =
      service > 0.0 ? 100.0 * (queue_ms + execute_ms - service) / service
                    : 0.0;
  const double unattributed_pct =
      step_ms > 0.0 ? 100.0 * (step_ms - layer_sum) / step_ms : 0.0;
  // Backends that record builds (HNSW) give the build time inside the
  // refreshes; the exact index records none, so its replayed build stands in.
  const double ann_build_ms =
      hnsw_d.count > 0 ? hnsw_d.sum / static_cast<double>(hnsw_d.count)
                       : Mean(replay_build_ms);
  std::vector<double> fit_ms, snapshot_ms, publish_us;
  for (const Refresh& r : refreshes) {
    fit_ms.push_back(r.fit_ms);
    snapshot_ms.push_back(r.build_ms);
    publish_us.push_back(1000.0 * r.publish_ms);
  }
  auto per = [](const HistMark& d) {
    return d.count > 0 ? d.sum / static_cast<double>(d.count) : 0.0;
  };
  report.metrics = {
      {"data.batch_wait_ms", per_step("data.batch_wait"), "ms"},
      {"model.user_tower_ms", per_step("model.user_tower"), "ms"},
      {"model.item_tower_ms", per_step("model.item_tower"), "ms"},
      {"loss.forward_ms", per_step("loss.forward"), "ms"},
      {"nn.backward_ms", per_step("nn.backward"), "ms"},
      {"train.shard_backward_ms", per_step("train.shard_backward"), "ms"},
      {"nn.optimizer_ms", per_step("nn.optimizer"), "ms"},
      {"train.step_ms", step_ms, "ms"},
      {"train.unattributed_pct", unattributed_pct, "%"},
      {"train.step_residual_pct",
       untraced_step_ms > 0.0
           ? 100.0 * std::fabs(step_ms - untraced_step_ms) / untraced_step_ms
           : 0.0,
       "%"},
      {"nn.item_grad_rows", traced_train.item_grad_rows, "count"},
      {"tensor.pool_acquires_per_step", traced_train.pool_acquires_per_step,
       "count"},
      {"train.prefetch_hit_pct", traced_train.prefetch_hit_pct, "%"},
      {"serving.frontend.submit_us", Mean(submit_us), "us"},
      {"serving.frontend.queue_ms", queue_ms, "ms"},
      {"serving.frontend.execute_ms", execute_ms, "ms"},
      {"serving.frontend.service_ms", service, "ms"},
      {"serving.frontend.stage_gap_pct", std::fabs(stage_gap_pct), "%"},
      {"serving.frontend.batch_occupancy", occupancy, "count"},
      {"serving.frontend.exec_group_size", group_size, "count"},
      {"serving.frontend.flush_full_pct",
       full + windowed > 0
           ? 100.0 * static_cast<double>(full) /
                 static_cast<double>(full + windowed)
           : 0.0,
       "%"},
      {"serving.snapshot.query_us.ir", ir.query_us, "us"},
      {"serving.snapshot.query_us.ut", ut.query_us, "us"},
      {"serving.snapshot.query_us.audience", aud.query_us, "us"},
      {"ann.search_us.ir", ir.search_us, "us"},
      {"ann.search_us.ut", ut.search_us, "us"},
      {"ann.search_us.audience", aud.search_us, "us"},
      {"serving.snapshot.self_us.ir", ir.query_us - ir.search_us, "us"},
      {"serving.snapshot.self_us.ut", ut.query_us - ut.search_us, "us"},
      {"serving.snapshot.self_us.audience", aud.query_us - aud.search_us,
       "us"},
      {"tensor.pool_acquires_per_request", acquires_per_request, "count"},
      {"core.fit_month_ms", Mean(fit_ms), "ms"},
      {"train.month_ms", per(month_d), "ms"},
      {"core.index_rebuild_ms", per(rebuild_d), "ms"},
      {"ann.build_ms", ann_build_ms, "ms"},
      {"ann.builds_per_refresh",
       refresh_s.empty() ? 0.0
                         : static_cast<double>(hnsw_d.count) /
                               static_cast<double>(refresh_s.size()),
       "count"},
      {"serving.snapshot.build_ms", Mean(snapshot_ms), "ms"},
      {"serving.publish_us", Mean(publish_us), "us"},
      {"serve_p99_ms", PercentileSorted(latencies, 99.0), "ms"},
      {"serve_p999_ms", PercentileSorted(latencies, 99.9), "ms"},
      {"serve.latency_samples", static_cast<double>(latencies.size()),
       "count"},
      {"serve.capacity_qps", Median(window_qps), "req/s"},
      {"bench.generator_lag_p99_ms", lag_p99_ms, "ms"},
      {"bench.generator_lag_max_ms", lag_max_ms, "ms"},
  };
  const TailEstimate tail = HighestSupportedPercentile(latencies);
  std::fprintf(stderr,
               "serving tail: p%g = %.3f ms over %lld samples (%lld beyond); "
               "generator lag p99 %.3f ms, max %.3f ms\n",
               tail.percentile, tail.value,
               static_cast<long long>(tail.samples),
               static_cast<long long>(tail.beyond), lag_p99_ms, lag_max_ms);
  std::fprintf(stderr,
               "training step: traced %.3f ms, layers sum %.3f ms (%.1f%% "
               "unattributed), untraced Trainer %.3f ms/step\n",
               step_ms, layer_sum, unattributed_pct, untraced_step_ms);
  std::fprintf(stderr,
               "serving: queue %.4f + execute %.4f ms vs mean service %.4f ms "
               "(%+.1f%%)\n",
               queue_ms, execute_ms, service, stage_gap_pct);
  PrintLayerTable(spec.name, tracer);
  if (!opt.trace_path.empty() && !tracer.WriteChromeTrace(opt.trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace_path.c_str());
  }
  return report;
}

}  // namespace perfbench
