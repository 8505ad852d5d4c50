// unimatch_cli — drive the whole library from the command line on CSV data.
//
// Subcommands:
//   synth      generate a demo purchase log as CSV
//   stats      dataset statistics of a CSV log (Table III style)
//   train      fit a model on a CSV log and save a checkpoint
//   recommend  item recommendations for a user (by external id)
//   target     user targeting for an item (by external id)
//   eval       train + report Recall/NDCG on the held-out test month
//
// Examples:
//   example_unimatch_cli synth --preset e_comp --out /tmp/log.csv
//   example_unimatch_cli stats --data /tmp/log.csv
//   example_unimatch_cli train --data /tmp/log.csv --ckpt /tmp/m.ckpt
//   example_unimatch_cli recommend --data /tmp/log.csv --ckpt /tmp/m.ckpt --user u17
//   example_unimatch_cli target --data /tmp/log.csv --ckpt /tmp/m.ckpt --item i5
//   example_unimatch_cli eval --data /tmp/log.csv --loss infonce

#include <cstdio>
#include <iostream>

#include "src/core/unimatch.h"
#include "src/data/csv_loader.h"
#include "src/data/synthetic.h"
#include "src/eval/evaluator.h"
#include "src/util/file_util.h"
#include "src/util/flags.h"
#include "src/util/string_util.h"
#include "src/util/table_printer.h"

using namespace unimatch;

namespace {

int Fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  return 1;
}

// Parses the value of --`flag` (or `fallback` when absent) with `parse`;
// an unknown value is an error that names the flag.
template <typename T>
Result<T> ParseFlag(const ArgParser& args, const std::string& flag,
                    const std::string& fallback,
                    Result<T> (*parse)(const std::string&)) {
  Result<T> value = parse(args.GetString(flag, fallback));
  if (!value.ok()) {
    return Status::InvalidArgument("--" + flag + ": " +
                                   value.status().message());
  }
  return value;
}

Result<data::CsvFormat::TimeUnit> TimeUnitFromString(const std::string& s) {
  if (s == "day") return data::CsvFormat::TimeUnit::kDayIndex;
  if (s == "unix") return data::CsvFormat::TimeUnit::kUnixSeconds;
  if (s == "iso") return data::CsvFormat::TimeUnit::kIsoDate;
  return Status::InvalidArgument("unknown time unit: " + s +
                                 " (expected day, unix or iso)");
}

Result<data::CsvFormat> FormatFromArgs(const ArgParser& args) {
  data::CsvFormat fmt;
  UNIMATCH_ASSIGN_OR_RETURN(
      fmt.time_unit, ParseFlag(args, "time-unit", "day", &TimeUnitFromString));
  fmt.has_header = args.GetBool("header", true);
  fmt.skip_bad_rows = args.GetBool("skip-bad-rows", false);
  return fmt;
}

Result<data::LoadedLog> LoadData(const ArgParser& args) {
  const std::string path = args.GetString("data");
  if (path.empty()) return Status::InvalidArgument("--data is required");
  UNIMATCH_ASSIGN_OR_RETURN(const data::CsvFormat fmt, FormatFromArgs(args));
  return data::LoadCsvLog(path, fmt);
}

Result<core::EngineConfig> EngineConfigFromArgs(const ArgParser& args) {
  core::EngineConfig config;
  config.model.embedding_dim = args.GetInt("dim", 16);
  config.model.temperature =
      static_cast<float>(args.GetDouble("temperature", 0.15));
  UNIMATCH_ASSIGN_OR_RETURN(
      config.model.extractor,
      ParseFlag(args, "extractor", "none", &model::ContextExtractorFromString));
  UNIMATCH_ASSIGN_OR_RETURN(
      config.model.aggregator,
      ParseFlag(args, "aggregator", "mean", &model::AggregatorFromString));
  UNIMATCH_ASSIGN_OR_RETURN(
      config.train.loss,
      ParseFlag(args, "loss", "bbcnce", &loss::LossKindFromString));
  config.train.batch_size = static_cast<int>(args.GetInt("batch", 64));
  config.train.epochs_per_month =
      static_cast<int>(args.GetInt("epochs", 2));
  config.train.learning_rate =
      static_cast<float>(args.GetDouble("lr", 0.005));
  config.split.window.max_seq_len =
      static_cast<int>(args.GetInt("max-seq-len", 20));
  config.index = args.GetString("index", "brute_force");
  return config;
}

int CmdSynth(const ArgParser& args) {
  auto preset = data::PresetByName(args.GetString("preset", "e_comp"));
  if (!preset.ok()) return Fail(preset.status().ToString());
  data::SyntheticConfig cfg = *preset;
  cfg.num_users = args.GetInt("users", cfg.num_users / 2);
  cfg.target_interactions =
      args.GetInt("interactions", cfg.target_interactions / 2);
  const std::string out = args.GetString("out", "/tmp/unimatch_log.csv");
  const data::InteractionLog log = data::GenerateSynthetic(cfg);
  std::string csv = "user_id,item_id,day\n";
  for (const auto& r : log.records()) {
    csv += StrFormat("u%lld,i%lld,%d\n", (long long)r.user, (long long)r.item,
                     r.day);
  }
  if (const Status st = WriteFileAtomic(out, csv); !st.ok()) {
    return Fail(st.ToString());
  }
  std::printf("wrote %lld records to %s\n", (long long)log.size(),
              out.c_str());
  return 0;
}

int CmdStats(const ArgParser& args) {
  auto loaded = LoadData(args);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  const data::LogStats s = loaded->log.ComputeStats();
  TablePrinter table("dataset statistics");
  table.SetHeader({"metric", "value"});
  table.AddRow({"# users", WithCommas(s.num_users)});
  table.AddRow({"# items", WithCommas(s.num_items)});
  table.AddRow({"# interactions", WithCommas(s.num_interactions)});
  table.AddRow({"time-span (months)", StrFormat("%d", s.span_months)});
  table.AddRow({"avg. #actions/user", FixedDigits(s.avg_actions_per_user, 1)});
  table.AddRow({"avg. #actions/item", FixedDigits(s.avg_actions_per_item, 1)});
  table.AddRow({"skipped rows", WithCommas(loaded->skipped_rows)});
  table.Print(std::cout);
  return 0;
}

int CmdTrain(const ArgParser& args) {
  auto loaded = LoadData(args);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  auto config = EngineConfigFromArgs(args);
  if (!config.ok()) return Fail(config.status().ToString());
  core::UniMatchEngine engine(*config);
  Status st = engine.Fit(loaded->log);
  if (!st.ok()) return Fail(st.ToString());
  const std::string ckpt = args.GetString("ckpt");
  if (!ckpt.empty()) {
    st = engine.SaveCheckpoint(ckpt);
    if (!st.ok()) return Fail(st.ToString());
    std::printf("checkpoint written to %s\n", ckpt.c_str());
  }
  std::printf("trained on %lld samples (%lld parameters)\n",
              (long long)engine.splits()->train.size(),
              (long long)engine.model()->NumParameters());
  return 0;
}

// Shared engine bring-up for recommend/target/eval: loads data, fits (or
// restores a checkpoint to skip re-optimizing embeddings).
Result<std::unique_ptr<core::UniMatchEngine>> BringUp(
    const ArgParser& args, const data::LoadedLog& loaded) {
  UNIMATCH_ASSIGN_OR_RETURN(const core::EngineConfig config,
                            EngineConfigFromArgs(args));
  auto engine = std::make_unique<core::UniMatchEngine>(config);
  const std::string ckpt = args.GetString("ckpt");
  UNIMATCH_RETURN_IF_ERROR(engine->Fit(loaded.log));
  if (!ckpt.empty()) {
    UNIMATCH_RETURN_IF_ERROR(engine->LoadCheckpoint(ckpt));
  }
  return engine;
}

int CmdRecommend(const ArgParser& args) {
  auto loaded = LoadData(args);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  auto engine = BringUp(args, *loaded);
  if (!engine.ok()) return Fail(engine.status().ToString());
  const std::string user_name = args.GetString("user");
  auto user = loaded->users.Get(user_name);
  if (!user.ok()) return Fail("unknown user: " + user_name);
  auto rec =
      (*engine)->RecommendItems(*user, static_cast<int>(args.GetInt("n", 10)));
  if (!rec.ok()) return Fail(rec.status().ToString());
  TablePrinter table("recommendations for " + user_name);
  table.SetHeader({"rank", "item", "score"});
  for (size_t i = 0; i < rec->size(); ++i) {
    table.AddRow({StrFormat("%zu", i + 1), loaded->items.Name((*rec)[i].id),
                  FixedDigits((*rec)[i].score, 4)});
  }
  table.Print(std::cout);
  return 0;
}

int CmdTarget(const ArgParser& args) {
  auto loaded = LoadData(args);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  auto engine = BringUp(args, *loaded);
  if (!engine.ok()) return Fail(engine.status().ToString());
  const std::string item_name = args.GetString("item");
  auto item = loaded->items.Get(item_name);
  if (!item.ok()) return Fail("unknown item: " + item_name);
  auto users =
      (*engine)->TargetUsers(*item, static_cast<int>(args.GetInt("n", 10)));
  if (!users.ok()) return Fail(users.status().ToString());
  TablePrinter table("target audience for " + item_name);
  table.SetHeader({"rank", "user", "score"});
  for (size_t i = 0; i < users->size(); ++i) {
    table.AddRow({StrFormat("%zu", i + 1),
                  loaded->users.Name((*users)[i].id),
                  FixedDigits((*users)[i].score, 4)});
  }
  table.Print(std::cout);
  return 0;
}

int CmdEval(const ArgParser& args) {
  auto loaded = LoadData(args);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  auto engine = BringUp(args, *loaded);
  if (!engine.ok()) return Fail(engine.status().ToString());
  eval::ProtocolConfig pc;
  pc.top_n = static_cast<int>(args.GetInt("topn", 10));
  pc.num_negatives = static_cast<int>(args.GetInt("negatives", 99));
  const eval::EvalProtocol protocol =
      eval::EvalProtocol::Build(*(*engine)->splits(), pc);
  const eval::Evaluator evaluator((*engine)->splits(), &protocol);
  const eval::EvalResult ev = evaluator.Evaluate(*(*engine)->model());
  TablePrinter table("held-out test-month metrics");
  table.SetHeader({"task", "cases", StrFormat("Recall@%d (%%)", pc.top_n),
                   StrFormat("NDCG@%d (%%)", pc.top_n)});
  table.AddRow({"IR", WithCommas(ev.ir.num_cases),
                FixedDigits(100 * ev.ir.recall, 2),
                FixedDigits(100 * ev.ir.ndcg, 2)});
  table.AddRow({"UT", WithCommas(ev.ut.num_cases),
                FixedDigits(100 * ev.ut.recall, 2),
                FixedDigits(100 * ev.ut.ndcg, 2)});
  table.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: %s <synth|stats|train|recommend|target|eval> "
                 "[--flags]\n(see the header of this file for examples)\n",
                 argv[0]);
    return 1;
  }
  const std::string& cmd = args.positional()[0];
  int rc;
  if (cmd == "synth") {
    rc = CmdSynth(args);
  } else if (cmd == "stats") {
    rc = CmdStats(args);
  } else if (cmd == "train") {
    rc = CmdTrain(args);
  } else if (cmd == "recommend") {
    rc = CmdRecommend(args);
  } else if (cmd == "target") {
    rc = CmdTarget(args);
  } else if (cmd == "eval") {
    rc = CmdEval(args);
  } else {
    return Fail("unknown subcommand: " + cmd);
  }
  for (const auto& f : args.Unread()) {
    std::fprintf(stderr, "warning: unrecognized flag --%s\n", f.c_str());
  }
  return rc;
}
