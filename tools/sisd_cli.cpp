// sisd_cli — persistent mining sessions from the shell.
//
// Subcommands:
//   mine    start a session over a CSV file (--csv + --targets) or a
//           built-in paper scenario (--scenario), run iterations, print the
//           patterns found, and optionally --session-save a snapshot.
//   resume  restore a snapshot, run more iterations (the output continues
//           byte-identically from where the saved session stopped), and
//           save the grown session back.
//   export  flatten a snapshot's history / ranked lists to CSV, or
//           pretty-print the raw snapshot JSON.
//   optimal mine the provably-optimal location pattern with the parallel
//           branch-and-bound (search/optimal_search.hpp), optionally
//           measuring beam search's optimality gap (--compare-beam).
//   list    greedily mine an ordered subgroup list (SSD++-style MDL
//           miner, search/list_miner.hpp): each appended rule captures the
//           rows it matches first and routes them to its own local normal
//           model; everything else stays on the dataset-marginal default
//           rule. Resumable through the same snapshot format as mine.
//   append  grow a saved session's dataset with new CSV rows: the
//           condition pool refreshes incrementally and the session
//           rebases onto the grown data (rank-one constraint replay, no
//           cold refit) — the live-dataset workflow from the shell.
//
// Every datagen scenario and arbitrary user data are drivable end to end:
//   sisd_cli mine --scenario crime --iterations 3 --session-save s.json
//   sisd_cli mine --csv data.csv --targets price,rent --min-coverage 20
//   sisd_cli resume --session s.json --iterations 2
//   sisd_cli export --session s.json --history history.csv
//
// The session server (docs/PROTOCOL.md) is the separate sisd_serve binary.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.hpp"
#include "common/strings.hpp"
#include "core/export.hpp"
#include "core/session.hpp"
#include "data/append.hpp"
#include "data/csv.hpp"
#include "datagen/scenarios.hpp"
#include "model/background_model.hpp"
#include "search/optimal_search.hpp"
#include "search/si_evaluator.hpp"
#include "serialize/json.hpp"

namespace sisd {
namespace {

constexpr const char* kUsage = R"(sisd_cli — subjectively interesting subgroup discovery sessions

USAGE
  sisd_cli mine (--csv FILE --targets A[,B...] | --scenario NAME) [options]
  sisd_cli resume --session FILE [--iterations N] [--session-save OUT]
  sisd_cli export --session FILE [--history OUT.csv]
                  [--ranked OUT.csv [--iteration K]] [--json OUT.json]
  sisd_cli optimal (--csv FILE --targets A[,B...] | --scenario NAME)
                   [--max-depth N] [--min-coverage N] [--splits N]
                   [--threads N] [--time-budget S] [--gamma X] [--eta X]
                   [--no-bound] [--compare-beam]
  sisd_cli list (--csv FILE --targets A[,B...] | --scenario NAME |
                 --session FILE) [--rules N] [--list-alpha X]
                [--list-beta X] [--session-save OUT] [search options]
  sisd_cli append --session FILE --csv ROWS.csv [--iterations N]
                  [--session-save OUT]

MINE INPUT
  --csv FILE            CSV file with a header row (types are inferred)
  --targets A,B,...     numeric columns to model as real-valued targets;
                        every other column becomes a description attribute
  --scenario NAME       built-in generator: synthetic | crime | mammals |
                        water | gse (the paper's four datasets + synthetic)

MINE OPTIONS (defaults = the paper's Cortana settings)
  --iterations N        mining iterations to run (default 1)
  --session-save FILE   write the session snapshot after mining
  --location-only       mine location patterns only (no spread patterns)
  --spread-sparsity K   0 = dense spread direction, 2 = pair sweep (§III-C)
  --beam-width N        beam width (default 40)
  --max-depth N         max conditions per intention (default 4)
  --splits N            numeric split points per attribute (default 4)
  --top-k N             global ranked-list size (default 150)
  --min-coverage N      minimum subgroup size (default 2)
  --exclusions          add != set-exclusion conditions for categorical
                        attributes with 3+ levels (default: the paper's
                        Cortana alphabet, no exclusions)
  --time-budget SECONDS wall-clock search budget per iteration
  --threads N           scoring threads (0 = auto)
  --gamma X / --eta X   description-length parameters (default 0.1 / 1)
  --optimal             mine each iteration's location pattern with the
                        provably-optimal branch-and-bound instead of beam
                        search (keep --max-depth small, e.g. 2)

LIST
  Greedy MDL subgroup-list mining: up to --rules rules (default 3) are
  appended in order of normalized compression gain; each rule owns the
  rows it captures first (a local normal model per target), the default
  rule keeps the rest. --list-alpha / --list-beta weigh the per-condition
  and per-rule model cost (defaults 0.5 / 1). With --session FILE the
  list continues from the snapshot (byte-identical to never stopping);
  --session-save writes the grown session back. Search options
  (--beam-width, --max-depth, ...) shape the per-rule candidate search.

OPTIMAL
  One-shot provably-optimal location search (no session, no spread step):
  best-first branch-and-bound with the tight univariate SI bound, parallel
  across --threads workers. The result is the global optimum over the
  description language up to --max-depth (default 2). --no-bound disables
  pruning (pure best-first enumeration); --compare-beam also runs beam
  search with the same constraints and reports its optimality gap.

RESUME
  Restores the snapshot and continues mining; results are byte-identical
  to a session that never stopped. Saves back to --session-save when
  given, else to the --session file itself.

APPEND
  Restores the snapshot, appends the rows of --csv (header row required;
  columns must match the session's dataset schema), refreshes the
  condition pool incrementally from the session's own pool, and rebases
  the session onto the grown dataset: the background model's prior is
  recomputed on the grown targets and every assimilated constraint is
  replayed through rank-one factorization updates — bit-identical to a
  fresh session on the grown data fed the same history, without the cold
  refit. --iterations N mines further on the grown data; the session
  saves back to --session-save when given, else to the --session file.

EXPORT
  --history FILE        one CSV row per completed iteration
  --ranked FILE         the ranked top-k list of --iteration K (default:
                        the last iteration) as CSV
  --json FILE           the snapshot itself, pretty-printed
)";

struct Args {
  std::string command;
  std::vector<std::pair<std::string, std::string>> flags;
  std::vector<std::string> bare;

  const std::string* Find(const std::string& name) const {
    for (const auto& [key, value] : flags) {
      if (key == name) return &value;
    }
    return nullptr;
  }
};

/// Flags that take no value.
bool IsSwitch(const std::string& name) {
  return name == "--location-only" || name == "--exclusions" ||
         name == "--optimal" || name == "--no-bound" ||
         name == "--compare-beam" || name == "--help" || name == "-h";
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  if (argc < 2) return Status::InvalidArgument("missing subcommand");
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (!StartsWith(token, "--") && token != "-h") {
      args.bare.push_back(token);
      continue;
    }
    if (IsSwitch(token)) {
      args.flags.emplace_back(token, "");
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag " + token + " needs a value");
    }
    args.flags.emplace_back(token, argv[++i]);
  }
  return args;
}

/// Flags each subcommand accepts. A flag not on its subcommand's list is
/// a usage error (exit 2), not a silently ignored key-value pair.
Status ValidateFlags(const Args& args) {
  static const std::vector<std::string> kCommon = {"--help", "-h"};
  static const std::vector<std::string> kSearch = {
      "--beam-width", "--max-depth",    "--splits",  "--top-k",
      "--min-coverage", "--exclusions", "--time-budget", "--threads",
      "--gamma", "--eta"};
  static const std::vector<std::string> kInput = {"--csv", "--targets",
                                                  "--scenario"};
  std::vector<std::string> allowed = kCommon;
  auto add = [&allowed](const std::vector<std::string>& flags) {
    allowed.insert(allowed.end(), flags.begin(), flags.end());
  };
  if (args.command == "mine") {
    add(kInput);
    add(kSearch);
    add({"--iterations", "--session-save", "--location-only",
         "--spread-sparsity", "--optimal", "--list-alpha", "--list-beta"});
  } else if (args.command == "resume") {
    add({"--session", "--iterations", "--session-save"});
  } else if (args.command == "append") {
    add({"--session", "--csv", "--iterations", "--session-save"});
  } else if (args.command == "export") {
    add({"--session", "--history", "--ranked", "--iteration", "--json"});
  } else if (args.command == "optimal") {
    add(kInput);
    add(kSearch);
    add({"--no-bound", "--compare-beam"});
  } else if (args.command == "list") {
    add(kInput);
    add(kSearch);
    add({"--session", "--rules", "--list-alpha", "--list-beta",
         "--session-save", "--location-only", "--spread-sparsity"});
  } else {
    return Status::OK();  // unknown subcommands are reported separately
  }
  for (const auto& [flag, value] : args.flags) {
    if (std::find(allowed.begin(), allowed.end(), flag) == allowed.end()) {
      return Status::InvalidArgument("unknown flag " + flag +
                                     " for subcommand '" + args.command +
                                     "'");
    }
  }
  return Status::OK();
}

/// Default bounds of `FlagInt`: the range of `T`, clipped to `long long`
/// (so `size_t` flags accept exactly the non-negative values).
template <typename T>
constexpr long long kFlagMin =
    std::is_signed_v<T> ? std::numeric_limits<T>::min() : 0;
template <typename T>
constexpr long long kFlagMax = static_cast<long long>(
    std::min<unsigned long long>(std::numeric_limits<T>::max(),
                                 std::numeric_limits<long long>::max()));

/// Reads integer flag `name` as a `T` (`fallback` when absent). A value
/// outside [min, max] fails with InvalidArgument naming the flag instead
/// of narrowing silently into the field it configures.
template <typename T>
Result<T> FlagInt(const Args& args, const std::string& name, T fallback,
                  long long min = kFlagMin<T>, long long max = kFlagMax<T>) {
  const std::string* raw = args.Find(name);
  if (raw == nullptr) return fallback;
  std::optional<long long> parsed = ParseInt(*raw);
  if (!parsed.has_value()) {
    return Status::InvalidArgument(name + " expects an integer, got '" +
                                   *raw + "'");
  }
  if (*parsed < min || *parsed > max) {
    return Status::InvalidArgument(
        StrFormat("%s must be in [%lld, %lld], got %lld", name.c_str(), min,
                  max, *parsed));
  }
  return static_cast<T>(*parsed);
}

Result<double> FlagDouble(const Args& args, const std::string& name,
                          double fallback) {
  const std::string* raw = args.Find(name);
  if (raw == nullptr) return fallback;
  std::optional<double> parsed = ParseDouble(*raw);
  if (!parsed.has_value()) {
    return Status::InvalidArgument(name + " expects a number, got '" + *raw +
                                   "'");
  }
  return *parsed;
}

Result<core::MinerConfig> ConfigFromArgs(const Args& args) {
  core::MinerConfig config;
  SISD_ASSIGN_OR_RETURN(
      beam, FlagInt(args, "--beam-width", config.search.beam_width));
  config.search.beam_width = beam;
  SISD_ASSIGN_OR_RETURN(depth,
                        FlagInt(args, "--max-depth", config.search.max_depth));
  config.search.max_depth = depth;
  SISD_ASSIGN_OR_RETURN(
      splits, FlagInt(args, "--splits", config.search.num_split_points));
  config.search.num_split_points = splits;
  SISD_ASSIGN_OR_RETURN(top_k, FlagInt(args, "--top-k", config.search.top_k));
  config.search.top_k = top_k;
  SISD_ASSIGN_OR_RETURN(
      min_cov, FlagInt(args, "--min-coverage", config.search.min_coverage));
  config.search.min_coverage = min_cov;
  SISD_ASSIGN_OR_RETURN(budget,
                        FlagDouble(args, "--time-budget",
                                   config.search.time_budget_seconds));
  config.search.time_budget_seconds = budget;
  SISD_ASSIGN_OR_RETURN(threads,
                        FlagInt(args, "--threads", config.search.num_threads));
  config.search.num_threads = threads;
  SISD_ASSIGN_OR_RETURN(gamma, FlagDouble(args, "--gamma", config.dl.gamma));
  config.dl.gamma = gamma;
  SISD_ASSIGN_OR_RETURN(eta, FlagDouble(args, "--eta", config.dl.eta));
  config.dl.eta = eta;
  SISD_ASSIGN_OR_RETURN(sparsity, FlagInt(args, "--spread-sparsity",
                                          config.spread_sparsity));
  config.spread_sparsity = sparsity;
  SISD_ASSIGN_OR_RETURN(list_alpha,
                        FlagDouble(args, "--list-alpha",
                                   config.list_gain.alpha));
  config.list_gain.alpha = list_alpha;
  SISD_ASSIGN_OR_RETURN(list_beta,
                        FlagDouble(args, "--list-beta",
                                   config.list_gain.beta));
  config.list_gain.beta = list_beta;
  if (args.Find("--location-only") != nullptr) {
    config.mix = core::PatternMix::kLocationOnly;
  }
  if (args.Find("--exclusions") != nullptr) {
    config.search.include_exclusions = true;
  }
  if (args.Find("--optimal") != nullptr) {
    config.use_optimal_search = true;
  }
  return config;
}

Result<data::Dataset> LoadDataset(const Args& args) {
  const std::string* scenario = args.Find("--scenario");
  const std::string* csv = args.Find("--csv");
  if ((scenario != nullptr) == (csv != nullptr)) {
    return Status::InvalidArgument(
        "mine needs exactly one of --csv or --scenario");
  }
  if (scenario != nullptr) return datagen::MakeScenarioDataset(*scenario);
  const std::string* targets = args.Find("--targets");
  if (targets == nullptr) {
    return Status::InvalidArgument("--csv requires --targets");
  }
  SISD_ASSIGN_OR_RETURN(table, data::ReadCsvFile(*csv));
  std::vector<std::string> target_columns;
  for (const std::string& column : SplitString(*targets, ',')) {
    const std::string trimmed{TrimWhitespace(column)};
    if (!trimmed.empty()) target_columns.push_back(trimmed);
  }
  if (target_columns.empty()) {
    return Status::InvalidArgument("--targets names no columns");
  }
  return data::MakeDataset(table, target_columns, *csv);
}

void PrintIteration(size_t index, const core::IterationResult& iteration,
                    const data::DataTable& descriptions) {
  std::printf("iteration %zu (%zu candidates%s):\n", index,
              iteration.candidates_evaluated,
              iteration.hit_time_budget ? ", hit time budget" : "");
  std::printf("  location: %s\n",
              iteration.location.Describe(descriptions).c_str());
  if (iteration.spread.has_value()) {
    std::printf("  spread:   %s\n",
                iteration.spread->Describe(descriptions).c_str());
  }
}

Status MineIterationsAndPrint(core::MiningSession* session, int iterations) {
  const size_t already = session->history().size();
  for (int i = 0; i < iterations; ++i) {
    Result<core::IterationResult> iteration = session->MineNext();
    if (!iteration.ok()) {
      if (iteration.status().code() == StatusCode::kNotFound && i > 0) {
        std::printf("search exhausted after %d iterations\n", i);
        return Status::OK();
      }
      return iteration.status();
    }
    PrintIteration(already + size_t(i) + 1, iteration.Value(),
                   session->dataset().descriptions);
  }
  return Status::OK();
}

Status RunMine(const Args& args) {
  SISD_ASSIGN_OR_RETURN(dataset, LoadDataset(args));
  SISD_ASSIGN_OR_RETURN(config, ConfigFromArgs(args));
  std::printf("dataset '%s': %zu rows, %zu descriptions, %zu targets\n",
              dataset.name.c_str(), dataset.num_rows(),
              dataset.num_descriptions(), dataset.num_targets());
  SISD_ASSIGN_OR_RETURN(
      session, core::MiningSession::Create(std::move(dataset), config));
  SISD_ASSIGN_OR_RETURN(iterations, FlagInt(args, "--iterations", 1));
  SISD_RETURN_NOT_OK(MineIterationsAndPrint(&session, iterations));
  if (const std::string* path = args.Find("--session-save")) {
    SISD_RETURN_NOT_OK(session.Save(*path));
    std::printf("session saved to %s (%zu iterations)\n", path->c_str(),
                session.history().size());
  }
  return Status::OK();
}

Status RunResume(const Args& args) {
  const std::string* path = args.Find("--session");
  if (path == nullptr) {
    return Status::InvalidArgument("resume needs --session FILE");
  }
  SISD_ASSIGN_OR_RETURN(session, core::MiningSession::Restore(*path));
  std::printf(
      "restored session over '%s': %zu iterations mined, %zu constraints\n",
      session.dataset().name.c_str(), session.history().size(),
      session.assimilator().num_constraints());
  SISD_ASSIGN_OR_RETURN(iterations, FlagInt(args, "--iterations", 1));
  SISD_RETURN_NOT_OK(MineIterationsAndPrint(&session, iterations));
  const std::string* save_path = args.Find("--session-save");
  const std::string& out = save_path != nullptr ? *save_path : *path;
  SISD_RETURN_NOT_OK(session.Save(out));
  std::printf("session saved to %s (%zu iterations)\n", out.c_str(),
              session.history().size());
  return Status::OK();
}

Status RunAppend(const Args& args) {
  const std::string* path = args.Find("--session");
  if (path == nullptr) {
    return Status::InvalidArgument("append needs --session FILE");
  }
  const std::string* csv = args.Find("--csv");
  if (csv == nullptr) {
    return Status::InvalidArgument(
        "append needs --csv FILE with the new rows");
  }
  SISD_ASSIGN_OR_RETURN(session, core::MiningSession::Restore(*path));
  const size_t parent_rows = session.dataset().num_rows();
  std::printf(
      "restored session over '%s': %zu rows, %zu iterations mined\n",
      session.dataset().name.c_str(), parent_rows,
      session.history().size());
  SISD_ASSIGN_OR_RETURN(text, serialize::ReadTextFile(*csv));
  SISD_ASSIGN_OR_RETURN(
      grown, data::AppendRowsFromCsvText(session.dataset(), text));
  search::IncrementalPoolStats pool_stats;
  auto pool = std::make_shared<const search::ConditionPool>(
      search::ConditionPool::BuildIncremental(
          grown.descriptions, session.condition_pool(), parent_rows,
          session.config().search.num_split_points,
          session.config().search.include_exclusions, &pool_stats));
  auto dataset = std::make_shared<const data::Dataset>(std::move(grown));
  SISD_ASSIGN_OR_RETURN(outcome,
                        session.Rebase(dataset, pool, std::nullopt));
  std::printf(
      "appended %zu rows (%zu total); pool refreshed (%zu conditions "
      "extended in place, %zu rebuilt); replayed %zu iterations, %zu "
      "list rules\n",
      outcome.appended_rows, session.dataset().num_rows(),
      pool_stats.reused, pool_stats.rebuilt, outcome.replayed_iterations,
      outcome.replayed_rules);
  SISD_ASSIGN_OR_RETURN(iterations, FlagInt(args, "--iterations", 0));
  if (iterations > 0) {
    SISD_RETURN_NOT_OK(MineIterationsAndPrint(&session, iterations));
  }
  const std::string* save_path = args.Find("--session-save");
  const std::string& out = save_path != nullptr ? *save_path : *path;
  SISD_RETURN_NOT_OK(session.Save(out));
  std::printf("session saved to %s (%zu iterations)\n", out.c_str(),
              session.history().size());
  return Status::OK();
}

Status RunExport(const Args& args) {
  const std::string* path = args.Find("--session");
  if (path == nullptr) {
    return Status::InvalidArgument("export needs --session FILE");
  }
  SISD_ASSIGN_OR_RETURN(session, core::MiningSession::Restore(*path));
  bool exported = false;
  if (const std::string* history_path = args.Find("--history")) {
    SISD_RETURN_NOT_OK(core::ExportHistoryCsv(session, *history_path));
    std::printf("history (%zu iterations) -> %s\n",
                session.history().size(), history_path->c_str());
    exported = true;
  }
  if (const std::string* ranked_path = args.Find("--ranked")) {
    if (session.history().empty()) {
      return Status::InvalidArgument("session has no iterations to export");
    }
    const size_t last = session.history().size();
    SISD_ASSIGN_OR_RETURN(
        iteration, FlagInt(args, "--iteration", last, 1, (long long)(last)));
    const data::DataTable table = core::RankedListTable(
        session.history()[iteration - 1], session.dataset().descriptions);
    SISD_RETURN_NOT_OK(data::WriteCsvFile(table, *ranked_path));
    std::printf("ranked list of iteration %zu (%zu subgroups) -> %s\n",
                iteration, table.num_rows(), ranked_path->c_str());
    exported = true;
  }
  if (const std::string* json_path = args.Find("--json")) {
    SISD_ASSIGN_OR_RETURN(text, serialize::ReadTextFile(*path));
    SISD_ASSIGN_OR_RETURN(parsed, serialize::JsonValue::Parse(text));
    SISD_RETURN_NOT_OK(serialize::WriteTextFile(*json_path,
                                                parsed.Write(2) + "\n"));
    std::printf("snapshot JSON -> %s\n", json_path->c_str());
    exported = true;
  }
  if (!exported) {
    return Status::InvalidArgument(
        "export needs at least one of --history / --ranked / --json");
  }
  return Status::OK();
}

Status RunOptimal(const Args& args) {
  SISD_ASSIGN_OR_RETURN(dataset, LoadDataset(args));
  std::printf("dataset '%s': %zu rows, %zu descriptions, %zu targets\n",
              dataset.name.c_str(), dataset.num_rows(),
              dataset.num_descriptions(), dataset.num_targets());

  // Depth and splits below 1 would abort the search and the pool build.
  search::OptimalConfig config;
  SISD_ASSIGN_OR_RETURN(depth,
                        FlagInt(args, "--max-depth", config.max_depth, 1));
  config.max_depth = depth;
  SISD_ASSIGN_OR_RETURN(min_cov,
                        FlagInt(args, "--min-coverage", config.min_coverage));
  config.min_coverage = min_cov;
  SISD_ASSIGN_OR_RETURN(
      budget, FlagDouble(args, "--time-budget", config.time_budget_seconds));
  SISD_RETURN_NOT_OK(search::ValidateTimeBudget(budget));
  config.time_budget_seconds = budget;
  SISD_ASSIGN_OR_RETURN(threads,
                        FlagInt(args, "--threads", config.num_threads));
  config.num_threads = threads;
  config.use_bound = args.Find("--no-bound") == nullptr;

  si::DescriptionLengthParams dl;
  SISD_ASSIGN_OR_RETURN(gamma, FlagDouble(args, "--gamma", dl.gamma));
  dl.gamma = gamma;
  SISD_ASSIGN_OR_RETURN(eta, FlagDouble(args, "--eta", dl.eta));
  dl.eta = eta;
  SISD_RETURN_NOT_OK(si::ValidateDescriptionLengthParams(dl));

  SISD_ASSIGN_OR_RETURN(splits, FlagInt(args, "--splits", 4, 1));
  const search::ConditionPool pool = search::ConditionPool::Build(
      dataset.descriptions, splits, args.Find("--exclusions") != nullptr);
  SISD_ASSIGN_OR_RETURN(
      model, model::BackgroundModel::CreateFromData(dataset.targets, 1e-8));

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const search::OptimalResult result = search::OptimalLocationSearch(
      dataset.descriptions, pool, model, dataset.targets, dl, config);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (result.best.intention.empty()) {
    return Status::NotFound(
        "optimal search found no subgroup satisfying the constraints");
  }
  std::printf("optimal: %s (n=%zu, SI=%.6f)%s\n",
              result.best.intention.ToString(dataset.descriptions).c_str(),
              result.best.extension.count(), result.best.quality,
              result.completed ? "" : "  [time budget hit: incumbent only]");
  std::printf(
      "searched %zu candidates, %zu nodes expanded, %zu pruned, bound=%s, "
      "%.3fs (%.0f candidates/s)\n",
      result.num_evaluated, result.num_expanded, result.num_pruned_nodes,
      result.used_bound ? "univariate-si" : "off", seconds,
      seconds > 0.0 ? double(result.num_evaluated) / seconds : 0.0);

  if (args.Find("--compare-beam") != nullptr) {
    search::SearchConfig beam;
    beam.max_depth = config.max_depth;
    beam.min_coverage = config.min_coverage;
    beam.num_threads = config.num_threads;
    beam.include_exclusions = args.Find("--exclusions") != nullptr;
    beam.num_split_points = splits;
    search::SiLocationEvaluator evaluator(model, dataset.targets, dl);
    const Clock::time_point beam_start = Clock::now();
    const search::SearchResult beam_result = search::BeamSearch(
        dataset.descriptions, pool, beam, evaluator);
    const double beam_seconds =
        std::chrono::duration<double>(Clock::now() - beam_start).count();
    if (beam_result.top.empty()) {
      std::printf("beam:    found nothing under the same constraints\n");
      return Status::OK();
    }
    const double beam_q = beam_result.best().quality;
    const double gap =
        result.best.quality > 0.0
            ? (result.best.quality - beam_q) / result.best.quality * 100.0
            : 0.0;
    std::printf("beam:    %s (n=%zu, SI=%.6f), %.3fs\n",
                beam_result.best().intention.ToString(dataset.descriptions)
                    .c_str(),
                beam_result.best().extension.count(), beam_q, beam_seconds);
    std::printf("optimality gap: %.4f%% (optimal/beam wall-clock: %.2fx)\n",
                gap, beam_seconds > 0.0 ? seconds / beam_seconds : 0.0);
  }
  return Status::OK();
}

Status RunList(const Args& args) {
  SISD_ASSIGN_OR_RETURN(rules, FlagInt(args, "--rules", 3, 1));
  const std::string* snapshot = args.Find("--session");
  std::optional<core::MiningSession> session;
  if (snapshot != nullptr) {
    if (args.Find("--csv") != nullptr || args.Find("--scenario") != nullptr) {
      return Status::InvalidArgument(
          "list takes either --session or a dataset source, not both");
    }
    SISD_ASSIGN_OR_RETURN(restored, core::MiningSession::Restore(*snapshot));
    session.emplace(std::move(restored));
    std::printf("restored session over '%s': %zu rules in the list\n",
                session->dataset().name.c_str(),
                session->subgroup_list() != nullptr
                    ? session->subgroup_list()->rules.size()
                    : size_t{0});
  } else {
    SISD_ASSIGN_OR_RETURN(dataset, LoadDataset(args));
    SISD_ASSIGN_OR_RETURN(config, ConfigFromArgs(args));
    std::printf("dataset '%s': %zu rows, %zu descriptions, %zu targets\n",
                dataset.name.c_str(), dataset.num_rows(),
                dataset.num_descriptions(), dataset.num_targets());
    SISD_ASSIGN_OR_RETURN(
        created, core::MiningSession::Create(std::move(dataset), config));
    session.emplace(std::move(created));
  }

  const size_t before = session->subgroup_list() != nullptr
                            ? session->subgroup_list()->rules.size()
                            : size_t{0};
  SISD_ASSIGN_OR_RETURN(result, session->MineList(rules));
  const search::SubgroupList* list = session->subgroup_list();
  for (size_t i = 0; i < result.rules.size(); ++i) {
    const search::SubgroupRule& rule = result.rules[i];
    std::printf("rule %zu: %s (gain=%.6f, captured=%zu, coverage=%zu)\n",
                before + i + 1,
                rule.intention.ToString(
                    session->dataset().descriptions).c_str(),
                rule.gain, rule.captured.count(), rule.extension.count());
  }
  if (result.exhausted) {
    std::printf("list exhausted: no further positive-gain rule (%zu "
                "appended this run)\n",
                result.rules.size());
  }
  std::printf("list: %zu rules, total gain %.6f nats, %zu rows on the "
              "default rule (%zu candidates evaluated%s)\n",
              list != nullptr ? list->rules.size() : size_t{0},
              list != nullptr ? list->total_gain : 0.0,
              list != nullptr ? list->uncovered.count() : size_t{0},
              result.candidates_evaluated,
              result.hit_time_budget ? ", hit time budget" : "");
  if (const std::string* path = args.Find("--session-save")) {
    SISD_RETURN_NOT_OK(session->Save(*path));
    std::printf("session saved to %s\n", path->c_str());
  }
  return Status::OK();
}

int Main(int argc, char** argv) {
  Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n\n%s", args.status().message().c_str(),
                 kUsage);
    return 2;
  }
  if (args.Value().command == "help" || args.Value().Find("--help") ||
      args.Value().Find("-h")) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (Status valid = ValidateFlags(args.Value()); !valid.ok()) {
    std::fprintf(stderr, "error: %s\n\n%s", valid.message().c_str(), kUsage);
    return 2;
  }
  Status status;
  if (args.Value().command == "mine") {
    status = RunMine(args.Value());
  } else if (args.Value().command == "resume") {
    status = RunResume(args.Value());
  } else if (args.Value().command == "append") {
    status = RunAppend(args.Value());
  } else if (args.Value().command == "export") {
    status = RunExport(args.Value());
  } else if (args.Value().command == "optimal") {
    status = RunOptimal(args.Value());
  } else if (args.Value().command == "list") {
    status = RunList(args.Value());
  } else {
    std::fprintf(stderr, "error: unknown subcommand '%s'\n\n%s",
                 args.Value().command.c_str(), kUsage);
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sisd

int main(int argc, char** argv) { return sisd::Main(argc, argv); }
