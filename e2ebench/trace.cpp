// e2e_trace — the in-process side of the end-to-end benchmark (run.py).
//
//   e2e_trace context                 build type, compiler, kernel ISA, cores
//   e2e_trace schema SCENARIO         description/target schema as JSON
//   e2e_trace replay PLAN OUT         traced in-process replay of a plan
//
// `replay` reads the request plan run.py sent to the server (one request
// line per connection and position, with its due time for open loops) and
// replays it against a `SessionManager` configured like the server, one
// thread per connection. Each request passes ParseRequestLine ->
// serve::HandleRequest -> WriteResponseLine. The plan runs on fresh
// managers: twice untraced (only HandleRequest is timed, to price the
// tracing; the first pass only warms the process), then traced. The traced
// pass clones the session before every `mine_list` and every Nth `mine`,
// and snapshots a clone at every `evict` and `close`. After it, each
// sampled mine is composed again on its clone, serially, from the public
// layer calls the session runs (SiLocationEvaluator -> BeamSearch -> top-k
// rescore -> AddLocationPattern -> FindSpreadPattern -> AddSpreadPattern),
// timing each call; the composed iteration must be bit-identical to the
// served one. Spans are kept in memory and written to OUT as one JSON
// object when the run ends.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/status.hpp"
#include "common/strings.hpp"
#include "core/session.hpp"
#include "datagen/scenarios.hpp"
#include "kernels/kernels.hpp"
#include "pattern/patterns.hpp"
#include "search/beam_search.hpp"
#include "search/si_evaluator.hpp"
#include "serialize/protocol.hpp"
#include "serve/service.hpp"
#include "serve/session_manager.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using sisd::Result;
using sisd::Status;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string Num(double v) { return sisd::StrFormat("%.17g", v); }

std::string Quote(const std::string& s) {
  return sisd::serialize::JsonValue::Str(s).Write();
}

std::string Join(const std::vector<std::string>& parts) {
  std::string out = "[";
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ",";
    out += parts[i];
  }
  return out + "]";
}

std::string NumList(const std::vector<double>& values) {
  std::vector<std::string> parts;
  parts.reserve(values.size());
  for (double v : values) parts.push_back(Num(v));
  return Join(parts);
}

// ---------------------------------------------------------------- context

int Context() {
  std::printf(
      "{\"build_type\":%s,\"compiler\":%s,\"isa\":%s,\"nproc\":%u}\n",
      Quote(E2E_BUILD_TYPE).c_str(), Quote(E2E_COMPILER).c_str(),
      Quote(sisd::kernels::IsaName(sisd::kernels::ActiveIsa())).c_str(),
      std::thread::hardware_concurrency());
  return 0;
}

// ----------------------------------------------------------------- schema

// Prints the description columns (numeric ones with their tercile and
// median values, categorical ones with their labels) and the target
// names, so the request generator builds conditions and appended rows
// from the dataset's own schema.
int Schema(const std::string& scenario) {
  Result<sisd::data::Dataset> made =
      sisd::datagen::MakeScenarioDataset(scenario);
  if (!made.ok()) {
    std::fprintf(stderr, "error: %s\n", made.status().ToString().c_str());
    return 1;
  }
  const sisd::data::Dataset& dataset = made.Value();
  std::vector<std::string> columns;
  for (size_t j = 0; j < dataset.descriptions.num_columns(); ++j) {
    const sisd::data::Column& column = dataset.descriptions.column(j);
    std::string entry = "{\"name\":" + Quote(column.name()) + ",\"kind\":" +
                        Quote(sisd::data::AttributeKindToString(column.kind()));
    if (sisd::data::IsOrderable(column.kind())) {
      std::vector<double> values = column.numeric_values();
      std::sort(values.begin(), values.end());
      std::vector<double> cuts;
      for (double q : {1.0 / 3.0, 0.5, 2.0 / 3.0}) {
        cuts.push_back(values[size_t(q * double(values.size() - 1))]);
      }
      entry += ",\"cuts\":" + NumList(cuts);
    } else {
      std::vector<std::string> labels;
      for (const std::string& label : column.labels()) {
        labels.push_back(Quote(label));
      }
      entry += ",\"labels\":" + Join(labels);
    }
    columns.push_back(entry + "}");
  }
  std::vector<std::string> targets;
  std::vector<double> target_means;
  for (size_t t = 0; t < dataset.num_targets(); ++t) {
    targets.push_back(Quote(dataset.target_names[t]));
    double sum = 0.0;
    for (size_t i = 0; i < dataset.num_rows(); ++i) {
      sum += dataset.targets(i, t);
    }
    target_means.push_back(sum / double(dataset.num_rows()));
  }
  std::printf(
      "{\"name\":%s,\"rows\":%zu,\"columns\":%s,\"targets\":%s,"
      "\"target_means\":%s}\n",
      Quote(dataset.name).c_str(), dataset.num_rows(), Join(columns).c_str(),
      Join(targets).c_str(), NumList(target_means).c_str());
  return 0;
}

// ------------------------------------------------------------------- plan

struct PlannedRequest {
  size_t conn = 0;
  int64_t due_us = -1;  ///< open loop: send time from run start; -1 closed
  std::string line;
};

struct Plan {
  sisd::serve::ServeConfig config;
  std::vector<std::string> preloads;
  size_t connections = 1;
  /// Every Nth `mine` of a connection is cloned and composed again.
  size_t compose_stride = 1;
  std::vector<std::vector<PlannedRequest>> per_conn;
};

// Plan text: a header line
//   threads T max_resident M connections C compose_stride N preload a,b
// then one `CONN<TAB>DUE_US<TAB>REQUEST_LINE` line per request, in each
// connection's send order.
Result<Plan> ParsePlan(std::ifstream& in) {
  Plan plan;
  std::string header;
  std::getline(in, header);
  std::istringstream fields(header);
  std::string key;
  while (fields >> key) {
    std::string value;
    fields >> value;
    if (key == "threads") {
      plan.config.num_threads = std::stoi(value);
    } else if (key == "max_resident") {
      plan.config.max_resident = size_t(std::stoul(value));
    } else if (key == "connections") {
      plan.connections = size_t(std::stoul(value));
    } else if (key == "compose_stride") {
      plan.compose_stride = std::max<size_t>(size_t(std::stoul(value)), 1);
    } else if (key == "preload") {
      plan.preloads = sisd::SplitString(value, ',');
    } else {
      return Status::InvalidArgument("unknown plan key '" + key + "'");
    }
  }
  if (plan.connections < 1 || plan.connections > 64) {
    return Status::InvalidArgument("plan needs 1..64 connections");
  }
  plan.per_conn.resize(plan.connections);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const size_t a = line.find('\t');
    const size_t b = a == std::string::npos ? a : line.find('\t', a + 1);
    if (b == std::string::npos) {
      return Status::InvalidArgument("malformed plan line");
    }
    PlannedRequest request;
    request.conn = size_t(std::stoul(line.substr(0, a)));
    request.due_us = std::stoll(line.substr(a + 1, b - a - 1));
    request.line = line.substr(b + 1);
    if (request.conn >= plan.connections) {
      return Status::InvalidArgument("plan line names an unknown connection");
    }
    plan.per_conn[request.conn].push_back(std::move(request));
  }
  return plan;
}

Result<Plan> ReadPlan(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open plan '" + path + "'");
  try {
    return ParsePlan(in);
  } catch (const std::exception& e) {  // std::stoul and friends
    return Status::InvalidArgument(std::string("malformed plan: ") + e.what());
  }
}

// ------------------------------------------------------- timed evaluator

// Wraps the SI evaluator and times each ScoreChunk per worker. Each worker
// appends to its own vector, so concurrent chunks never share state.
class TimedEvaluator final : public sisd::search::BatchEvaluator {
 public:
  struct Chunk {
    const void* batch = nullptr;
    size_t depth = 0;
    Clock::time_point start;
    Clock::time_point end;
    size_t candidates = 0;
    size_t finite = 0;
    double bytes = 0.0;  ///< computed from bitset and target-row sizes
  };

  TimedEvaluator(sisd::search::SiLocationEvaluator& inner, size_t rows,
                 size_t targets)
      : inner_(inner),
        bitset_bytes_(double((rows + 63) / 64 * 8)),
        row_bytes_(double(targets * sizeof(double))) {}

  bool SupportsParallelScoring() const override {
    return inner_.SupportsParallelScoring();
  }

  void Prepare(size_t num_workers) override {
    inner_.Prepare(num_workers);
    chunks_.assign(num_workers, {});
    workers_ = num_workers;
  }

  void ScoreChunk(const sisd::search::CandidateBatch& batch, size_t begin,
                  size_t end, size_t worker, double* scores) override {
    Chunk chunk;
    chunk.start = Clock::now();
    inner_.ScoreChunk(batch, begin, end, worker, scores);
    chunk.end = Clock::now();
    chunk.batch = &batch;
    chunk.depth = batch.depth;
    chunk.candidates = end - begin;
    double rows_read = 0.0;
    for (size_t i = begin; i < end; ++i) {
      if (std::isfinite(scores[i])) ++chunk.finite;
      rows_read += double(batch.items[i].count);
    }
    chunk.bytes = double(end - begin) * 2.0 * bitset_bytes_ +
                  rows_read * row_bytes_;
    chunks_[worker].push_back(chunk);
  }

  const std::vector<std::vector<Chunk>>& chunks() const { return chunks_; }
  size_t workers() const { return workers_; }

 private:
  sisd::search::SiLocationEvaluator& inner_;
  double bitset_bytes_;
  double row_bytes_;
  size_t workers_ = 1;
  std::vector<std::vector<Chunk>> chunks_;
};

// ---------------------------------------------------------------- records

struct RequestRecord {
  size_t conn = 0;
  size_t seq = 0;
  std::string verb;
  bool ok = false;
  double parse_us = 0.0;
  double handle_ms = 0.0;
  double encode_us = 0.0;
  size_t response_bytes = 0;
};

struct MineRecord {
  size_t conn = 0;
  size_t seq = 0;
  std::optional<sisd::core::MiningSession> before;
  sisd::core::IterationResult served;
};

struct ListRecord {
  std::optional<sisd::core::MiningSession> before;
  int rules = 1;
};

struct SnapshotRecord {
  double save_ms = 0.0;
  double restore_ms = 0.0;
  bool ok = false;
};

struct ConnResult {
  std::vector<RequestRecord> requests;
  std::vector<MineRecord> mines;
  std::vector<ListRecord> lists;
  std::vector<SnapshotRecord> snapshots;
};

struct PreparedManager {
  std::unique_ptr<sisd::serve::SessionManager> manager;
  std::vector<std::string> pool_build;  ///< JSON entries
};

Result<PreparedManager> MakeManager(const Plan& plan) {
  PreparedManager prepared;
  prepared.manager = std::make_unique<sisd::serve::SessionManager>(plan.config);
  const sisd::search::SearchConfig defaults;
  for (const std::string& spec : plan.preloads) {
    SISD_ASSIGN_OR_RETURN(
        pinned,
        sisd::serve::PreloadDataset(*prepared.manager->catalog(), spec));
    const Clock::time_point t0 = Clock::now();
    prepared.manager->catalog()->PoolFor(pinned, defaults.num_split_points,
                                         defaults.include_exclusions);
    const Clock::time_point t1 = Clock::now();
    prepared.pool_build.push_back(
        "{\"dataset\":" + Quote(pinned.dataset->name) +
        ",\"ms\":" + Num(MsBetween(t0, t1)) + "}");
  }
  return prepared;
}

// Runs one connection's requests in order (honouring due times when the
// plan has them). `traced` adds the clones and snapshot spans.
void RunConnection(sisd::serve::SessionManager& manager,
                   const std::vector<PlannedRequest>& requests,
                   size_t compose_stride, Clock::time_point start, bool traced,
                   ConnResult* out) {
  size_t mines_seen = 0;
  for (size_t seq = 0; seq < requests.size(); ++seq) {
    const PlannedRequest& planned = requests[seq];
    if (planned.due_us >= 0) {
      std::this_thread::sleep_until(start +
                                    std::chrono::microseconds(planned.due_us));
    }
    RequestRecord record;
    record.conn = planned.conn;
    record.seq = seq;
    const Clock::time_point p0 = Clock::now();
    Result<sisd::serialize::ProtocolRequest> parsed =
        sisd::serialize::ParseRequestLine(planned.line);
    const Clock::time_point p1 = Clock::now();
    record.parse_us = MsBetween(p0, p1) * 1000.0;
    if (!parsed.ok()) {
      record.verb = "invalid";
      out->requests.push_back(record);
      continue;
    }
    const sisd::serialize::ProtocolRequest& request = parsed.Value();
    record.verb = request.verb;

    const bool compose =
        request.verb == "mine" && mines_seen++ % compose_stride == 0;
    std::optional<sisd::core::MiningSession> before;
    if (traced && (compose || request.verb == "mine_list" ||
                   request.verb == "evict" || request.verb == "close")) {
      Result<sisd::core::MiningSession> clone =
          manager.CloneSession(request.session);
      if (clone.ok()) before = std::move(clone).MoveValue();
    }
    if (before.has_value() &&
        (request.verb == "evict" || request.verb == "close")) {
      SnapshotRecord snapshot;
      const Clock::time_point s0 = Clock::now();
      const std::string text =
          before->SaveToString(sisd::core::SnapshotForm::kDatasetRef);
      const Clock::time_point s1 = Clock::now();
      Result<sisd::core::MiningSession> restored =
          sisd::core::MiningSession::RestoreFromString(
              text, manager.catalog().get());
      const Clock::time_point s2 = Clock::now();
      snapshot.save_ms = MsBetween(s0, s1);
      snapshot.restore_ms = MsBetween(s1, s2);
      snapshot.ok = restored.ok();
      out->snapshots.push_back(snapshot);
    }

    const Clock::time_point h0 = Clock::now();
    sisd::serialize::ProtocolResponse response =
        sisd::serve::HandleRequest(manager, request, nullptr);
    const Clock::time_point h1 = Clock::now();
    const std::string wire = sisd::serialize::WriteResponseLine(response);
    const Clock::time_point h2 = Clock::now();
    record.handle_ms = MsBetween(h0, h1);
    record.encode_us = MsBetween(h1, h2) * 1000.0;
    record.response_bytes = wire.size();
    record.ok = response.ok;
    out->requests.push_back(record);

    if (!traced || !before.has_value() || !response.ok) continue;
    if (request.verb == "mine") {
      Result<sisd::core::MiningSession> after =
          manager.CloneSession(request.session);
      if (!after.ok() || after.Value().history().empty()) continue;
      MineRecord mine;
      mine.conn = planned.conn;
      mine.seq = seq;
      mine.before = std::move(before);
      mine.served = after.Value().history().back();
      out->mines.push_back(std::move(mine));
    } else if (request.verb == "mine_list") {
      ListRecord list;
      list.before = std::move(before);
      if (const sisd::serialize::JsonValue* rules =
              request.params.Find("rules")) {
        if (Result<int64_t> n = rules->GetInt(); n.ok()) {
          list.rules = int(n.Value());
        }
      }
      out->lists.push_back(std::move(list));
    }
  }
}

std::vector<ConnResult> RunPlan(sisd::serve::SessionManager& manager,
                                const Plan& plan, bool traced) {
  std::vector<ConnResult> results(plan.connections);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (size_t c = 0; c < plan.connections; ++c) {
    threads.emplace_back(RunConnection, std::ref(manager),
                         std::cref(plan.per_conn[c]), plan.compose_stride,
                         start, traced, &results[c]);
  }
  for (std::thread& thread : threads) thread.join();
  return results;
}

// ------------------------------------------------------ composed iteration

struct ComposedSpans {
  double mine_ms = 0.0;
  double evaluator_ms = 0.0;
  double beam_ms = 0.0;
  double score_wall_ms = 0.0;
  double score_busy_ms = 0.0;
  size_t score_workers = 1;
  size_t candidates = 0;
  size_t finite = 0;
  double bytes = 0.0;
  double rescore_ms = 0.0;
  double assimilate_location_ms = 0.0;
  double spread_ms = 0.0;
  double spread_probe_ms = 0.0;  ///< outside the iteration (location-only)
  double assimilate_spread_ms = 0.0;
  size_t groups = 0;
  bool identical = false;
  double location_si = 0.0;
  size_t candidates_evaluated = 0;
};

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Composes the iteration MiningSession::MineNext runs, call by call, on
// `session` (a clone taken before the served mine) and compares it with
// the served result.
ComposedSpans ComposeIteration(sisd::core::MiningSession& session,
                               const sisd::core::IterationResult& served,
                               sisd::search::ThreadPool* workers) {
  ComposedSpans spans;
  const sisd::data::Dataset& dataset = session.dataset();
  const sisd::core::MinerConfig& config = session.config();

  // Each child span is timed on its own; what the iteration does between
  // them (assembling the result and recording it, as MineNext does) is
  // the core layer's self time.
  const auto timed_call = [](double* ms, auto&& call) {
    const Clock::time_point start = Clock::now();
    call();
    *ms += MsBetween(start, Clock::now());
  };
  const Clock::time_point t0 = Clock::now();
  std::optional<sisd::search::SiLocationEvaluator> evaluator;
  timed_call(&spans.evaluator_ms, [&] {
    evaluator.emplace(session.model(), dataset.targets, config.dl);
  });
  TimedEvaluator timed(*evaluator, dataset.num_rows(), dataset.num_targets());
  sisd::search::SearchResult search;
  timed_call(&spans.beam_ms, [&] {
    search = sisd::search::BeamSearch(dataset.descriptions,
                                      session.condition_pool(), config.search,
                                      timed, workers);
  });

  sisd::core::IterationResult iteration;
  iteration.candidates_evaluated = search.num_evaluated;
  iteration.hit_time_budget = search.hit_time_budget;
  timed_call(&spans.rescore_ms, [&] {
    for (const sisd::search::ScoredSubgroup& scored : search.top) {
      sisd::pattern::Subgroup subgroup;
      subgroup.intention = scored.intention;
      subgroup.extension = scored.extension;
      sisd::core::ScoredLocationPattern entry;
      entry.pattern = sisd::pattern::LocationPattern::Compute(
          std::move(subgroup), dataset.targets);
      entry.score = evaluator->ScoreSubgroup(
          entry.pattern.subgroup.extension, entry.pattern.mean,
          entry.pattern.subgroup.intention.size());
      iteration.ranked.push_back(std::move(entry));
    }
  });

  bool assimilated = false;
  if (!iteration.ranked.empty()) {
    iteration.location = iteration.ranked.front();
    const sisd::core::ScoredLocationPattern& location = iteration.location;
    timed_call(&spans.assimilate_location_ms, [&] {
      assimilated = session.mutable_assimilator()
                        ->AddLocationPattern(
                            location.pattern.subgroup.extension,
                            location.pattern.mean)
                        .ok();
    });
    if (assimilated &&
        config.mix == sisd::core::PatternMix::kLocationAndSpread &&
        dataset.num_targets() >= 1) {
      std::optional<Result<sisd::core::ScoredSpreadPattern>> found;
      timed_call(&spans.spread_ms, [&] {
        found.emplace(session.FindSpreadPattern(location.pattern.subgroup));
      });
      if (found->ok()) {
        const sisd::pattern::SpreadPattern& pattern = found->Value().pattern;
        bool added = false;
        timed_call(&spans.assimilate_spread_ms, [&] {
          added = session.mutable_assimilator()
                      ->AddSpreadPattern(pattern.subgroup.extension,
                                         pattern.direction,
                                         location.pattern.mean,
                                         pattern.variance)
                      .ok();
        });
        if (added) iteration.spread = std::move(*found).MoveValue();
      }
    }
  }
  std::vector<sisd::core::IterationResult> history;
  history.push_back(iteration);
  spans.mine_ms = MsBetween(t0, Clock::now());

  // Location-only sessions skip the spread step; time it on the same
  // subgroup outside the iteration so the optimize layer is still seen.
  if (assimilated && !iteration.spread.has_value() &&
      config.mix == sisd::core::PatternMix::kLocationOnly &&
      dataset.num_targets() >= 1) {
    timed_call(&spans.spread_probe_ms, [&] {
      (void)session.FindSpreadPattern(iteration.location.pattern.subgroup);
    });
  }
  spans.groups = session.model().num_groups();
  spans.score_workers = std::max<size_t>(timed.workers(), 1);

  // One beam level = one batch: its wall time runs from its first chunk's
  // start to its last chunk's end.
  std::map<std::pair<const void*, size_t>,
           std::pair<Clock::time_point, Clock::time_point>>
      levels;
  for (const auto& worker_chunks : timed.chunks()) {
    for (const TimedEvaluator::Chunk& chunk : worker_chunks) {
      spans.score_busy_ms += MsBetween(chunk.start, chunk.end);
      spans.candidates += chunk.candidates;
      spans.finite += chunk.finite;
      spans.bytes += chunk.bytes;
      auto [it, inserted] = levels.try_emplace({chunk.batch, chunk.depth},
                                               chunk.start, chunk.end);
      if (!inserted) {
        it->second.first = std::min(it->second.first, chunk.start);
        it->second.second = std::max(it->second.second, chunk.end);
      }
    }
  }
  for (const auto& [key, span] : levels) {
    spans.score_wall_ms += MsBetween(span.first, span.second);
  }

  const std::optional<sisd::core::ScoredSpreadPattern>& spread =
      iteration.spread;
  spans.candidates_evaluated = iteration.candidates_evaluated;
  spans.location_si = iteration.location.score.si;
  spans.identical =
      assimilated &&
      iteration.candidates_evaluated == served.candidates_evaluated &&
      SameBits(iteration.location.score.si, served.location.score.si) &&
      spread.has_value() == served.spread.has_value() &&
      (!spread.has_value() ||
       SameBits(spread->score.si, served.spread->score.si));
  return spans;
}

// ----------------------------------------------------------------- replay

int Replay(const std::string& plan_path, const std::string& out_path) {
  Result<Plan> plan_or = ReadPlan(plan_path);
  if (!plan_or.ok()) {
    std::fprintf(stderr, "error: %s\n", plan_or.status().ToString().c_str());
    return 1;
  }
  const Plan& plan = plan_or.Value();

  // Untraced passes: only HandleRequest is timed. The first one warms the
  // process (allocator, page faults) and is discarded, so the kept one and
  // the traced pass both run warm.
  std::vector<double> untraced_handle;
  for (int pass = 0; pass < 2; ++pass) {
    Result<PreparedManager> prepared = MakeManager(plan);
    if (!prepared.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   prepared.status().ToString().c_str());
      return 1;
    }
    untraced_handle.clear();
    for (const ConnResult& conn :
         RunPlan(*prepared.Value().manager, plan, /*traced=*/false)) {
      for (const RequestRecord& r : conn.requests) {
        untraced_handle.push_back(r.handle_ms);
      }
    }
  }

  Result<PreparedManager> prepared = MakeManager(plan);
  if (!prepared.ok()) {
    std::fprintf(stderr, "error: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  sisd::serve::SessionManager& manager = *prepared.Value().manager;
  std::vector<ConnResult> results = RunPlan(manager, plan, /*traced=*/true);

  std::vector<std::string> requests;
  std::vector<std::string> mines;
  std::vector<double> list_ms;
  std::vector<double> save_ms;
  std::vector<double> restore_ms;
  bool replay_ok = true;  ///< every snapshot restored, every list mined
  for (ConnResult& conn : results) {
    for (const RequestRecord& r : conn.requests) {
      requests.push_back(sisd::StrFormat(
          "[%zu,%zu,%s,%s,%s,%s,%s,%zu]", r.conn, r.seq, Quote(r.verb).c_str(),
          r.ok ? "true" : "false", Num(r.parse_us).c_str(),
          Num(r.handle_ms).c_str(), Num(r.encode_us).c_str(),
          r.response_bytes));
    }
    for (const SnapshotRecord& s : conn.snapshots) {
      save_ms.push_back(s.save_ms);
      restore_ms.push_back(s.restore_ms);
      replay_ok = replay_ok && s.ok;
    }
  }

  // Serial replays after the served pass, through the manager's pool. A
  // workload that sends no mine_list times MineList(1) on two mine clones.
  std::vector<std::pair<const sisd::core::MiningSession*, int>> list_runs;
  for (const ConnResult& conn : results) {
    for (const ListRecord& list : conn.lists) {
      list_runs.emplace_back(&*list.before, list.rules);
    }
  }
  if (list_runs.empty()) {
    for (const ConnResult& conn : results) {
      for (const MineRecord& mine : conn.mines) {
        if (list_runs.size() < 2) list_runs.emplace_back(&*mine.before, 1);
      }
    }
  }
  for (const auto& [session, rules] : list_runs) {
    sisd::core::MiningSession copy = session->Clone();
    const Clock::time_point t0 = Clock::now();
    replay_ok = copy.MineList(rules).ok() && replay_ok;
    list_ms.push_back(MsBetween(t0, Clock::now()));
  }
  sisd::search::ThreadPool* workers = manager.thread_pool().get();
  for (ConnResult& conn : results) {
    for (MineRecord& mine : conn.mines) {
      const ComposedSpans s = ComposeIteration(*mine.before, mine.served,
                                               workers);
      mines.push_back(sisd::StrFormat(
          "{\"conn\":%zu,\"seq\":%zu,\"identical\":%s,\"location_si\":%s,"
          "\"candidates\":%zu,\"mine_ms\":%s,\"evaluator_ms\":%s,"
          "\"beam_ms\":%s,\"score_wall_ms\":%s,\"score_busy_ms\":%s,"
          "\"score_workers\":%zu,\"scored\":%zu,\"finite\":%zu,"
          "\"bytes\":%s,\"rescore_ms\":%s,\"assimilate_location_ms\":%s,"
          "\"spread_ms\":%s,\"spread_probe_ms\":%s,"
          "\"assimilate_spread_ms\":%s,\"groups\":%zu}",
          mine.conn, mine.seq, s.identical ? "true" : "false",
          Num(s.location_si).c_str(), s.candidates_evaluated,
          Num(s.mine_ms).c_str(), Num(s.evaluator_ms).c_str(),
          Num(s.beam_ms).c_str(), Num(s.score_wall_ms).c_str(),
          Num(s.score_busy_ms).c_str(), s.score_workers, s.candidates,
          s.finite, Num(s.bytes).c_str(), Num(s.rescore_ms).c_str(),
          Num(s.assimilate_location_ms).c_str(), Num(s.spread_ms).c_str(),
          Num(s.spread_probe_ms).c_str(), Num(s.assimilate_spread_ms).c_str(),
          s.groups));
    }
  }

  std::ofstream out(out_path);
  out << "{\"pool_build\":" << Join(prepared.Value().pool_build)
      << ",\"requests\":" << Join(requests) << ",\"mines\":" << Join(mines)
      << ",\"list_ms\":" << NumList(list_ms)
      << ",\"snapshot_save_ms\":" << NumList(save_ms)
      << ",\"snapshot_restore_ms\":" << NumList(restore_ms)
      << ",\"replay_ok\":" << (replay_ok ? "true" : "false")
      << ",\"untraced_handle_ms\":" << NumList(untraced_handle) << "}\n";
  if (!out) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "context" && argc == 2) return Context();
  if (command == "schema" && argc == 3) return Schema(argv[2]);
  if (command == "replay" && argc == 4) return Replay(argv[2], argv[3]);
  std::fprintf(
      stderr, "usage: e2e_trace context | schema SCENARIO | replay PLAN OUT\n");
  return 2;
}
