#include "core/session_io.hpp"

#include "serialize/snapshot.hpp"

namespace sisd::core {

using serialize::JsonValue;

namespace {

JsonValue EncodeSearchConfig(const search::SearchConfig& config) {
  JsonValue out = JsonValue::Object();
  out.Set("beam_width", JsonValue::Int(config.beam_width));
  out.Set("max_depth", JsonValue::Int(config.max_depth));
  out.Set("num_split_points", JsonValue::Int(config.num_split_points));
  out.Set("include_exclusions", JsonValue::Bool(config.include_exclusions));
  out.Set("top_k", JsonValue::Int(int64_t(config.top_k)));
  out.Set("min_coverage", JsonValue::Int(int64_t(config.min_coverage)));
  out.Set("max_coverage_fraction",
          JsonValue::Double(config.max_coverage_fraction));
  out.Set("time_budget_seconds",
          JsonValue::Double(config.time_budget_seconds));
  out.Set("num_threads", JsonValue::Int(config.num_threads));
  return out;
}

Result<search::SearchConfig> DecodeSearchConfig(const JsonValue& json) {
  search::SearchConfig out;
  SISD_ASSIGN_OR_RETURN(beam_width, GetInt32Field(json, "beam_width"));
  out.beam_width = beam_width;
  SISD_ASSIGN_OR_RETURN(max_depth, GetInt32Field(json, "max_depth"));
  out.max_depth = max_depth;
  SISD_ASSIGN_OR_RETURN(splits, GetInt32Field(json, "num_split_points"));
  out.num_split_points = splits;
  // Additive schema field. Snapshots written before the flag existed came
  // from builds whose pool unconditionally emitted != exclusions, so an
  // absent field must decode to `true` — otherwise a restored session
  // would mine over a smaller alphabet than the session that saved it,
  // breaking the byte-identical-resume guarantee. New snapshots always
  // carry the field (false by default: the paper's Cortana alphabet).
  out.include_exclusions = true;
  if (const JsonValue* exclusions = json.Find("include_exclusions")) {
    SISD_ASSIGN_OR_RETURN(v, exclusions->GetBool());
    out.include_exclusions = v;
  }
  SISD_ASSIGN_OR_RETURN(top_k, GetSizeField(json, "top_k"));
  out.top_k = top_k;
  SISD_ASSIGN_OR_RETURN(min_coverage, GetSizeField(json, "min_coverage"));
  out.min_coverage = min_coverage;
  SISD_ASSIGN_OR_RETURN(max_fraction,
                        GetDoubleField(json, "max_coverage_fraction"));
  out.max_coverage_fraction = max_fraction;
  SISD_ASSIGN_OR_RETURN(budget, GetDoubleField(json, "time_budget_seconds"));
  out.time_budget_seconds = budget;
  SISD_ASSIGN_OR_RETURN(threads, GetInt32Field(json, "num_threads"));
  out.num_threads = threads;
  return out;
}

JsonValue EncodeOptimizerConfig(
    const optimize::SphereOptimizerConfig& config) {
  JsonValue out = JsonValue::Object();
  out.Set("max_iterations", JsonValue::Int(config.max_iterations));
  out.Set("max_backtracks", JsonValue::Int(config.max_backtracks));
  out.Set("gradient_tolerance",
          JsonValue::Double(config.gradient_tolerance));
  out.Set("armijo_c1", JsonValue::Double(config.armijo_c1));
  out.Set("initial_step", JsonValue::Double(config.initial_step));
  out.Set("num_random_starts", JsonValue::Int(config.num_random_starts));
  // uint64 seeds round-trip through the int64 bit pattern.
  out.Set("seed", JsonValue::Int(int64_t(config.seed)));
  return out;
}

Result<optimize::SphereOptimizerConfig> DecodeOptimizerConfig(
    const JsonValue& json) {
  optimize::SphereOptimizerConfig out;
  SISD_ASSIGN_OR_RETURN(max_iterations,
                        GetInt32Field(json, "max_iterations"));
  out.max_iterations = max_iterations;
  SISD_ASSIGN_OR_RETURN(max_backtracks,
                        GetInt32Field(json, "max_backtracks"));
  out.max_backtracks = max_backtracks;
  SISD_ASSIGN_OR_RETURN(tolerance,
                        GetDoubleField(json, "gradient_tolerance"));
  out.gradient_tolerance = tolerance;
  SISD_ASSIGN_OR_RETURN(armijo, GetDoubleField(json, "armijo_c1"));
  out.armijo_c1 = armijo;
  SISD_ASSIGN_OR_RETURN(step, GetDoubleField(json, "initial_step"));
  out.initial_step = step;
  SISD_ASSIGN_OR_RETURN(starts, GetInt32Field(json, "num_random_starts"));
  out.num_random_starts = starts;
  SISD_ASSIGN_OR_RETURN(seed, GetIntField(json, "seed"));
  out.seed = uint64_t(seed);
  return out;
}

JsonValue EncodeLocationScore(const si::LocationScore& score) {
  JsonValue out = JsonValue::Object();
  out.Set("ic", JsonValue::Double(score.ic));
  out.Set("dl", JsonValue::Double(score.dl));
  out.Set("si", JsonValue::Double(score.si));
  return out;
}

Result<si::LocationScore> DecodeLocationScore(const JsonValue& json) {
  si::LocationScore out;
  SISD_ASSIGN_OR_RETURN(ic, GetDoubleField(json, "ic"));
  out.ic = ic;
  SISD_ASSIGN_OR_RETURN(dl, GetDoubleField(json, "dl"));
  out.dl = dl;
  SISD_ASSIGN_OR_RETURN(si_value, GetDoubleField(json, "si"));
  out.si = si_value;
  return out;
}

JsonValue EncodeSpreadScore(const si::SpreadScore& score) {
  JsonValue out = JsonValue::Object();
  out.Set("ic", JsonValue::Double(score.ic));
  out.Set("dl", JsonValue::Double(score.dl));
  out.Set("si", JsonValue::Double(score.si));
  JsonValue approx = JsonValue::Object();
  approx.Set("alpha", JsonValue::Double(score.approx.alpha));
  approx.Set("beta", JsonValue::Double(score.approx.beta));
  approx.Set("m", JsonValue::Double(score.approx.m));
  approx.Set("a1", JsonValue::Double(score.approx.a1));
  approx.Set("a2", JsonValue::Double(score.approx.a2));
  approx.Set("a3", JsonValue::Double(score.approx.a3));
  out.Set("approx", std::move(approx));
  return out;
}

Result<si::SpreadScore> DecodeSpreadScore(const JsonValue& json) {
  si::SpreadScore out;
  SISD_ASSIGN_OR_RETURN(ic, GetDoubleField(json, "ic"));
  out.ic = ic;
  SISD_ASSIGN_OR_RETURN(dl, GetDoubleField(json, "dl"));
  out.dl = dl;
  SISD_ASSIGN_OR_RETURN(si_value, GetDoubleField(json, "si"));
  out.si = si_value;
  SISD_ASSIGN_OR_RETURN(approx, json.Get("approx"));
  SISD_ASSIGN_OR_RETURN(alpha, GetDoubleField(*approx, "alpha"));
  out.approx.alpha = alpha;
  SISD_ASSIGN_OR_RETURN(beta, GetDoubleField(*approx, "beta"));
  out.approx.beta = beta;
  SISD_ASSIGN_OR_RETURN(m, GetDoubleField(*approx, "m"));
  out.approx.m = m;
  SISD_ASSIGN_OR_RETURN(a1, GetDoubleField(*approx, "a1"));
  out.approx.a1 = a1;
  SISD_ASSIGN_OR_RETURN(a2, GetDoubleField(*approx, "a2"));
  out.approx.a2 = a2;
  SISD_ASSIGN_OR_RETURN(a3, GetDoubleField(*approx, "a3"));
  out.approx.a3 = a3;
  return out;
}

JsonValue EncodeSubgroup(const pattern::Subgroup& subgroup) {
  JsonValue out = JsonValue::Object();
  out.Set("intention", serialize::EncodeIntention(subgroup.intention));
  out.Set("extension", serialize::EncodeExtension(subgroup.extension));
  return out;
}

Result<pattern::Subgroup> DecodeSubgroup(const JsonValue& json) {
  pattern::Subgroup out;
  SISD_ASSIGN_OR_RETURN(intention_json, json.Get("intention"));
  SISD_ASSIGN_OR_RETURN(intention,
                        serialize::DecodeIntention(*intention_json));
  out.intention = std::move(intention);
  SISD_ASSIGN_OR_RETURN(extension_json, json.Get("extension"));
  SISD_ASSIGN_OR_RETURN(extension,
                        serialize::DecodeExtension(*extension_json));
  out.extension = std::move(extension);
  return out;
}

}  // namespace

JsonValue EncodeMinerConfig(const MinerConfig& config) {
  JsonValue out = JsonValue::Object();
  out.Set("search", EncodeSearchConfig(config.search));
  JsonValue dl = JsonValue::Object();
  dl.Set("gamma", JsonValue::Double(config.dl.gamma));
  dl.Set("eta", JsonValue::Double(config.dl.eta));
  out.Set("dl", std::move(dl));
  out.Set("mix", JsonValue::Str(config.mix == PatternMix::kLocationOnly
                                    ? "location_only"
                                    : "location_and_spread"));
  out.Set("spread_sparsity", JsonValue::Int(config.spread_sparsity));
  out.Set("spread_optimizer",
          EncodeOptimizerConfig(config.spread_optimizer));
  out.Set("prior_mean", config.prior_mean.has_value()
                            ? serialize::EncodeVector(*config.prior_mean)
                            : JsonValue::Null());
  out.Set("prior_covariance",
          config.prior_covariance.has_value()
              ? serialize::EncodeMatrix(*config.prior_covariance)
              : JsonValue::Null());
  out.Set("prior_ridge", JsonValue::Double(config.prior_ridge));
  out.Set("use_optimal_search", JsonValue::Bool(config.use_optimal_search));
  JsonValue list_gain = JsonValue::Object();
  list_gain.Set("alpha", JsonValue::Double(config.list_gain.alpha));
  list_gain.Set("beta", JsonValue::Double(config.list_gain.beta));
  list_gain.Set("variance_floor",
                JsonValue::Double(config.list_gain.variance_floor));
  list_gain.Set("normalized", JsonValue::Bool(config.list_gain.normalized));
  out.Set("list_gain", std::move(list_gain));
  return out;
}

Result<MinerConfig> DecodeMinerConfig(const JsonValue& json) {
  MinerConfig out;
  SISD_ASSIGN_OR_RETURN(search_json, json.Get("search"));
  SISD_ASSIGN_OR_RETURN(search_config, DecodeSearchConfig(*search_json));
  out.search = search_config;
  SISD_ASSIGN_OR_RETURN(dl_json, json.Get("dl"));
  SISD_ASSIGN_OR_RETURN(gamma, GetDoubleField(*dl_json, "gamma"));
  out.dl.gamma = gamma;
  SISD_ASSIGN_OR_RETURN(eta, GetDoubleField(*dl_json, "eta"));
  out.dl.eta = eta;
  SISD_ASSIGN_OR_RETURN(mix, GetStringField(json, "mix"));
  if (mix == "location_only") {
    out.mix = PatternMix::kLocationOnly;
  } else if (mix == "location_and_spread") {
    out.mix = PatternMix::kLocationAndSpread;
  } else {
    return Status::InvalidArgument("unknown pattern mix '" + mix + "'");
  }
  SISD_ASSIGN_OR_RETURN(sparsity, GetInt32Field(json, "spread_sparsity"));
  out.spread_sparsity = sparsity;
  SISD_ASSIGN_OR_RETURN(optimizer_json, json.Get("spread_optimizer"));
  SISD_ASSIGN_OR_RETURN(optimizer, DecodeOptimizerConfig(*optimizer_json));
  out.spread_optimizer = optimizer;
  SISD_ASSIGN_OR_RETURN(prior_mean_json, json.Get("prior_mean"));
  if (!prior_mean_json->is_null()) {
    SISD_ASSIGN_OR_RETURN(prior_mean,
                          serialize::DecodeVector(*prior_mean_json));
    out.prior_mean = std::move(prior_mean);
  }
  SISD_ASSIGN_OR_RETURN(prior_cov_json, json.Get("prior_covariance"));
  if (!prior_cov_json->is_null()) {
    SISD_ASSIGN_OR_RETURN(prior_cov,
                          serialize::DecodeMatrix(*prior_cov_json));
    out.prior_covariance = std::move(prior_cov);
  }
  SISD_ASSIGN_OR_RETURN(ridge, GetDoubleField(json, "prior_ridge"));
  out.prior_ridge = ridge;
  // Additive field (optimal-search PR): absent in older snapshots, which
  // must keep restoring — default off, same as MinerConfig.
  out.use_optimal_search = false;
  if (const JsonValue* optimal = json.Find("use_optimal_search")) {
    SISD_ASSIGN_OR_RETURN(v, optimal->GetBool());
    out.use_optimal_search = v;
  }
  // Additive field (subgroup-list PR): absent in older snapshots, which
  // restore with the default gain knobs — matching MinerConfig.
  if (const JsonValue* list_gain = json.Find("list_gain")) {
    SISD_ASSIGN_OR_RETURN(alpha, GetDoubleField(*list_gain, "alpha"));
    out.list_gain.alpha = alpha;
    SISD_ASSIGN_OR_RETURN(beta, GetDoubleField(*list_gain, "beta"));
    out.list_gain.beta = beta;
    SISD_ASSIGN_OR_RETURN(floor,
                          GetDoubleField(*list_gain, "variance_floor"));
    out.list_gain.variance_floor = floor;
    SISD_ASSIGN_OR_RETURN(normalized,
                          GetBoolField(*list_gain, "normalized"));
    out.list_gain.normalized = normalized;
  }
  return out;
}

JsonValue EncodeDatasetRef(const catalog::DatasetRef& ref) {
  JsonValue out = JsonValue::Object();
  out.Set("fingerprint",
          JsonValue::Str(catalog::FingerprintToHex(ref.fingerprint)));
  out.Set("name", JsonValue::Str(ref.name));
  return out;
}

Result<catalog::DatasetRef> DecodeDatasetRef(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("dataset_ref must be an object");
  }
  catalog::DatasetRef out;
  SISD_ASSIGN_OR_RETURN(hex, GetStringField(json, "fingerprint"));
  SISD_ASSIGN_OR_RETURN(fingerprint, catalog::FingerprintFromHex(hex));
  out.fingerprint = fingerprint;
  SISD_ASSIGN_OR_RETURN(name, GetStringField(json, "name"));
  out.name = std::move(name);
  return out;
}

JsonValue EncodeVersionLink(const SessionVersionLink& link) {
  JsonValue out = JsonValue::Object();
  out.Set("fingerprint",
          JsonValue::Str(catalog::FingerprintToHex(link.fingerprint)));
  out.Set("name", JsonValue::Str(link.name));
  out.Set("rows", JsonValue::Int(static_cast<int64_t>(link.rows)));
  return out;
}

Result<SessionVersionLink> DecodeVersionLink(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("version_chain entry must be an object");
  }
  SessionVersionLink out;
  SISD_ASSIGN_OR_RETURN(hex, GetStringField(json, "fingerprint"));
  SISD_ASSIGN_OR_RETURN(fingerprint, catalog::FingerprintFromHex(hex));
  out.fingerprint = fingerprint;
  SISD_ASSIGN_OR_RETURN(name, GetStringField(json, "name"));
  out.name = std::move(name);
  SISD_ASSIGN_OR_RETURN(rows, GetSizeField(json, "rows"));
  out.rows = rows;
  return out;
}

JsonValue EncodeScoredLocation(const ScoredLocationPattern& p) {
  JsonValue out = JsonValue::Object();
  out.Set("subgroup", EncodeSubgroup(p.pattern.subgroup));
  out.Set("mean", serialize::EncodeVector(p.pattern.mean));
  out.Set("score", EncodeLocationScore(p.score));
  return out;
}

Result<ScoredLocationPattern> DecodeScoredLocation(const JsonValue& json) {
  ScoredLocationPattern out;
  SISD_ASSIGN_OR_RETURN(subgroup_json, json.Get("subgroup"));
  SISD_ASSIGN_OR_RETURN(subgroup, DecodeSubgroup(*subgroup_json));
  out.pattern.subgroup = std::move(subgroup);
  SISD_ASSIGN_OR_RETURN(mean_json, json.Get("mean"));
  SISD_ASSIGN_OR_RETURN(mean, serialize::DecodeVector(*mean_json));
  out.pattern.mean = std::move(mean);
  SISD_ASSIGN_OR_RETURN(score_json, json.Get("score"));
  SISD_ASSIGN_OR_RETURN(score, DecodeLocationScore(*score_json));
  out.score = score;
  return out;
}

JsonValue EncodeScoredSpread(const ScoredSpreadPattern& p) {
  JsonValue out = JsonValue::Object();
  out.Set("subgroup", EncodeSubgroup(p.pattern.subgroup));
  out.Set("direction", serialize::EncodeVector(p.pattern.direction));
  out.Set("variance", JsonValue::Double(p.pattern.variance));
  out.Set("score", EncodeSpreadScore(p.score));
  return out;
}

Result<ScoredSpreadPattern> DecodeScoredSpread(const JsonValue& json) {
  ScoredSpreadPattern out;
  SISD_ASSIGN_OR_RETURN(subgroup_json, json.Get("subgroup"));
  SISD_ASSIGN_OR_RETURN(subgroup, DecodeSubgroup(*subgroup_json));
  out.pattern.subgroup = std::move(subgroup);
  SISD_ASSIGN_OR_RETURN(direction_json, json.Get("direction"));
  SISD_ASSIGN_OR_RETURN(direction,
                        serialize::DecodeVector(*direction_json));
  out.pattern.direction = std::move(direction);
  SISD_ASSIGN_OR_RETURN(variance, GetDoubleField(json, "variance"));
  out.pattern.variance = variance;
  SISD_ASSIGN_OR_RETURN(score_json, json.Get("score"));
  SISD_ASSIGN_OR_RETURN(score, DecodeSpreadScore(*score_json));
  out.score = score;
  return out;
}

JsonValue EncodeIterationResult(const IterationResult& iteration) {
  JsonValue out = JsonValue::Object();
  out.Set("location", EncodeScoredLocation(iteration.location));
  out.Set("spread", iteration.spread.has_value()
                        ? EncodeScoredSpread(*iteration.spread)
                        : JsonValue::Null());
  // Written only when set: snapshots of sessions that never hit a spread
  // failure keep their exact historical bytes.
  if (!iteration.spread_error.empty()) {
    out.Set("spread_error", JsonValue::Str(iteration.spread_error));
  }
  JsonValue ranked = JsonValue::Array();
  for (const ScoredLocationPattern& entry : iteration.ranked) {
    ranked.Append(EncodeScoredLocation(entry));
  }
  out.Set("ranked", std::move(ranked));
  out.Set("candidates_evaluated",
          JsonValue::Int(int64_t(iteration.candidates_evaluated)));
  out.Set("hit_time_budget", JsonValue::Bool(iteration.hit_time_budget));
  return out;
}

Result<IterationResult> DecodeIterationResult(const JsonValue& json) {
  IterationResult out;
  SISD_ASSIGN_OR_RETURN(location_json, json.Get("location"));
  SISD_ASSIGN_OR_RETURN(location, DecodeScoredLocation(*location_json));
  out.location = std::move(location);
  SISD_ASSIGN_OR_RETURN(spread_json, json.Get("spread"));
  if (!spread_json->is_null()) {
    SISD_ASSIGN_OR_RETURN(spread, DecodeScoredSpread(*spread_json));
    out.spread = std::move(spread);
  }
  if (const JsonValue* spread_error = json.Find("spread_error")) {
    SISD_ASSIGN_OR_RETURN(text, spread_error->GetString());
    out.spread_error = std::move(text);
  }
  SISD_ASSIGN_OR_RETURN(ranked_json, json.Get("ranked"));
  if (!ranked_json->is_array()) {
    return Status::InvalidArgument("ranked list must be an array");
  }
  out.ranked.reserve(ranked_json->size());
  for (const JsonValue& entry : ranked_json->items()) {
    SISD_ASSIGN_OR_RETURN(ranked_entry, DecodeScoredLocation(entry));
    out.ranked.push_back(std::move(ranked_entry));
  }
  SISD_ASSIGN_OR_RETURN(evaluated,
                        GetSizeField(json, "candidates_evaluated"));
  out.candidates_evaluated = evaluated;
  SISD_ASSIGN_OR_RETURN(hit_budget, GetBoolField(json, "hit_time_budget"));
  out.hit_time_budget = hit_budget;
  return out;
}

JsonValue EncodeSubgroupRule(const search::SubgroupRule& rule) {
  JsonValue out = JsonValue::Object();
  out.Set("intention", serialize::EncodeIntention(rule.intention));
  out.Set("extension", serialize::EncodeExtension(rule.extension));
  out.Set("captured", serialize::EncodeExtension(rule.captured));
  out.Set("mean", serialize::EncodeVector(rule.local.mean));
  out.Set("variance", serialize::EncodeVector(rule.local.variance));
  out.Set("gain", JsonValue::Double(rule.gain));
  return out;
}

Result<search::SubgroupRule> DecodeSubgroupRule(const JsonValue& json) {
  search::SubgroupRule out;
  SISD_ASSIGN_OR_RETURN(intention_json, json.Get("intention"));
  SISD_ASSIGN_OR_RETURN(intention,
                        serialize::DecodeIntention(*intention_json));
  out.intention = std::move(intention);
  SISD_ASSIGN_OR_RETURN(extension_json, json.Get("extension"));
  SISD_ASSIGN_OR_RETURN(extension,
                        serialize::DecodeExtension(*extension_json));
  out.extension = std::move(extension);
  SISD_ASSIGN_OR_RETURN(captured_json, json.Get("captured"));
  SISD_ASSIGN_OR_RETURN(captured,
                        serialize::DecodeExtension(*captured_json));
  out.captured = std::move(captured);
  if (out.captured.universe_size() != out.extension.universe_size()) {
    return Status::InvalidArgument(
        "rule captured/extension universe sizes disagree");
  }
  SISD_ASSIGN_OR_RETURN(mean_json, json.Get("mean"));
  SISD_ASSIGN_OR_RETURN(mean, serialize::DecodeVector(*mean_json));
  out.local.mean = std::move(mean);
  SISD_ASSIGN_OR_RETURN(variance_json, json.Get("variance"));
  SISD_ASSIGN_OR_RETURN(variance,
                        serialize::DecodeVector(*variance_json));
  out.local.variance = std::move(variance);
  if (out.local.variance.size() != out.local.mean.size()) {
    return Status::InvalidArgument(
        "rule mean/variance dimensions disagree");
  }
  SISD_ASSIGN_OR_RETURN(gain, GetDoubleField(json, "gain"));
  out.gain = gain;
  return out;
}

JsonValue EncodeListMineResult(const ListMineResult& result) {
  JsonValue out = JsonValue::Object();
  JsonValue rules = JsonValue::Array();
  for (const search::SubgroupRule& rule : result.rules) {
    rules.Append(EncodeSubgroupRule(rule));
  }
  out.Set("rules", std::move(rules));
  out.Set("total_gain", JsonValue::Double(result.total_gain));
  out.Set("candidates_evaluated",
          JsonValue::Int(int64_t(result.candidates_evaluated)));
  out.Set("exhausted", JsonValue::Bool(result.exhausted));
  out.Set("hit_time_budget", JsonValue::Bool(result.hit_time_budget));
  return out;
}

Result<ListMineResult> DecodeListMineResult(const JsonValue& json) {
  ListMineResult out;
  SISD_ASSIGN_OR_RETURN(rules_json, json.Get("rules"));
  if (!rules_json->is_array()) {
    return Status::InvalidArgument("list rules must be an array");
  }
  out.rules.reserve(rules_json->size());
  for (const JsonValue& entry : rules_json->items()) {
    SISD_ASSIGN_OR_RETURN(rule, DecodeSubgroupRule(entry));
    out.rules.push_back(std::move(rule));
  }
  SISD_ASSIGN_OR_RETURN(total_gain, GetDoubleField(json, "total_gain"));
  out.total_gain = total_gain;
  SISD_ASSIGN_OR_RETURN(evaluated,
                        GetSizeField(json, "candidates_evaluated"));
  out.candidates_evaluated = evaluated;
  SISD_ASSIGN_OR_RETURN(exhausted, GetBoolField(json, "exhausted"));
  out.exhausted = exhausted;
  SISD_ASSIGN_OR_RETURN(hit_budget, GetBoolField(json, "hit_time_budget"));
  out.hit_time_budget = hit_budget;
  return out;
}

}  // namespace sisd::core
