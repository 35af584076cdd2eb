#include "core/session_io.hpp"

#include <bit>
#include <cstdint>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "serialize/snapshot.hpp"

namespace sisd::core {

using serialize::EncodeArray;
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
  SISD_RETURN_NOT_OK(ReadField(json, "beam_width", &out.beam_width));
  SISD_RETURN_NOT_OK(ReadField(json, "max_depth", &out.max_depth));
  SISD_RETURN_NOT_OK(
      ReadField(json, "num_split_points", &out.num_split_points));
  // Additive schema field. Snapshots written before the flag existed came
  // from builds whose pool unconditionally emitted != exclusions, so an
  // absent field must decode to `true` — otherwise a restored session
  // would mine over a smaller alphabet than the session that saved it,
  // breaking the byte-identical-resume guarantee. New snapshots always
  // carry the field (false by default: the paper's Cortana alphabet).
  out.include_exclusions = true;
  if (json.Find("include_exclusions") != nullptr) {
    SISD_RETURN_NOT_OK(
        ReadField(json, "include_exclusions", &out.include_exclusions));
  }
  SISD_RETURN_NOT_OK(ReadField(json, "top_k", &out.top_k));
  SISD_RETURN_NOT_OK(ReadField(json, "min_coverage", &out.min_coverage));
  SISD_RETURN_NOT_OK(ReadField(json, "max_coverage_fraction",
                               &out.max_coverage_fraction));
  SISD_RETURN_NOT_OK(
      ReadField(json, "time_budget_seconds", &out.time_budget_seconds));
  SISD_RETURN_NOT_OK(ReadField(json, "num_threads", &out.num_threads));
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
  SISD_RETURN_NOT_OK(ReadField(json, "max_iterations", &out.max_iterations));
  SISD_RETURN_NOT_OK(ReadField(json, "max_backtracks", &out.max_backtracks));
  SISD_RETURN_NOT_OK(
      ReadField(json, "gradient_tolerance", &out.gradient_tolerance));
  SISD_RETURN_NOT_OK(ReadField(json, "armijo_c1", &out.armijo_c1));
  SISD_RETURN_NOT_OK(ReadField(json, "initial_step", &out.initial_step));
  SISD_RETURN_NOT_OK(
      ReadField(json, "num_random_starts", &out.num_random_starts));
  SISD_ASSIGN_OR_RETURN(seed, GetIntField(json, "seed"));
  out.seed = uint64_t(seed);
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
  SISD_RETURN_NOT_OK(ReadField(json, "ic", &out.ic));
  SISD_RETURN_NOT_OK(ReadField(json, "dl", &out.dl));
  SISD_RETURN_NOT_OK(ReadField(json, "si", &out.si));
  SISD_ASSIGN_OR_RETURN(approx, json.Get("approx"));
  SISD_RETURN_NOT_OK(ReadField(*approx, "alpha", &out.approx.alpha));
  SISD_RETURN_NOT_OK(ReadField(*approx, "beta", &out.approx.beta));
  SISD_RETURN_NOT_OK(ReadField(*approx, "m", &out.approx.m));
  SISD_RETURN_NOT_OK(ReadField(*approx, "a1", &out.approx.a1));
  SISD_RETURN_NOT_OK(ReadField(*approx, "a2", &out.approx.a2));
  SISD_RETURN_NOT_OK(ReadField(*approx, "a3", &out.approx.a3));
  return out;
}

/// The one check every decoded intention passes before it touches the
/// dataset, for history entries and list rules alike: each condition names
/// a column of `table`, uses an op that suits the column's kind, and (for
/// `=` / `!=`) a level inside the column's label table.
Status ValidateIntention(const data::DataTable& table,
                         const pattern::Intention& intention) {
  for (const pattern::Condition& c : intention.conditions()) {
    if (c.attribute >= table.num_columns()) {
      return Status::InvalidArgument(
          StrFormat("condition names attribute %zu, but the dataset has %zu "
                    "description attributes",
                    c.attribute, table.num_columns()));
    }
    const data::Column& column = table.column(c.attribute);
    const bool interval = c.op == pattern::ConditionOp::kLessEqual ||
                          c.op == pattern::ConditionOp::kGreaterEqual;
    if (interval != data::IsOrderable(column.kind())) {
      return Status::InvalidArgument(StrFormat(
          "condition '%s' does not suit %s attribute '%s'",
          pattern::ConditionOpToString(c.op),
          data::AttributeKindToString(column.kind()), column.name().c_str()));
    }
    if (!interval &&
        (c.level < 0 || static_cast<size_t>(c.level) >= column.NumLevels())) {
      return Status::InvalidArgument(
          StrFormat("condition level %d is outside attribute '%s' (%zu "
                    "levels)",
                    c.level, column.name().c_str(), column.NumLevels()));
    }
  }
  return Status::OK();
}

Result<pattern::Intention> DecodeValidIntention(
    const JsonValue& json, const data::DataTable& table) {
  SISD_ASSIGN_OR_RETURN(intention, serialize::DecodeIntention(json));
  SISD_RETURN_NOT_OK(ValidateIntention(table, intention));
  return intention;
}

/// A ranked entry is `{intention, ic}`.
JsonValue EncodeRankedEntry(const ScoredLocationPattern& entry) {
  JsonValue out = JsonValue::Object();
  out.Set("intention",
          serialize::EncodeIntention(entry.pattern.subgroup.intention));
  out.Set("ic", JsonValue::Double(entry.score.ic));
  return out;
}

/// The spread pattern's subgroup is its location's, so only the direction,
/// variance and score are stored.
JsonValue EncodeScoredSpread(const ScoredSpreadPattern& p) {
  JsonValue out = JsonValue::Object();
  out.Set("direction", serialize::EncodeVector(p.pattern.direction));
  out.Set("variance", JsonValue::Double(p.pattern.variance));
  out.Set("score", EncodeSpreadScore(p.score));
  return out;
}

/// An iteration stores no `location`: it is always `ranked[0]` (`MineNext`
/// and `AssimilateIntention` both set it so).
JsonValue EncodeIterationResult(const IterationResult& iteration) {
  JsonValue out = JsonValue::Object();
  out.Set("spread", iteration.spread.has_value()
                        ? EncodeScoredSpread(*iteration.spread)
                        : JsonValue::Null());
  // Written only when set: the spread step failed after the location
  // constraint was assimilated.
  if (!iteration.spread_error.empty()) {
    out.Set("spread_error", JsonValue::Str(iteration.spread_error));
  }
  out.Set("ranked", EncodeArray(iteration.ranked, EncodeRankedEntry));
  out.Set("candidates_evaluated",
          JsonValue::Int(int64_t(iteration.candidates_evaluated)));
  out.Set("hit_time_budget", JsonValue::Bool(iteration.hit_time_budget));
  return out;
}

/// Decodes iterations and rebuilds what they do not store on the session's
/// dataset: each ranked entry's extension from its intention, its mean from
/// the targets (`LocationPattern::Compute`, as `MineNext` does), its DL and
/// SI from its IC. Each distinct condition is evaluated once, keyed by
/// value; an extension is the AND of its conditions' bitsets, the same bits
/// `Intention::Evaluate` yields. Version-1 iterations also carry the derived
/// copies (and `location`); they are ignored.
class HistoryDecoder {
 public:
  HistoryDecoder(int64_t schema_version, const data::Dataset& dataset,
                 const si::DescriptionLengthParams& dl)
      : schema_version_(schema_version), dataset_(dataset), dl_(dl) {}

  Result<IterationResult> DecodeIteration(const JsonValue& json) {
    IterationResult out;
    SISD_ASSIGN_OR_RETURN(ranked_json, json.Get("ranked"));
    SISD_ASSIGN_OR_RETURN(
        ranked, DecodeArray<ScoredLocationPattern>(
                    *ranked_json, "ranked list",
                    [this](const JsonValue& e) { return DecodeEntry(e); }));
    if (ranked.empty()) {
      return Status::InvalidArgument("ranked list must not be empty");
    }
    out.ranked = std::move(ranked);
    out.location = out.ranked.front();
    SISD_ASSIGN_OR_RETURN(spread_json, json.Get("spread"));
    if (!spread_json->is_null()) {
      ScoredSpreadPattern spread;
      spread.pattern.subgroup = out.location.pattern.subgroup;
      SISD_RETURN_NOT_OK(ReadMember(*spread_json, "direction",
                                    &spread.pattern.direction,
                                    serialize::DecodeVector));
      SISD_RETURN_NOT_OK(
          ReadField(*spread_json, "variance", &spread.pattern.variance));
      SISD_RETURN_NOT_OK(ReadMember(*spread_json, "score", &spread.score,
                                    DecodeSpreadScore));
      out.spread = std::move(spread);
    }
    if (json.Find("spread_error") != nullptr) {
      SISD_RETURN_NOT_OK(ReadField(json, "spread_error", &out.spread_error));
    }
    SISD_RETURN_NOT_OK(
        ReadField(json, "candidates_evaluated", &out.candidates_evaluated));
    SISD_RETURN_NOT_OK(
        ReadField(json, "hit_time_budget", &out.hit_time_budget));
    return out;
  }

 private:
  /// Version 1 nests the intention in `subgroup` and the IC in `score`.
  Result<ScoredLocationPattern> DecodeEntry(const JsonValue& json) {
    const JsonValue* intention_holder = &json;
    const JsonValue* ic_holder = &json;
    if (schema_version_ == 1) {
      SISD_ASSIGN_OR_RETURN(subgroup_json, json.Get("subgroup"));
      SISD_ASSIGN_OR_RETURN(score_json, json.Get("score"));
      intention_holder = subgroup_json;
      ic_holder = score_json;
    }
    pattern::Subgroup subgroup;
    SISD_RETURN_NOT_OK(ReadMember(*intention_holder, "intention",
                                  &subgroup.intention, DecodeValidIntention,
                                  dataset_.descriptions));
    subgroup.extension = pattern::Extension(dataset_.num_rows(),
                                            /*full=*/true);
    for (const pattern::Condition& c : subgroup.intention.conditions()) {
      const ConditionKey key{c.attribute, c.op,
                             std::bit_cast<uint64_t>(c.threshold), c.level};
      auto it = conditions_.find(key);
      if (it == conditions_.end()) {
        it = conditions_.emplace(key, c.Evaluate(dataset_.descriptions))
                 .first;
      }
      subgroup.extension.IntersectWith(it->second);
    }
    if (subgroup.extension.empty()) {
      return Status::InvalidArgument("history intention matches no rows");
    }
    double ic = 0.0;
    SISD_RETURN_NOT_OK(ReadField(*ic_holder, "ic", &ic));
    ScoredLocationPattern out;
    out.pattern = pattern::LocationPattern::Compute(std::move(subgroup),
                                                    dataset_.targets);
    out.score = si::LocationScoreFromIC(
        ic, out.pattern.subgroup.intention.size(), dl_);
    return out;
  }

  using ConditionKey =
      std::tuple<size_t, pattern::ConditionOp, uint64_t, int32_t>;

  int64_t schema_version_;
  const data::Dataset& dataset_;
  const si::DescriptionLengthParams& dl_;
  std::map<ConditionKey, pattern::Extension> conditions_;
};

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

Result<search::SubgroupRule> DecodeSubgroupRule(
    const JsonValue& json, const data::DataTable& table) {
  search::SubgroupRule out;
  SISD_RETURN_NOT_OK(ReadMember(json, "intention", &out.intention,
                                DecodeValidIntention, table));
  SISD_RETURN_NOT_OK(ReadMember(json, "extension", &out.extension,
                                serialize::DecodeExtension));
  SISD_RETURN_NOT_OK(ReadMember(json, "captured", &out.captured,
                                serialize::DecodeExtension));
  if (out.extension.universe_size() != table.num_rows() ||
      out.captured.universe_size() != table.num_rows()) {
    return Status::InvalidArgument(
        "list rule extension universe disagrees with the dataset");
  }
  SISD_RETURN_NOT_OK(
      ReadMember(json, "mean", &out.local.mean, serialize::DecodeVector));
  SISD_RETURN_NOT_OK(ReadMember(json, "variance", &out.local.variance,
                                serialize::DecodeVector));
  if (out.local.variance.size() != out.local.mean.size()) {
    return Status::InvalidArgument(
        "rule mean/variance dimensions disagree");
  }
  SISD_RETURN_NOT_OK(ReadField(json, "gain", &out.gain));
  return out;
}

JsonValue EncodeListMineResult(const ListMineResult& result) {
  JsonValue out = JsonValue::Object();
  out.Set("rules", EncodeArray(result.rules, EncodeSubgroupRule));
  out.Set("total_gain", JsonValue::Double(result.total_gain));
  out.Set("candidates_evaluated",
          JsonValue::Int(int64_t(result.candidates_evaluated)));
  out.Set("exhausted", JsonValue::Bool(result.exhausted));
  out.Set("hit_time_budget", JsonValue::Bool(result.hit_time_budget));
  return out;
}

Result<ListMineResult> DecodeListMineResult(const JsonValue& json,
                                            const data::DataTable& table) {
  ListMineResult out;
  SISD_ASSIGN_OR_RETURN(rules_json, json.Get("rules"));
  SISD_ASSIGN_OR_RETURN(
      rules, DecodeArray<search::SubgroupRule>(
                 *rules_json, "list rules", [&table](const JsonValue& e) {
                   return DecodeSubgroupRule(e, table);
                 }));
  out.rules = std::move(rules);
  SISD_RETURN_NOT_OK(ReadField(json, "total_gain", &out.total_gain));
  SISD_RETURN_NOT_OK(
      ReadField(json, "candidates_evaluated", &out.candidates_evaluated));
  SISD_RETURN_NOT_OK(ReadField(json, "exhausted", &out.exhausted));
  SISD_RETURN_NOT_OK(ReadField(json, "hit_time_budget", &out.hit_time_budget));
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
  SISD_RETURN_NOT_OK(ReadField(json, "name", &out.name));
  SISD_RETURN_NOT_OK(ReadField(json, "rows", &out.rows));
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
  SISD_RETURN_NOT_OK(
      ReadMember(json, "search", &out.search, DecodeSearchConfig));
  SISD_ASSIGN_OR_RETURN(dl_json, json.Get("dl"));
  SISD_RETURN_NOT_OK(ReadField(*dl_json, "gamma", &out.dl.gamma));
  SISD_RETURN_NOT_OK(ReadField(*dl_json, "eta", &out.dl.eta));
  SISD_ASSIGN_OR_RETURN(mix, GetStringField(json, "mix"));
  if (mix == "location_only") {
    out.mix = PatternMix::kLocationOnly;
  } else if (mix == "location_and_spread") {
    out.mix = PatternMix::kLocationAndSpread;
  } else {
    return Status::InvalidArgument("unknown pattern mix '" + mix + "'");
  }
  SISD_RETURN_NOT_OK(
      ReadField(json, "spread_sparsity", &out.spread_sparsity));
  SISD_RETURN_NOT_OK(ReadMember(json, "spread_optimizer",
                                &out.spread_optimizer, DecodeOptimizerConfig));
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
  SISD_RETURN_NOT_OK(ReadField(json, "prior_ridge", &out.prior_ridge));
  // Additive field (optimal-search PR): absent in older snapshots, which
  // must keep restoring — default off, same as MinerConfig.
  if (json.Find("use_optimal_search") != nullptr) {
    SISD_RETURN_NOT_OK(
        ReadField(json, "use_optimal_search", &out.use_optimal_search));
  }
  // Additive field (subgroup-list PR): absent in older snapshots, which
  // restore with the default gain knobs — matching MinerConfig.
  if (const JsonValue* list_gain = json.Find("list_gain")) {
    SISD_RETURN_NOT_OK(ReadField(*list_gain, "alpha", &out.list_gain.alpha));
    SISD_RETURN_NOT_OK(ReadField(*list_gain, "beta", &out.list_gain.beta));
    SISD_RETURN_NOT_OK(ReadField(*list_gain, "variance_floor",
                                 &out.list_gain.variance_floor));
    SISD_RETURN_NOT_OK(
        ReadField(*list_gain, "normalized", &out.list_gain.normalized));
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
  SISD_RETURN_NOT_OK(ReadField(json, "name", &out.name));
  return out;
}

JsonValue EncodeVersionChain(const std::vector<SessionVersionLink>& chain) {
  return EncodeArray(chain, EncodeVersionLink);
}

Result<std::vector<SessionVersionLink>> DecodeVersionChain(
    const JsonValue& json) {
  return DecodeArray<SessionVersionLink>(json, "version_chain",
                                         DecodeVersionLink);
}

JsonValue EncodeHistory(const std::vector<IterationResult>& history) {
  return EncodeArray(history, EncodeIterationResult);
}

Result<std::vector<IterationResult>> DecodeHistory(
    const JsonValue& json, int64_t schema_version,
    const data::Dataset& dataset, const si::DescriptionLengthParams& dl) {
  HistoryDecoder decoder(schema_version, dataset, dl);
  return DecodeArray<IterationResult>(
      json, "session history",
      [&decoder](const JsonValue& e) { return decoder.DecodeIteration(e); });
}

JsonValue EncodeListHistory(const std::vector<ListMineResult>& list_history) {
  return EncodeArray(list_history, EncodeListMineResult);
}

Result<std::vector<ListMineResult>> DecodeListHistory(
    const JsonValue& json, const data::DataTable& table) {
  return DecodeArray<ListMineResult>(
      json, "session list_history",
      [&table](const JsonValue& e) { return DecodeListMineResult(e, table); });
}

}  // namespace sisd::core
