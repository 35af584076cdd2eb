#include "serialize/snapshot.hpp"

#include <bit>
#include <cstdio>
#include <cstring>

#include "common/strings.hpp"
#include "linalg/cholesky.hpp"

namespace sisd::serialize {

JsonValue EncodeVector(const linalg::Vector& v) {
  JsonValue out = JsonValue::Array();
  for (size_t i = 0; i < v.size(); ++i) out.Append(JsonValue::Double(v[i]));
  return out;
}

Result<linalg::Vector> DecodeVector(const JsonValue& json) {
  if (!json.is_array()) {
    return Status::InvalidArgument("vector must be a JSON array");
  }
  linalg::Vector out(json.size());
  for (size_t i = 0; i < json.size(); ++i) {
    SISD_ASSIGN_OR_RETURN(entry, json.items()[i].GetDouble());
    out[i] = entry;
  }
  return out;
}

JsonValue EncodeMatrix(const linalg::Matrix& m) {
  JsonValue out = JsonValue::Object();
  out.Set("rows", JsonValue::Int(int64_t(m.rows())));
  out.Set("cols", JsonValue::Int(int64_t(m.cols())));
  JsonValue data = JsonValue::Array();
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.RowData(r);
    for (size_t c = 0; c < m.cols(); ++c) {
      data.Append(JsonValue::Double(row[c]));
    }
  }
  out.Set("data", std::move(data));
  return out;
}

Result<linalg::Matrix> DecodeMatrix(const JsonValue& json) {
  SISD_ASSIGN_OR_RETURN(rows, GetSizeField(json, "rows"));
  SISD_ASSIGN_OR_RETURN(cols, GetSizeField(json, "cols"));
  SISD_ASSIGN_OR_RETURN(data, json.Get("data"));
  // Guard the shape check against size_t overflow in `rows * cols`
  // (hostile shapes like 2^32 x 2^32 must fail cleanly, not wrap to 0 and
  // read out of bounds), and only allocate after the element count is
  // known to match the actual array length.
  if (!data->is_array() ||
      (rows != 0 && (data->size() / rows != cols ||
                     data->size() % rows != 0)) ||
      (rows == 0 && data->size() != 0)) {
    return Status::InvalidArgument("matrix data length disagrees with shape");
  }
  linalg::Matrix out(rows, cols);
  size_t k = 0;
  for (size_t r = 0; r < rows; ++r) {
    double* row = out.RowData(r);
    for (size_t c = 0; c < cols; ++c, ++k) {
      SISD_ASSIGN_OR_RETURN(entry, data->items()[k].GetDouble());
      row[c] = entry;
    }
  }
  return out;
}

JsonValue EncodeExtension(const pattern::Extension& extension) {
  JsonValue out = JsonValue::Object();
  out.Set("n", JsonValue::Int(int64_t(extension.universe_size())));
  std::string hex;
  hex.reserve(extension.blocks().size() * 16);
  char buf[17];
  for (uint64_t block : extension.blocks()) {
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(block));
    hex.append(buf, 16);
  }
  out.Set("blocks", JsonValue::Str(std::move(hex)));
  return out;
}

Result<pattern::Extension> DecodeExtension(const JsonValue& json) {
  SISD_ASSIGN_OR_RETURN(n, GetSizeField(json, "n"));
  SISD_ASSIGN_OR_RETURN(hex, GetStringField(json, "blocks"));
  // Validate before allocating: a hostile `n` must fail on the length
  // check (the hex string bounds the real size), not abort in a huge
  // bitset allocation.
  const size_t expected_blocks = (n + 63) / 64;
  if (n > hex.size() * 4 || hex.size() != expected_blocks * 16) {
    return Status::InvalidArgument(
        StrFormat("extension block string has %zu hex chars, expected %zu",
                  hex.size(), expected_blocks * 16));
  }
  pattern::Extension out(n);
  for (size_t b = 0; b < expected_blocks; ++b) {
    uint64_t block = 0;
    for (size_t k = 0; k < 16; ++k) {
      const char c = hex[b * 16 + k];
      uint64_t nibble;
      if (c >= '0' && c <= '9') {
        nibble = uint64_t(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        nibble = uint64_t(c - 'a' + 10);
      } else {
        return Status::InvalidArgument("bad hex digit in extension blocks");
      }
      block = (block << 4) | nibble;
    }
    while (block != 0) {
      const int bit = std::countr_zero(block);
      const size_t row = (b << 6) + size_t(bit);
      if (row >= n) {
        return Status::InvalidArgument(
            "extension has a set bit beyond its universe");
      }
      out.Insert(row);
      block &= block - 1;
    }
  }
  return out;
}

namespace {

const char* ConditionOpName(pattern::ConditionOp op) {
  switch (op) {
    case pattern::ConditionOp::kLessEqual:
      return "le";
    case pattern::ConditionOp::kGreaterEqual:
      return "ge";
    case pattern::ConditionOp::kEquals:
      return "eq";
    case pattern::ConditionOp::kNotEquals:
      return "ne";
  }
  return "?";
}

Result<pattern::ConditionOp> ConditionOpFromName(const std::string& name) {
  if (name == "le") return pattern::ConditionOp::kLessEqual;
  if (name == "ge") return pattern::ConditionOp::kGreaterEqual;
  if (name == "eq") return pattern::ConditionOp::kEquals;
  if (name == "ne") return pattern::ConditionOp::kNotEquals;
  return Status::InvalidArgument("unknown condition op '" + name + "'");
}

}  // namespace

JsonValue EncodeCondition(const pattern::Condition& condition) {
  JsonValue out = JsonValue::Object();
  out.Set("attribute", JsonValue::Int(int64_t(condition.attribute)));
  out.Set("op", JsonValue::Str(ConditionOpName(condition.op)));
  out.Set("threshold", JsonValue::Double(condition.threshold));
  out.Set("level", JsonValue::Int(condition.level));
  return out;
}

Result<pattern::Condition> DecodeCondition(const JsonValue& json) {
  pattern::Condition out;
  SISD_RETURN_NOT_OK(ReadField(json, "attribute", &out.attribute));
  SISD_ASSIGN_OR_RETURN(op_name, GetStringField(json, "op"));
  SISD_ASSIGN_OR_RETURN(op, ConditionOpFromName(op_name));
  out.op = op;
  SISD_RETURN_NOT_OK(ReadField(json, "threshold", &out.threshold));
  SISD_RETURN_NOT_OK(ReadField(json, "level", &out.level));
  return out;
}

JsonValue EncodeIntention(const pattern::Intention& intention) {
  return EncodeArray(intention.conditions(), EncodeCondition);
}

Result<pattern::Intention> DecodeIntention(const JsonValue& json) {
  SISD_ASSIGN_OR_RETURN(conditions, DecodeArray<pattern::Condition>(
                                        json, "intention", DecodeCondition));
  return pattern::Intention(std::move(conditions));
}

JsonValue EncodeColumn(const data::Column& column) {
  JsonValue out = JsonValue::Object();
  out.Set("name", JsonValue::Str(column.name()));
  switch (column.kind()) {
    case data::AttributeKind::kNumeric:
      out.Set("kind", JsonValue::Str("numeric"));
      break;
    case data::AttributeKind::kOrdinal:
      out.Set("kind", JsonValue::Str("ordinal"));
      break;
    case data::AttributeKind::kCategorical:
      out.Set("kind", JsonValue::Str("categorical"));
      break;
    case data::AttributeKind::kBinary:
      out.Set("kind", JsonValue::Str("binary"));
      break;
  }
  if (data::IsOrderable(column.kind())) {
    out.Set("values", EncodeArray(column.numeric_values(), JsonValue::Double));
  } else {
    out.Set("codes", EncodeArray(column.codes(), JsonValue::Int));
    out.Set("labels", EncodeArray(column.labels(), JsonValue::Str));
  }
  return out;
}

Result<data::Column> DecodeColumn(const JsonValue& json) {
  SISD_ASSIGN_OR_RETURN(name, GetStringField(json, "name"));
  SISD_ASSIGN_OR_RETURN(kind, GetStringField(json, "kind"));
  if (kind == "numeric" || kind == "ordinal") {
    SISD_ASSIGN_OR_RETURN(values_json, json.Get("values"));
    SISD_ASSIGN_OR_RETURN(values, DecodeVector(*values_json));
    std::vector<double> raw(values.values());
    return kind == "numeric"
               ? data::Column::Numeric(std::move(name), std::move(raw))
               : data::Column::Ordinal(std::move(name), std::move(raw));
  }
  if (kind != "categorical" && kind != "binary") {
    return Status::InvalidArgument("unknown column kind '" + kind + "'");
  }
  SISD_ASSIGN_OR_RETURN(codes_json, json.Get("codes"));
  SISD_ASSIGN_OR_RETURN(codes, DecodeArray<int32_t>(*codes_json, "column codes",
                                                    &JsonValue::GetInt32));
  SISD_ASSIGN_OR_RETURN(labels_json, json.Get("labels"));
  SISD_ASSIGN_OR_RETURN(labels,
                        DecodeArray<std::string>(*labels_json, "column labels",
                                                 &JsonValue::GetString));
  for (int32_t code : codes) {
    if (code < 0 || size_t(code) >= labels.size()) {
      return Status::InvalidArgument(
          StrFormat("column '%s' has code %d outside its label table",
                    name.c_str(), code));
    }
  }
  if (kind == "binary") {
    if (labels.size() != 2) {
      return Status::InvalidArgument(
          StrFormat("binary column '%s' needs exactly 2 labels, has %zu",
                    name.c_str(), labels.size()));
    }
    std::vector<bool> bools(codes.size());
    for (size_t i = 0; i < codes.size(); ++i) bools[i] = codes[i] != 0;
    return data::Column::Binary(std::move(name), bools, std::move(labels[0]),
                                std::move(labels[1]));
  }
  return data::Column::Categorical(std::move(name), std::move(codes),
                                   std::move(labels));
}

JsonValue EncodeDataTable(const data::DataTable& table) {
  JsonValue out = JsonValue::Object();
  JsonValue columns = JsonValue::Array();
  for (size_t j = 0; j < table.num_columns(); ++j) {
    columns.Append(EncodeColumn(table.column(j)));
  }
  out.Set("columns", std::move(columns));
  return out;
}

Result<data::DataTable> DecodeDataTable(const JsonValue& json) {
  SISD_ASSIGN_OR_RETURN(columns, json.Get("columns"));
  if (!columns->is_array()) {
    return Status::InvalidArgument("table columns must be an array");
  }
  data::DataTable out;
  for (const JsonValue& entry : columns->items()) {
    SISD_ASSIGN_OR_RETURN(column, DecodeColumn(entry));
    SISD_RETURN_NOT_OK(out.AddColumn(std::move(column)));
  }
  return out;
}

JsonValue EncodeDataset(const data::Dataset& dataset) {
  JsonValue out = JsonValue::Object();
  out.Set("name", JsonValue::Str(dataset.name));
  out.Set("target_names", EncodeArray(dataset.target_names, JsonValue::Str));
  out.Set("targets", EncodeMatrix(dataset.targets));
  out.Set("descriptions", EncodeDataTable(dataset.descriptions));
  return out;
}

Result<data::Dataset> DecodeDataset(const JsonValue& json) {
  data::Dataset out;
  SISD_RETURN_NOT_OK(ReadField(json, "name", &out.name));
  SISD_ASSIGN_OR_RETURN(target_names, json.Get("target_names"));
  SISD_ASSIGN_OR_RETURN(names,
                        DecodeArray<std::string>(*target_names, "target_names",
                                                 &JsonValue::GetString));
  out.target_names = std::move(names);
  SISD_RETURN_NOT_OK(ReadMember(json, "targets", &out.targets, DecodeMatrix));
  SISD_RETURN_NOT_OK(ReadMember(json, "descriptions", &out.descriptions,
                                DecodeDataTable));
  SISD_RETURN_NOT_OK(out.Validate());
  return out;
}

JsonValue EncodeBackgroundModel(const model::BackgroundModel& m) {
  JsonValue out = JsonValue::Object();
  out.Set("num_rows", JsonValue::Int(int64_t(m.num_rows())));
  out.Set("dim", JsonValue::Int(int64_t(m.dim())));
  JsonValue groups = JsonValue::Array();
  for (size_t g = 0; g < m.num_groups(); ++g) {
    const model::ParameterGroup& group = m.group(g);
    JsonValue entry = JsonValue::Object();
    entry.Set("mu", EncodeVector(group.mu));
    entry.Set("sigma", EncodeMatrix(group.sigma));
    entry.Set("rows", EncodeExtension(group.rows));
    const std::shared_ptr<const linalg::Cholesky> factor =
        m.CachedGroupFactor(g);
    entry.Set("factor",
              factor ? EncodeMatrix(factor->L()) : JsonValue::Null());
    groups.Append(std::move(entry));
  }
  out.Set("groups", std::move(groups));
  return out;
}

Result<model::BackgroundModel> DecodeBackgroundModel(const JsonValue& json) {
  SISD_ASSIGN_OR_RETURN(num_rows, GetSizeField(json, "num_rows"));
  SISD_ASSIGN_OR_RETURN(dim, GetSizeField(json, "dim"));
  SISD_ASSIGN_OR_RETURN(groups_json, json.Get("groups"));
  if (!groups_json->is_array()) {
    return Status::InvalidArgument("model groups must be an array");
  }
  std::vector<model::ParameterGroup> groups;
  std::vector<std::shared_ptr<const linalg::Cholesky>> factors;
  groups.reserve(groups_json->size());
  factors.reserve(groups_json->size());
  for (const JsonValue& entry : groups_json->items()) {
    model::ParameterGroup group;
    SISD_RETURN_NOT_OK(ReadMember(entry, "mu", &group.mu, DecodeVector));
    SISD_RETURN_NOT_OK(ReadMember(entry, "sigma", &group.sigma, DecodeMatrix));
    SISD_RETURN_NOT_OK(ReadMember(entry, "rows", &group.rows, DecodeExtension));
    SISD_ASSIGN_OR_RETURN(factor_json, entry.Get("factor"));
    if (factor_json->is_null()) {
      factors.push_back(nullptr);
    } else {
      SISD_ASSIGN_OR_RETURN(factor_l, DecodeMatrix(*factor_json));
      SISD_ASSIGN_OR_RETURN(factor,
                            linalg::Cholesky::FromFactor(std::move(factor_l)));
      factors.push_back(
          std::make_shared<const linalg::Cholesky>(std::move(factor)));
    }
    groups.push_back(std::move(group));
  }
  return model::BackgroundModel::RestoreFromParts(
      num_rows, dim, std::move(groups), std::move(factors));
}

JsonValue EncodeConstraint(const model::AssimilatedConstraint& constraint) {
  JsonValue out = JsonValue::Object();
  const bool is_location =
      constraint.kind == model::AssimilatedConstraint::Kind::kLocation;
  out.Set("kind", JsonValue::Str(is_location ? "location" : "spread"));
  out.Set("extension", EncodeExtension(constraint.extension));
  out.Set("mean", EncodeVector(constraint.mean));
  out.Set("direction", is_location ? JsonValue::Null()
                                   : EncodeVector(constraint.direction));
  out.Set("variance", JsonValue::Double(constraint.variance));
  return out;
}

Result<model::AssimilatedConstraint> DecodeConstraint(const JsonValue& json) {
  model::AssimilatedConstraint out;
  SISD_ASSIGN_OR_RETURN(kind, GetStringField(json, "kind"));
  if (kind == "location") {
    out.kind = model::AssimilatedConstraint::Kind::kLocation;
  } else if (kind == "spread") {
    out.kind = model::AssimilatedConstraint::Kind::kSpread;
  } else {
    return Status::InvalidArgument("unknown constraint kind '" + kind + "'");
  }
  SISD_RETURN_NOT_OK(
      ReadMember(json, "extension", &out.extension, DecodeExtension));
  SISD_RETURN_NOT_OK(ReadMember(json, "mean", &out.mean, DecodeVector));
  SISD_ASSIGN_OR_RETURN(direction_json, json.Get("direction"));
  if (!direction_json->is_null()) {
    SISD_ASSIGN_OR_RETURN(direction, DecodeVector(*direction_json));
    out.direction = std::move(direction);
  }
  SISD_RETURN_NOT_OK(ReadField(json, "variance", &out.variance));
  return out;
}

JsonValue EncodeAssimilator(const model::PatternAssimilator& assimilator) {
  JsonValue out = JsonValue::Object();
  out.Set("initial_model",
          EncodeBackgroundModel(assimilator.initial_model()));
  out.Set("model", EncodeBackgroundModel(assimilator.model()));
  out.Set("constraints",
          EncodeArray(assimilator.constraints(), EncodeConstraint));
  return out;
}

Result<model::PatternAssimilator> DecodeAssimilator(const JsonValue& json) {
  SISD_ASSIGN_OR_RETURN(initial_json, json.Get("initial_model"));
  SISD_ASSIGN_OR_RETURN(initial_model, DecodeBackgroundModel(*initial_json));
  SISD_ASSIGN_OR_RETURN(model_json, json.Get("model"));
  SISD_ASSIGN_OR_RETURN(current_model, DecodeBackgroundModel(*model_json));
  SISD_ASSIGN_OR_RETURN(constraints_json, json.Get("constraints"));
  SISD_ASSIGN_OR_RETURN(constraints,
                        DecodeArray<model::AssimilatedConstraint>(
                            *constraints_json, "constraints",
                            DecodeConstraint));
  return model::PatternAssimilator::Restore(std::move(initial_model),
                                            std::move(current_model),
                                            std::move(constraints));
}

}  // namespace sisd::serialize
