/// \file json.hpp
/// \brief Minimal dependency-free JSON document model, writer and parser —
/// the wire format of the session snapshot subsystem.
///
/// Design points that matter for snapshots:
///  - Objects preserve insertion order, so the writer is deterministic and
///    snapshot bytes are reproducible.
///  - Integers (int64) and doubles are distinct types. Doubles are written
///    with 17 significant digits (and a forced ".0" suffix when they would
///    otherwise read back as integers), which round-trips every finite IEEE
///    binary64 value bit-exactly — the property the "restore is
///    bit-identical" guarantee rests on. Non-finite doubles are written as
///    the JSON strings "Infinity" / "-Infinity" / "NaN" (the document stays
///    standard JSON); `GetDouble` accepts those strings back.
///  - No exceptions: the parser and all typed accessors return
///    Status/Result like the rest of the library.

#ifndef SISD_SERIALIZE_JSON_HPP_
#define SISD_SERIALIZE_JSON_HPP_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace sisd::serialize {

/// \brief One JSON value: null, bool, integer, double, string, array or
/// (insertion-ordered) object.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  /// Null by default.
  JsonValue() = default;

  /// \name Factories, one per type.
  /// @{
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool v) {
    JsonValue out;
    out.type_ = Type::kBool;
    out.bool_ = v;
    return out;
  }
  static JsonValue Int(int64_t v) {
    JsonValue out;
    out.type_ = Type::kInt;
    out.int_ = v;
    return out;
  }
  static JsonValue Double(double v) {
    JsonValue out;
    out.type_ = Type::kDouble;
    out.double_ = v;
    return out;
  }
  static JsonValue Str(std::string v) {
    JsonValue out;
    out.type_ = Type::kString;
    out.string_ = std::move(v);
    return out;
  }
  static JsonValue Array() {
    JsonValue out;
    out.type_ = Type::kArray;
    return out;
  }
  static JsonValue Object() {
    JsonValue out;
    out.type_ = Type::kObject;
    return out;
  }
  /// @}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  /// \name Typed accessors (Result-returning; wrong type = InvalidArgument).
  /// @{
  Result<bool> GetBool() const;
  Result<int64_t> GetInt() const;
  /// Accepts kDouble, kInt (exact conversion), and the non-finite string
  /// encodings "Infinity" / "-Infinity" / "NaN".
  Result<double> GetDouble() const;
  Result<std::string> GetString() const;
  /// `GetInt` restricted to non-negative values, converted to size_t.
  Result<size_t> GetSize() const;
  /// `GetInt` restricted to the range of `int` (never wrapped).
  Result<int> GetInt32() const;
  /// @}

  /// \name Array interface.
  /// @{
  /// Appends an element (value must be an array).
  void Append(JsonValue element);
  /// Number of elements (arrays) or members (objects); 0 otherwise.
  size_t size() const {
    return type_ == Type::kArray ? array_.size() : members_.size();
  }
  /// The elements (must be an array).
  const std::vector<JsonValue>& items() const {
    SISD_DCHECK(type_ == Type::kArray);
    return array_;
  }
  /// @}

  /// \name Object interface (insertion-ordered; duplicate keys overwrite).
  /// @{
  /// Sets a member (value must be an object).
  void Set(std::string key, JsonValue value);
  /// The member's value, or nullptr when absent (or not an object).
  const JsonValue* Find(const std::string& key) const;
  /// The member's value; NotFound when absent.
  Result<const JsonValue*> Get(const std::string& key) const;
  /// All members in insertion order (must be an object).
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    SISD_DCHECK(type_ == Type::kObject);
    return members_;
  }
  /// @}

  /// Serializes the value. `indent < 0` = compact single line; otherwise
  /// pretty-printed with `indent` spaces per nesting level. Deterministic:
  /// same value, same bytes.
  std::string Write(int indent = -1) const;

  /// Parses a complete JSON document (trailing non-whitespace = error).
  static Result<JsonValue> Parse(const std::string& text);

 private:
  void WriteTo(std::string* out, int indent, int depth) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// \name Object member readers: `json.Get(key)` followed by the typed
/// accessor (NotFound when the key is absent, InvalidArgument on a wrong
/// type). The one set every decoder reads fields through.
/// @{
Result<bool> GetBoolField(const JsonValue& json, const char* key);
Result<int64_t> GetIntField(const JsonValue& json, const char* key);
Result<int> GetInt32Field(const JsonValue& json, const char* key);
Result<size_t> GetSizeField(const JsonValue& json, const char* key);
Result<double> GetDoubleField(const JsonValue& json, const char* key);
Result<std::string> GetStringField(const JsonValue& json, const char* key);
/// @}

/// \name Decoding helpers over the readers above.
/// @{

/// The member reader for a field of type bool, int, size_t, double or
/// std::string (`uint64_t` is `size_t` here, so a 64-bit seed that must
/// read as a signed bit pattern goes through `GetIntField` instead).
inline auto FieldReader(bool*) { return GetBoolField; }
inline auto FieldReader(int*) { return GetInt32Field; }
inline auto FieldReader(size_t*) { return GetSizeField; }
inline auto FieldReader(double*) { return GetDoubleField; }
inline auto FieldReader(std::string*) { return GetStringField; }

/// Reads member `key` of `json` into `*out` with the reader for its type.
template <typename T>
Status ReadField(const JsonValue& json, const char* key, T* out) {
  SISD_ASSIGN_OR_RETURN(value, FieldReader(out)(json, key));
  *out = std::move(value);
  return Status::OK();
}

/// Decodes member `key` of `json` as `decode(member, args...)` into `*out`.
template <typename T, typename Decode, typename... Args>
Status ReadMember(const JsonValue& json, const char* key, T* out,
                  Decode decode, const Args&... args) {
  SISD_ASSIGN_OR_RETURN(member, json.Get(key));
  SISD_ASSIGN_OR_RETURN(value, decode(*member, args...));
  *out = std::move(value);
  return Status::OK();
}

/// A JSON array of `encode(item)` for each of `items`.
template <typename Items, typename Encode>
JsonValue EncodeArray(const Items& items, Encode encode) {
  JsonValue out = JsonValue::Array();
  for (const auto& item : items) out.Append(encode(item));
  return out;
}

/// Decodes each element of the array `json` with `decode` (a function of
/// the element, or a `JsonValue` accessor such as `&JsonValue::GetString`);
/// `what` names the array in the error for a non-array.
template <typename T, typename Decode>
Result<std::vector<T>> DecodeArray(const JsonValue& json, const char* what,
                                   Decode decode) {
  if (!json.is_array()) {
    return Status::InvalidArgument(std::string(what) + " must be an array");
  }
  std::vector<T> out;
  out.reserve(json.size());
  for (const JsonValue& entry : json.items()) {
    SISD_ASSIGN_OR_RETURN(item, std::invoke(decode, entry));
    out.push_back(std::move(item));
  }
  return out;
}

/// @}

/// \brief Formats one double exactly as the writer does (exposed for tests:
/// the bit-exact round-trip contract lives here).
std::string FormatJsonDouble(double value);

/// \brief Writes `text` to `path` atomically-ish (truncate + write + close),
/// returning IOError on failure.
Status WriteTextFile(const std::string& path, const std::string& text);

/// \brief Reads a whole file into a string; IOError when unreadable.
Result<std::string> ReadTextFile(const std::string& path);

}  // namespace sisd::serialize

#endif  // SISD_SERIALIZE_JSON_HPP_
