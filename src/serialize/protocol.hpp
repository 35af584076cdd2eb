/// \file protocol.hpp
/// \brief Wire types and codecs for the sisd_serve line-delimited JSON
/// protocol (docs/PROTOCOL.md is the schema reference).
///
/// One request per line, one response per line. A request is a flat JSON
/// object carrying three reserved keys — `id` (optional client-chosen
/// correlation integer), `verb` (required), `session` (the session name;
/// which verbs require it is the serve layer's verb table) — plus
/// verb-specific parameters, which the codec collects into `params`
/// without interpreting them.
/// A response echoes `id`/`verb`/`session` and carries either
/// `"ok": true` with a `result` object or `"ok": false` with an
/// `error: {code, message}` object (codes are `StatusCodeToString` names).
///
/// Codecs follow the snapshot conventions: deterministic bytes (object
/// members in fixed order), Result-based validation, no exceptions.

#ifndef SISD_SERIALIZE_PROTOCOL_HPP_
#define SISD_SERIALIZE_PROTOCOL_HPP_

#include <cstdint>
#include <string>

#include "common/status.hpp"
#include "serialize/json.hpp"

namespace sisd::serialize {

/// \brief One decoded protocol request.
struct ProtocolRequest {
  /// Client correlation id; echoed verbatim when present.
  int64_t id = 0;
  bool has_id = false;
  /// The operation: a verb of docs/PROTOCOL.md (the serve layer's verb
  /// table decides which names exist).
  std::string verb;
  /// Target session name ("" when absent, e.g. for `stats`).
  std::string session;
  /// Verb-specific parameters: every request member other than the
  /// reserved `id`/`verb`/`session` keys, in request order.
  JsonValue params = JsonValue::Object();
};

/// \brief One protocol response (success payload or error).
struct ProtocolResponse {
  int64_t id = 0;
  bool has_id = false;
  std::string verb;
  std::string session;
  bool ok = false;
  /// Success payload (`result` on the wire); ignored when !ok.
  JsonValue result = JsonValue::Object();
  /// Failure cause; must be non-OK when !ok.
  Status error;
};

/// \name Request codec.
/// @{
JsonValue EncodeRequest(const ProtocolRequest& request);
Result<ProtocolRequest> DecodeRequest(const JsonValue& json);
/// Parses one request line (must be a JSON object).
Result<ProtocolRequest> ParseRequestLine(const std::string& line);
/// @}

/// \name Response codec.
/// @{
JsonValue EncodeResponse(const ProtocolResponse& response);
Result<ProtocolResponse> DecodeResponse(const JsonValue& json);
/// Compact single-line encoding, newline-terminated (the wire format).
std::string WriteResponseLine(const ProtocolResponse& response);
/// Parses one response line (the client side of the codec).
Result<ProtocolResponse> ParseResponseLine(const std::string& line);
/// @}

/// \brief Builds the success response for `request` with payload `result`.
ProtocolResponse MakeOkResponse(const ProtocolRequest& request,
                                JsonValue result);

/// \brief Builds the error response for `request` (pass a default-built
/// request for lines that failed to parse: the response then carries no id).
ProtocolResponse MakeErrorResponse(const ProtocolRequest& request,
                                   Status error);

/// \brief Maps a `StatusCodeToString` name back to its code (Unknown for
/// unrecognized names, so foreign responses still decode).
StatusCode StatusCodeFromString(const std::string& name);

}  // namespace sisd::serialize

#endif  // SISD_SERIALIZE_PROTOCOL_HPP_
