#include "serialize/protocol.hpp"

namespace sisd::serialize {

JsonValue EncodeRequest(const ProtocolRequest& request) {
  JsonValue out = JsonValue::Object();
  if (request.has_id) out.Set("id", JsonValue::Int(request.id));
  out.Set("verb", JsonValue::Str(request.verb));
  if (!request.session.empty()) {
    out.Set("session", JsonValue::Str(request.session));
  }
  if (request.params.is_object()) {
    for (const auto& [key, value] : request.params.members()) {
      out.Set(key, value);
    }
  }
  return out;
}

Result<ProtocolRequest> DecodeRequest(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  ProtocolRequest request;
  for (const auto& [key, value] : json.members()) {
    if (key == "id") {
      SISD_ASSIGN_OR_RETURN(id, value.GetInt());
      request.id = id;
      request.has_id = true;
    } else if (key == "verb") {
      SISD_ASSIGN_OR_RETURN(verb, value.GetString());
      request.verb = verb;
    } else if (key == "session") {
      SISD_ASSIGN_OR_RETURN(session, value.GetString());
      request.session = session;
    } else {
      request.params.Set(key, value);
    }
  }
  if (request.verb.empty()) {
    return Status::InvalidArgument("request is missing the 'verb' key");
  }
  return request;
}

Result<ProtocolRequest> ParseRequestLine(const std::string& line) {
  SISD_ASSIGN_OR_RETURN(json, JsonValue::Parse(line));
  return DecodeRequest(json);
}

JsonValue EncodeResponse(const ProtocolResponse& response) {
  JsonValue out = JsonValue::Object();
  if (response.has_id) out.Set("id", JsonValue::Int(response.id));
  if (!response.verb.empty()) out.Set("verb", JsonValue::Str(response.verb));
  if (!response.session.empty()) {
    out.Set("session", JsonValue::Str(response.session));
  }
  out.Set("ok", JsonValue::Bool(response.ok));
  if (response.ok) {
    out.Set("result", response.result);
  } else {
    JsonValue error = JsonValue::Object();
    error.Set("code",
              JsonValue::Str(StatusCodeToString(response.error.code())));
    error.Set("message", JsonValue::Str(response.error.message()));
    out.Set("error", std::move(error));
  }
  return out;
}

Result<ProtocolResponse> DecodeResponse(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("response must be a JSON object");
  }
  ProtocolResponse response;
  if (const JsonValue* id = json.Find("id")) {
    SISD_ASSIGN_OR_RETURN(value, id->GetInt());
    response.id = value;
    response.has_id = true;
  }
  if (const JsonValue* verb = json.Find("verb")) {
    SISD_ASSIGN_OR_RETURN(value, verb->GetString());
    response.verb = value;
  }
  if (const JsonValue* session = json.Find("session")) {
    SISD_ASSIGN_OR_RETURN(value, session->GetString());
    response.session = value;
  }
  SISD_ASSIGN_OR_RETURN(ok, GetBoolField(json, "ok"));
  response.ok = ok;
  if (ok) {
    SISD_ASSIGN_OR_RETURN(result, json.Get("result"));
    if (!result->is_object()) {
      return Status::InvalidArgument("response 'result' must be an object");
    }
    response.result = *result;
  } else {
    SISD_ASSIGN_OR_RETURN(error, json.Get("error"));
    SISD_ASSIGN_OR_RETURN(code, GetStringField(*error, "code"));
    SISD_ASSIGN_OR_RETURN(message, GetStringField(*error, "message"));
    response.error = Status(StatusCodeFromString(code), message);
    if (response.error.ok()) {
      return Status::InvalidArgument(
          "error response must not carry code 'OK'");
    }
  }
  return response;
}

std::string WriteResponseLine(const ProtocolResponse& response) {
  return EncodeResponse(response).Write() + "\n";
}

Result<ProtocolResponse> ParseResponseLine(const std::string& line) {
  SISD_ASSIGN_OR_RETURN(json, JsonValue::Parse(line));
  return DecodeResponse(json);
}

ProtocolResponse MakeOkResponse(const ProtocolRequest& request,
                                JsonValue result) {
  ProtocolResponse response;
  response.id = request.id;
  response.has_id = request.has_id;
  response.verb = request.verb;
  response.session = request.session;
  response.ok = true;
  response.result = std::move(result);
  return response;
}

ProtocolResponse MakeErrorResponse(const ProtocolRequest& request,
                                   Status error) {
  SISD_DCHECK(!error.ok());
  ProtocolResponse response;
  response.id = request.id;
  response.has_id = request.has_id;
  response.verb = request.verb;
  response.session = request.session;
  response.ok = false;
  response.error = std::move(error);
  return response;
}

StatusCode StatusCodeFromString(const std::string& name) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kOutOfRange,   StatusCode::kNotFound,
      StatusCode::kAlreadyExists, StatusCode::kIOError,
      StatusCode::kNumericalError, StatusCode::kNotImplemented,
      StatusCode::kUnknown,      StatusCode::kConflict,
      StatusCode::kUnavailable,
  };
  for (StatusCode code : kCodes) {
    if (name == StatusCodeToString(code)) return code;
  }
  return StatusCode::kUnknown;
}

}  // namespace sisd::serialize
