// Wire-codec coverage for the sisd_serve protocol: request/response round
// trips, reserved-key handling, error mapping, and malformed input.

#include "serialize/protocol.hpp"

#include <gtest/gtest.h>

namespace sisd::serialize {
namespace {

TEST(ProtocolRequestTest, RoundTripsReservedAndParamKeys) {
  ProtocolRequest request;
  request.id = 42;
  request.has_id = true;
  request.verb = "mine";
  request.session = "s1";
  request.params.Set("iterations", JsonValue::Int(3));
  request.params.Set("if_generation", JsonValue::Int(7));

  const JsonValue encoded = EncodeRequest(request);
  Result<ProtocolRequest> decoded = DecodeRequest(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.Value().has_id);
  EXPECT_EQ(decoded.Value().id, 42);
  EXPECT_EQ(decoded.Value().verb, "mine");
  EXPECT_EQ(decoded.Value().session, "s1");
  ASSERT_NE(decoded.Value().params.Find("iterations"), nullptr);
  EXPECT_EQ(decoded.Value().params.Find("iterations")->GetInt().Value(), 3);
  ASSERT_NE(decoded.Value().params.Find("if_generation"), nullptr);

  // Deterministic bytes: encode(decode(encode(x))) == encode(x).
  EXPECT_EQ(EncodeRequest(decoded.Value()).Write(), encoded.Write());
}

TEST(ProtocolRequestTest, ParseLineRequiresObjectWithVerb) {
  EXPECT_FALSE(ParseRequestLine("[1,2]").ok());
  EXPECT_FALSE(ParseRequestLine("{\"session\":\"s\"}").ok());
  EXPECT_FALSE(ParseRequestLine("not json").ok());
  Result<ProtocolRequest> ok = ParseRequestLine("{\"verb\":\"stats\"}");
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(ok.Value().has_id);
  EXPECT_TRUE(ok.Value().session.empty());
  EXPECT_EQ(ok.Value().params.size(), 0u);
}

TEST(ProtocolResponseTest, OkResponseRoundTrips) {
  ProtocolRequest request;
  request.id = 7;
  request.has_id = true;
  request.verb = "open";
  request.session = "crime";
  JsonValue payload = JsonValue::Object();
  payload.Set("rows", JsonValue::Int(500));

  const ProtocolResponse response = MakeOkResponse(request, payload);
  const std::string line = WriteResponseLine(response);
  EXPECT_EQ(line.back(), '\n');
  Result<ProtocolResponse> decoded = ParseResponseLine(line);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded.Value().ok);
  EXPECT_EQ(decoded.Value().id, 7);
  EXPECT_EQ(decoded.Value().verb, "open");
  EXPECT_EQ(decoded.Value().session, "crime");
  EXPECT_EQ(decoded.Value().result.Find("rows")->GetInt().Value(), 500);
}

TEST(ProtocolResponseTest, ErrorResponseCarriesCodeAndMessage) {
  const ProtocolRequest request{.verb = "mine", .session = "s"};
  const ProtocolResponse response = MakeErrorResponse(
      request, Status::Conflict("generation mismatch"));
  Result<ProtocolResponse> decoded =
      ParseResponseLine(WriteResponseLine(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded.Value().ok);
  EXPECT_EQ(decoded.Value().error.code(), StatusCode::kConflict);
  EXPECT_EQ(decoded.Value().error.message(), "generation mismatch");
}

TEST(ProtocolResponseTest, StatusCodeNamesRoundTrip) {
  for (StatusCode code :
       {StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kAlreadyExists,
        StatusCode::kIOError, StatusCode::kNumericalError,
        StatusCode::kNotImplemented, StatusCode::kUnknown,
        StatusCode::kConflict}) {
    EXPECT_EQ(StatusCodeFromString(StatusCodeToString(code)), code);
  }
  // Unrecognized names decode as Unknown rather than failing.
  EXPECT_EQ(StatusCodeFromString("SomethingNew"), StatusCode::kUnknown);
}

TEST(ProtocolResponseTest, RejectsOkErrorContradictions) {
  EXPECT_FALSE(ParseResponseLine("{\"ok\":true}").ok());  // missing result
  EXPECT_FALSE(
      ParseResponseLine(
          "{\"ok\":false,\"error\":{\"code\":\"OK\",\"message\":\"\"}}")
          .ok());
}

}  // namespace
}  // namespace sisd::serialize
