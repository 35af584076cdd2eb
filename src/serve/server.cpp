#include "serve/server.hpp"

#include <istream>
#include <ostream>

#include "common/strings.hpp"
#include "serialize/protocol.hpp"
#include "serve/service.hpp"

namespace sisd::serve {

using serialize::ProtocolRequest;
using serialize::ProtocolResponse;

std::string OversizedLineResponse(size_t max_line_bytes) {
  return serialize::WriteResponseLine(serialize::MakeErrorResponse(
      ProtocolRequest{},
      Status::InvalidArgument(StrFormat(
          "request line exceeds the %zu-byte bound", max_line_bytes))));
}

uint64_t ElapsedMicros(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

RequestOutcome ProcessRequest(SessionManager& manager,
                              const std::string& line,
                              ServeMetrics* metrics) {
  RequestOutcome outcome;
  const std::string_view trimmed = TrimWhitespace(line);
  if (trimmed.empty() || trimmed.front() == '#') {
    outcome.skipped = true;
    return outcome;
  }
  const auto start = std::chrono::steady_clock::now();
  Result<ProtocolRequest> request =
      serialize::ParseRequestLine(std::string(trimmed));
  ProtocolResponse response;
  if (!request.ok()) {
    // No id to echo: the line never became a request.
    response =
        serialize::MakeErrorResponse(ProtocolRequest{}, request.status());
  } else {
    outcome.verb = request.Value().verb;
    response = HandleRequest(manager, request.Value(), metrics);
  }
  outcome.ok = response.ok;
  outcome.code = response.ok ? StatusCode::kOk : response.error.code();
  outcome.response = serialize::WriteResponseLine(response);
  if (metrics != nullptr) {
    metrics->RecordRequest(outcome.verb, outcome.ok, ElapsedMicros(start));
  }
  return outcome;
}

namespace {

enum class LineRead { kLine, kOversized, kEof };

/// Reads one '\n'-terminated line into `*line` (newline not included),
/// never buffering more than `max_bytes` — the stream-side half of the
/// bounded-line contract. A final unterminated line still reads as a
/// line.
LineRead ReadBoundedLine(std::istream& in, size_t max_bytes,
                         std::string* line) {
  line->clear();
  std::streambuf* buf = in.rdbuf();
  bool read_any = false;
  for (;;) {
    const int c = buf->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      return read_any ? LineRead::kLine : LineRead::kEof;
    }
    read_any = true;
    if (c == '\n') return LineRead::kLine;
    if (line->size() >= max_bytes) return LineRead::kOversized;
    line->push_back(static_cast<char>(c));
  }
}

}  // namespace

ServeLoopStats ServeStream(SessionManager& manager, std::istream& in,
                           std::ostream& out,
                           const ServeStreamOptions& options) {
  ServeLoopStats stats;
  // A private collector when none is shared, so scripted `metrics`
  // requests answer instead of erroring.
  ServeMetrics local_metrics;
  ServeMetrics* metrics =
      options.metrics != nullptr ? options.metrics : &local_metrics;
  std::string line;
  for (;;) {
    const LineRead read = ReadBoundedLine(in, options.max_line_bytes, &line);
    if (read == LineRead::kEof) break;
    if (read == LineRead::kOversized) {
      ++stats.requests;
      ++stats.errors;
      ++stats.oversized;
      metrics->OnOversizedLine();
      out << OversizedLineResponse(options.max_line_bytes);
      out.flush();
      break;  // the stream analogue of a connection close
    }
    const RequestOutcome outcome = ProcessRequest(manager, line, metrics);
    if (outcome.skipped) continue;
    ++stats.requests;
    if (!outcome.ok) ++stats.errors;
    out << outcome.response;
    out.flush();
  }
  return stats;
}

}  // namespace sisd::serve
