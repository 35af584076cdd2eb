// sisd_serve — concurrent mining-session server.
//
// Speaks the line-delimited JSON protocol of docs/PROTOCOL.md over
// stdin/stdout (default), a request-script file (--script), or a
// loopback TCP socket served by a non-blocking epoll event loop
// (--epoll PORT, fixed worker pool, pipelined requests, bounded
// per-session queues). All sessions share one scoring pool and
// at most --max-resident of them stay in memory; colder ones spill to
// --spill-dir snapshots and restore transparently.
//
//   sisd_serve                              # stdio, defaults
//   sisd_serve --script requests.jsonl      # scripted run (CI smoke)
//   sisd_serve --epoll 0 --workers 4        # ephemeral port, 4 workers
//   sisd_serve --epoll 0 --spill-dir /tmp/s # event loop, disk spill
//
// Responses go to stdout only; diagnostics (banner, the listen line)
// go to stderr, so stdout is byte-for-byte the protocol transcript.
// SIGTERM/SIGINT start a graceful drain on the socket transport:
// the listener stops, in-flight requests finish and flush, then exit.

#include <csignal>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/fingerprint.hpp"
#include "common/status.hpp"
#include "common/strings.hpp"
#include "search/thread_pool.hpp"
#include "serve/event_loop_server.hpp"
#include "serve/metrics.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/session_manager.hpp"

namespace sisd {
namespace {

constexpr const char* kUsage = R"(sisd_serve — concurrent subgroup-discovery session server

USAGE
  sisd_serve [--script FILE] [--epoll PORT] [options]

TRANSPORT
  (default)          read requests from stdin, answer on stdout
  --script FILE      read requests from FILE instead of stdin
  --epoll PORT       serve loopback TCP on a non-blocking event loop (0 =
                     ephemeral port; the port is announced on stderr):
                     pipelined requests, a fixed worker pool, bounded
                     per-session queues (overflow answers Unavailable),
                     graceful drain on SIGTERM

EVENT-LOOP OPTIONS (--epoll)
  --workers N        dispatch workers executing requests (default 2);
                     distinct from --threads, which parallelizes within
                     one mine
  --queue-capacity N per-session queue bound before requests are
                     rejected with Unavailable (default 64)
  --max-connections N
                     total connections accepted before the server drains
                     and exits (default 0 = serve until SIGTERM)

SERVICE OPTIONS
  --max-resident N   sessions kept in memory before LRU spill (default 64)
  --spill-dir DIR    directory for eviction/save snapshots (default: spill
                     to in-memory snapshots; 'save' then needs a 'path')
  --threads N        shared scoring-pool workers (default 1, 0 = auto)
  --catalog-bytes N  dataset-catalog byte budget before LRU drop of
                     unreferenced datasets (default 0 = unlimited)
  --max-line-bytes N request-line length bound for every transport
                     (default 1048576); longer lines answer
                     InvalidArgument and close the connection
  --preload SPEC     load a dataset into the catalog at startup
                     (repeatable). SPEC is a scenario name (crime, ...) or
                     PATH=TARGET[,TARGET...] for a CSV file (ingested
                     through the streaming chunked reader); sessions then
                     open it with {"dataset_ref": NAME} and share one
                     dataset + condition pool.
)";

/// Prints the usage text; its verb list is read from the verb table.
void PrintUsage(std::FILE* out) {
  std::fprintf(out, "%s\nPROTOCOL\n  One JSON request per line; verbs:\n ",
               kUsage);
  const std::span<const serve::Verb> verbs = serve::Verbs();
  size_t column = 1;
  for (size_t i = 0; i < verbs.size(); ++i) {
    const size_t width = std::strlen(verbs[i].name) + 2;  // " name,"
    if (column + width > 76) {
      std::fprintf(out, "\n ");
      column = 1;
    }
    std::fprintf(out, " %s%c", verbs[i].name,
                 i + 1 < verbs.size() ? ',' : '.');
    column += width;
  }
  std::fprintf(out,
               "\n  See docs/PROTOCOL.md for the full schema and worked "
               "examples.\n");
}

/// Set from the SIGTERM/SIGINT handler; polled by the event loop.
std::atomic<bool> g_shutdown{false};

void OnTerminate(int) { g_shutdown.store(true); }

struct ServeArgs {
  serve::ServeConfig config;
  std::optional<std::string> script;
  std::optional<int> epoll_port;
  size_t workers = 2;
  size_t queue_capacity = 64;
  size_t max_connections = 0;
  size_t max_line_bytes = serve::kDefaultMaxLineBytes;
  std::vector<std::string> preloads;
};

Result<long long> ParseIntFlag(const std::string& flag,
                               const std::string& raw) {
  std::optional<long long> parsed = ParseInt(raw);
  if (!parsed.has_value()) {
    return Status::InvalidArgument(flag + " expects an integer, got '" +
                                   raw + "'");
  }
  return *parsed;
}

// Every flag takes a value. Recognising the flag before taking its value
// names an unknown last flag as unknown.
constexpr std::array<std::string_view, 11> kValueFlags = {
    "--script", "--epoll", "--workers", "--queue-capacity", "--max-connections",
    "--max-line-bytes", "--max-resident", "--spill-dir", "--threads",
    "--catalog-bytes", "--preload"};

Result<ServeArgs> ParseArgs(int argc, char** argv) {
  ServeArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      continue;  // already handled by Main's pre-scan
    }
    if (std::ranges::find(kValueFlags, flag) == kValueFlags.end()) {
      return Status::InvalidArgument("unknown flag '" + flag + "'");
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag " + flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--script") {
      args.script = value;
    } else if (flag == "--epoll") {
      SISD_ASSIGN_OR_RETURN(port, ParseIntFlag(flag, value));
      if (port < 0 || port > 65535) {
        return Status::InvalidArgument("--epoll expects a port in 0..65535");
      }
      args.epoll_port = int(port);
    } else if (flag == "--workers") {
      SISD_ASSIGN_OR_RETURN(n, ParseIntFlag(flag, value));
      if (n < 1 || n > 256) {
        return Status::InvalidArgument("--workers must be in 1..256");
      }
      args.workers = size_t(n);
    } else if (flag == "--queue-capacity") {
      SISD_ASSIGN_OR_RETURN(n, ParseIntFlag(flag, value));
      if (n < 1) {
        return Status::InvalidArgument("--queue-capacity must be >= 1");
      }
      args.queue_capacity = size_t(n);
    } else if (flag == "--max-connections") {
      SISD_ASSIGN_OR_RETURN(n, ParseIntFlag(flag, value));
      if (n < 0) {
        return Status::InvalidArgument(
            "--max-connections must be >= 0 (0 = unlimited)");
      }
      args.max_connections = size_t(n);
    } else if (flag == "--max-line-bytes") {
      SISD_ASSIGN_OR_RETURN(n, ParseIntFlag(flag, value));
      if (n < 64) {
        return Status::InvalidArgument("--max-line-bytes must be >= 64");
      }
      args.max_line_bytes = size_t(n);
    } else if (flag == "--max-resident") {
      SISD_ASSIGN_OR_RETURN(n, ParseIntFlag(flag, value));
      if (n < 1) {
        return Status::InvalidArgument("--max-resident must be >= 1");
      }
      args.config.max_resident = size_t(n);
    } else if (flag == "--spill-dir") {
      args.config.spill_dir = value;
    } else if (flag == "--threads") {
      SISD_ASSIGN_OR_RETURN(n, ParseIntFlag(flag, value));
      if (n < 0 || n > int(search::ThreadPool::kMaxThreads)) {
        return Status::InvalidArgument(
            "--threads must be in 0..256 (0 = auto)");
      }
      args.config.num_threads = int(n);
    } else if (flag == "--catalog-bytes") {
      SISD_ASSIGN_OR_RETURN(n, ParseIntFlag(flag, value));
      if (n < 0) {
        return Status::InvalidArgument(
            "--catalog-bytes must be >= 0 (0 = unlimited)");
      }
      args.config.catalog_max_bytes = size_t(n);
    } else if (flag == "--preload") {
      args.preloads.push_back(value);
    }
  }
  return args;
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") {
      PrintUsage(stdout);
      return 0;
    }
  }
  Result<ServeArgs> parsed = ParseArgs(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n\n", parsed.status().message().c_str());
    PrintUsage(stderr);
    return 2;
  }
  const ServeArgs& args = parsed.Value();
  serve::SessionManager manager(args.config);
  for (const std::string& spec : args.preloads) {
    Result<catalog::PinnedDataset> loaded =
        serve::PreloadDataset(*manager.catalog(), spec);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: preload '%s': %s\n", spec.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "sisd_serve: preloaded '%s' fingerprint=%s bytes=%zu%s\n",
                 loaded.Value().dataset->name.c_str(),
                 catalog::FingerprintToHex(loaded.Value().fingerprint).c_str(),
                 loaded.Value().bytes,
                 loaded.Value().reused ? " (reused)" : "");
  }
  std::fprintf(stderr,
               "sisd_serve: max_resident=%zu workers=%zu spill=%s\n",
               std::max<size_t>(args.config.max_resident, 1),
               manager.thread_pool()->num_workers(),
               args.config.spill_dir.empty()
                   ? "<memory>"
                   : args.config.spill_dir.c_str());

  if (args.epoll_port.has_value()) {
    std::signal(SIGTERM, OnTerminate);
    std::signal(SIGINT, OnTerminate);
    serve::ServeMetrics metrics;
    serve::EventLoopConfig config;
    config.port = *args.epoll_port;
    config.num_workers = args.workers;
    config.queue_capacity = args.queue_capacity;
    config.max_line_bytes = args.max_line_bytes;
    config.max_connections = args.max_connections;
    const Status status = serve::ServeEventLoop(manager, config, std::cerr,
                                                &metrics, &g_shutdown);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::fprintf(
        stderr, "sisd_serve: %llu requests, %llu errors, %llu rejected\n",
        static_cast<unsigned long long>(metrics.requests()),
        static_cast<unsigned long long>(metrics.errors()),
        static_cast<unsigned long long>(metrics.rejected()));
    return 0;
  }

  serve::ServeLoopStats stats;
  serve::ServeStreamOptions stream_options;
  stream_options.max_line_bytes = args.max_line_bytes;
  if (args.script.has_value()) {
    std::ifstream in(*args.script);
    if (!in) {
      std::fprintf(stderr, "error: cannot open script '%s'\n",
                   args.script->c_str());
      return 1;
    }
    stats = serve::ServeStream(manager, in, std::cout, stream_options);
  } else {
    stats = serve::ServeStream(manager, std::cin, std::cout, stream_options);
  }
  std::fprintf(stderr, "sisd_serve: %llu requests, %llu errors\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.errors));
  return 0;
}

}  // namespace
}  // namespace sisd

int main(int argc, char** argv) { return sisd::Main(argc, argv); }
