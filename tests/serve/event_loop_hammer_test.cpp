// Thread-safety storm for the event-loop transport (run under TSan by
// scripts/check_tsan.sh): many client threads pipeline mixed traffic at
// a server with a small queue capacity, so dispatch, backpressure
// rejection, metrics recording and connection teardown all race.
// Clients validate every response (parse, id echo, expected status) and
// a final drain must leave the loop returning OK.

#include "serve/event_loop_server.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "serialize/protocol.hpp"
#include "serve/session_manager.hpp"

namespace sisd::serve {
namespace {

class SyncCaptureBuf : public std::streambuf {
 public:
  std::string Snapshot() {
    std::lock_guard<std::mutex> lock(mu_);
    return data_;
  }

 protected:
  int overflow(int c) override {
    if (c != EOF) {
      std::lock_guard<std::mutex> lock(mu_);
      data_.push_back(static_cast<char>(c));
    }
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::lock_guard<std::mutex> lock(mu_);
    data_.append(s, static_cast<size_t>(n));
    return n;
  }

 private:
  std::mutex mu_;
  std::string data_;
};

int ConnectTo(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WriteAll(int fd, const std::string& text) {
  size_t written = 0;
  while (written < text.size()) {
    const ssize_t n =
        ::write(fd, text.data() + written, text.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

std::vector<std::string> ReadLines(int fd, size_t count) {
  std::vector<std::string> lines;
  std::string buffer;
  char chunk[65536];
  while (lines.size() < count) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
    size_t pos;
    while ((pos = buffer.find('\n')) != std::string::npos) {
      lines.push_back(buffer.substr(0, pos));
      buffer.erase(0, pos + 1);
    }
  }
  return lines;
}

TEST(EventLoopHammerTest, ConcurrentAnalystsWithBackpressure) {
  constexpr size_t kClients = 6;
  constexpr size_t kRounds = 4;

  SessionManager manager((ServeConfig()));
  SyncCaptureBuf announce_buf;
  std::ostream announce(&announce_buf);
  ServeMetrics metrics;
  EventLoopConfig config;
  config.num_workers = 4;
  config.queue_capacity = 3;  // small: force rejection races
  config.max_connections = kClients;
  std::thread server([&] {
    const Status status =
        ServeEventLoop(manager, config, announce, &metrics, nullptr);
    EXPECT_TRUE(status.ok()) << status.ToString();
  });

  int port = 0;
  for (int i = 0; i < 1000 && port == 0; ++i) {
    const std::string text = announce_buf.Snapshot();
    const size_t colon = text.rfind(':');
    if (colon != std::string::npos && text.find('\n') != std::string::npos) {
      port = std::atoi(text.c_str() + colon + 1);
    }
    if (port == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(port, 0);

  std::atomic<uint64_t> invalid{0};
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = ConnectTo(port);
      if (fd < 0) {
        ++invalid;
        return;
      }
      const std::string session = StrFormat("h%zu", c);
      // Awaited open; then rounds of pipelined
      // mine+mine_list+metrics+history.
      if (!WriteAll(fd, "{\"id\":1,\"verb\":\"open\",\"session\":\"" +
                            session +
                            "\",\"scenario\":\"synthetic\","
                            "\"config\":{\"beam_width\":4,\"max_depth\":1,"
                            "\"top_k\":8,\"min_coverage\":5}}\n") ||
          ReadLines(fd, 1).size() != 1) {
        ++invalid;
        ::close(fd);
        return;
      }
      int64_t next_id = 2;
      for (size_t round = 0; round < kRounds; ++round) {
        std::string burst;
        const int64_t first = next_id;
        for (int i = 0; i < 3; ++i) {
          burst += "{\"id\":" + std::to_string(next_id++) +
                   ",\"verb\":\"mine\",\"session\":\"" + session + "\"}\n";
        }
        burst += "{\"id\":" + std::to_string(next_id++) +
                 ",\"verb\":\"mine_list\",\"session\":\"" + session +
                 "\",\"rules\":1}\n";
        burst += "{\"id\":" + std::to_string(next_id++) +
                 ",\"verb\":\"metrics\"}\n";
        burst += "{\"id\":" + std::to_string(next_id++) +
                 ",\"verb\":\"history\",\"session\":\"" + session + "\"}\n";
        if (!WriteAll(fd, burst)) {
          ++invalid;
          break;
        }
        const std::vector<std::string> lines =
            ReadLines(fd, size_t(next_id - first));
        if (lines.size() != size_t(next_id - first)) {
          ++invalid;
          break;
        }
        for (const std::string& line : lines) {
          Result<serialize::ProtocolResponse> response =
              serialize::ParseResponseLine(line);
          if (!response.ok() || !response.Value().has_id) {
            ++invalid;
            continue;
          }
          if (response.Value().ok) {
            ++accepted;
          } else if (response.Value().error.code() ==
                     StatusCode::kUnavailable) {
            ++rejected;
          } else {
            ++invalid;
          }
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& client : clients) client.join();
  server.join();

  EXPECT_EQ(invalid.load(), 0u);
  EXPECT_GT(accepted.load(), 0u);
  // Every client-observed rejection is accounted in the server metrics.
  EXPECT_EQ(metrics.rejected(), rejected.load());
  EXPECT_EQ(metrics.live_connections(), 0u);
  EXPECT_EQ(metrics.connections_accepted(), kClients);
}

}  // namespace
}  // namespace sisd::serve
