#include "serve/event_loop_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/strings.hpp"
#include "serialize/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace sisd::serve {

using serialize::ProtocolRequest;
using serialize::ProtocolResponse;

namespace {

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// One client connection. `in_buffer` and epoll registration state are
/// IO-thread-only; everything under `mu` is shared with the workers
/// (response bytes, in-flight count, liveness).
struct Connection {
  int fd = -1;
  uint64_t id = 0;

  std::string in_buffer;      // IO thread only
  bool want_write = false;    // IO thread only: EPOLLOUT armed
  bool input_stopped = false; // IO thread only: EOF seen or reads stopped

  std::mutex mu;
  std::string out_buffer;     // response bytes not yet written
  size_t out_offset = 0;      // bytes of out_buffer already written
  size_t inflight = 0;        // requests queued or executing
  bool close_after_flush = false;  // fatal: close once output drains
  bool dead = false;          // fd closed; workers drop responses
};

using ConnectionPtr = std::shared_ptr<Connection>;

/// One parsed request bound for a worker.
struct WorkItem {
  ConnectionPtr conn;
  ProtocolRequest request;
  std::chrono::steady_clock::time_point enqueued_at;
};

/// Fixed worker pool over bounded per-key FIFO queues. A key (session
/// name, or a per-connection control key for sessionless verbs) is owned
/// by at most one worker at a time, so items of one key execute in
/// arrival order while distinct keys run concurrently.
class Dispatcher {
 public:
  Dispatcher(size_t num_workers, size_t queue_capacity,
             std::function<void(WorkItem&&)> handler,
             ServeMetrics* metrics)
      : capacity_(queue_capacity),
        handler_(std::move(handler)),
        metrics_(metrics) {
    workers_.reserve(num_workers);
    for (size_t i = 0; i < num_workers; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~Dispatcher() { Stop(); }

  /// False when the key's queue is full (the caller answers
  /// kUnavailable); true when the item was accepted.
  bool Enqueue(const std::string& key, WorkItem item) {
    std::lock_guard<std::mutex> lock(mu_);
    Queue& queue = queues_[key];
    if (queue.items.size() >= capacity_) {
      if (queue.items.empty() && !queue.active) queues_.erase(key);
      return false;
    }
    queue.items.push_back(std::move(item));
    ++pending_;
    if (metrics_ != nullptr) metrics_->OnEnqueued();
    if (!queue.active) {
      queue.active = true;
      ready_.push_back(key);
      cv_.notify_one();
    }
    return true;
  }

  /// Queued + executing items (the loop's idle check).
  size_t pending() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_;
  }

  /// Stops the workers once every queue is empty; idempotent.
  void Stop() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      idle_cv_.wait(lock, [this] { return pending_ == 0; });
      stop_ = true;
      cv_.notify_all();
    }
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

 private:
  struct Queue {
    std::deque<WorkItem> items;
    /// True while the key sits in `ready_` or a worker executes it —
    /// the single-owner bit behind the per-session ordering guarantee.
    bool active = false;
  };

  void WorkerLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return stop_ || !ready_.empty(); });
      if (ready_.empty()) {
        if (stop_) return;
        continue;
      }
      const std::string key = std::move(ready_.front());
      ready_.pop_front();
      auto it = queues_.find(key);
      SISD_CHECK(it != queues_.end() && !it->second.items.empty());
      WorkItem item = std::move(it->second.items.front());
      it->second.items.pop_front();
      if (metrics_ != nullptr) metrics_->OnDequeued();
      lock.unlock();
      handler_(std::move(item));
      lock.lock();
      --pending_;
      it = queues_.find(key);
      SISD_CHECK(it != queues_.end());
      if (it->second.items.empty()) {
        queues_.erase(it);
      } else {
        ready_.push_back(key);
        cv_.notify_one();
      }
      if (pending_ == 0) idle_cv_.notify_all();
    }
  }

  const size_t capacity_;
  const std::function<void(WorkItem&&)> handler_;
  ServeMetrics* const metrics_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::unordered_map<std::string, Queue> queues_;
  std::deque<std::string> ready_;
  size_t pending_ = 0;
  bool stop_ = false;

  std::vector<std::thread> workers_;
};

/// The whole loop state; lives on the calling thread's stack for the
/// duration of ServeEventLoop.
class EventLoop {
 public:
  EventLoop(SessionManager& manager, const EventLoopConfig& config,
            ServeMetrics* metrics, const std::atomic<bool>* shutdown)
      : manager_(manager),
        config_(config),
        metrics_(metrics),
        shutdown_(shutdown) {}

  ~EventLoop() {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  Status Run(std::ostream& announce) {
    SISD_RETURN_NOT_OK(Listen(announce));
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) return Errno("epoll_create1");
    wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
    if (wake_fd_ < 0) return Errno("eventfd");
    SISD_RETURN_NOT_OK(Register(listen_fd_, EPOLLIN));
    SISD_RETURN_NOT_OK(Register(wake_fd_, EPOLLIN));
    if (metrics_ != nullptr) {
      metrics_->SetQueueCapacity(config_.queue_capacity);
    }

    dispatcher_ = std::make_unique<Dispatcher>(
        std::max<size_t>(config_.num_workers, 1), config_.queue_capacity,
        [this](WorkItem&& item) { Execute(std::move(item)); }, metrics_);

    std::vector<epoll_event> events(64);
    for (;;) {
      if (shutdown_ != nullptr && shutdown_->load() && !draining_) {
        BeginDrain();
      }
      if (listen_fd_ < 0 && connections_.empty() &&
          dispatcher_->pending() == 0) {
        break;  // drained: nothing left to serve or flush
      }
      const int n = ::epoll_wait(epoll_fd_, events.data(),
                                 static_cast<int>(events.size()),
                                 /*timeout_ms=*/50);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = static_cast<int>(events[i].data.fd);
        if (fd == listen_fd_) {
          AcceptReady();
        } else if (fd == wake_fd_) {
          DrainWakeups();
        } else {
          OnConnectionEvent(fd, events[i].events);
        }
      }
    }
    dispatcher_->Stop();
    return Status::OK();
  }

 private:
  Status Listen(std::ostream& announce) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return Errno("socket");
    const int enable = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
                 sizeof(enable));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(config_.port));
    if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) < 0) {
      return Status::IOError(StrFormat("bind 127.0.0.1:%d: %s",
                                       config_.port,
                                       std::strerror(errno)));
    }
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &addr_len) < 0) {
      return Errno("getsockname");
    }
    if (::listen(listen_fd_, 128) < 0) return Errno("listen");
    if (!SetNonBlocking(listen_fd_)) return Errno("fcntl(listener)");
    announce << "listening on 127.0.0.1:" << ntohs(addr.sin_port) << "\n";
    announce.flush();
    return Status::OK();
  }

  Status Register(int fd, uint32_t events) {
    epoll_event event{};
    event.events = events;
    event.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
      return Errno("epoll_ctl(add)");
    }
    return Status::OK();
  }

  void Rearm(const ConnectionPtr& conn) {
    epoll_event event{};
    event.events = (conn->input_stopped ? 0u : unsigned(EPOLLIN)) |
                   (conn->want_write ? unsigned(EPOLLOUT) : 0u);
    event.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &event);
  }

  void AcceptReady() {
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN: drained the backlog
      }
      if (!SetNonBlocking(fd)) {
        ::close(fd);
        continue;
      }
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      conn->id = ++next_connection_id_;
      if (!Register(fd, EPOLLIN).ok()) {
        ::close(fd);
        continue;
      }
      connections_.emplace(fd, std::move(conn));
      if (metrics_ != nullptr) metrics_->OnConnectionOpened();
      ++accepted_;
      if (config_.max_connections != 0 &&
          accepted_ >= config_.max_connections) {
        CloseListener();
        return;
      }
    }
  }

  void CloseListener() {
    if (listen_fd_ < 0) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  /// SIGTERM / shutdown-flag path: stop accepting and reading, let
  /// queued work finish, flush, close.
  void BeginDrain() {
    draining_ = true;
    CloseListener();
    // Snapshot the fds: MaybeClose mutates connections_.
    std::vector<int> fds;
    fds.reserve(connections_.size());
    for (const auto& [fd, conn] : connections_) fds.push_back(fd);
    for (int fd : fds) {
      auto it = connections_.find(fd);
      if (it == connections_.end()) continue;
      ConnectionPtr conn = it->second;
      if (!conn->input_stopped) {
        conn->input_stopped = true;
        conn->in_buffer.clear();  // partial line: never became a request
        Rearm(conn);
      }
      MaybeClose(conn);
    }
  }

  void OnConnectionEvent(int fd, uint32_t events) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) return;  // already closed this sweep
    ConnectionPtr conn = it->second;
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
      Close(conn);
      return;
    }
    if ((events & EPOLLOUT) != 0) Flush(conn);
    if ((events & EPOLLIN) != 0 && !conn->input_stopped &&
        connections_.count(fd) != 0) {
      ReadReady(conn);
    }
  }

  void ReadReady(const ConnectionPtr& conn) {
    char chunk[65536];
    for (;;) {
      const ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN: consumed all that is buffered
      }
      if (n == 0) {  // EOF: client finished pipelining
        conn->input_stopped = true;
        conn->in_buffer.clear();
        Rearm(conn);
        MaybeClose(conn);
        return;
      }
      conn->in_buffer.append(chunk, static_cast<size_t>(n));
      if (!ConsumeLines(conn)) return;  // connection poisoned
    }
  }

  /// Splits the input buffer into lines and dispatches each; enforces
  /// the line-length bound. False when the connection was poisoned
  /// (oversized line) and reading must stop.
  bool ConsumeLines(const ConnectionPtr& conn) {
    size_t pos;
    while ((pos = conn->in_buffer.find('\n')) != std::string::npos) {
      std::string line = conn->in_buffer.substr(0, pos);
      conn->in_buffer.erase(0, pos + 1);
      if (line.size() > config_.max_line_bytes) {
        PoisonOversized(conn);
        return false;
      }
      DispatchLine(conn, line);
      if (conn->dead) return false;  // slow-reader drop mid-burst
    }
    if (conn->in_buffer.size() > config_.max_line_bytes) {
      PoisonOversized(conn);
      return false;
    }
    return true;
  }

  /// One over-long request line: answer InvalidArgument, stop reading,
  /// close once the response flushed.
  void PoisonOversized(const ConnectionPtr& conn) {
    if (metrics_ != nullptr) metrics_->OnOversizedLine();
    conn->in_buffer.clear();
    conn->input_stopped = true;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->out_buffer += OversizedLineResponse(config_.max_line_bytes);
      conn->close_after_flush = true;
    }
    Rearm(conn);
    Flush(conn);
  }

  void DispatchLine(const ConnectionPtr& conn, const std::string& line) {
    const std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty() || trimmed.front() == '#') return;
    const auto start = std::chrono::steady_clock::now();
    Result<ProtocolRequest> parsed =
        serialize::ParseRequestLine(std::string(trimmed));
    if (!parsed.ok()) {
      if (metrics_ != nullptr) {
        metrics_->RecordRequest("", /*ok=*/false, ElapsedMicros(start));
      }
      SendNow(conn, serialize::MakeErrorResponse(ProtocolRequest{},
                                                 parsed.status()));
      return;
    }
    ProtocolRequest& request = parsed.Value();
    // Session requests serialize on the session's queue; sessionless
    // verbs (stats, metrics, catalog) serialize per connection. The
    // prefixes keep the two keyspaces disjoint for any session name.
    const std::string key =
        request.session.empty()
            ? "c:" + std::to_string(conn->id)
            : "s:" + request.session;
    // Header copy (id/verb/session, no params): the full request moves
    // into the work item, but a rejection must still echo the id.
    ProtocolRequest header;
    header.id = request.id;
    header.has_id = request.has_id;
    header.verb = request.verb;
    header.session = request.session;
    WorkItem item;
    item.conn = conn;
    item.enqueued_at = start;
    item.request = std::move(request);
    // inflight must rise BEFORE Enqueue: once the item is in the queue a
    // worker may execute it (and decrement) before this thread runs again.
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      ++conn->inflight;
    }
    if (!dispatcher_->Enqueue(key, std::move(item))) {
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        --conn->inflight;
      }
      // Admission control: full queue answers kUnavailable right away —
      // the client sees the id it sent, nothing about the session moved.
      if (metrics_ != nullptr) {
        metrics_->OnRejected();
        metrics_->RecordRequest(header.verb, /*ok=*/false,
                                ElapsedMicros(start));
      }
      SendNow(conn,
              serialize::MakeErrorResponse(
                  header,
                  Status::Unavailable(StrFormat(
                      "queue for this %s is full (%zu pending); retry",
                      header.session.empty() ? "connection" : "session",
                      config_.queue_capacity))));
      return;
    }
  }

  /// IO-thread-only response path (parse errors, rejections).
  void SendNow(const ConnectionPtr& conn, const ProtocolResponse& response) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->out_buffer += serialize::WriteResponseLine(response);
    }
    Flush(conn);
  }

  /// Worker-side request execution: runs the verb, appends the response
  /// to the connection, pokes the IO thread.
  void Execute(WorkItem&& item) {
    const ProtocolResponse response =
        HandleRequest(manager_, item.request, metrics_);
    if (metrics_ != nullptr) {
      // Latency includes queue wait — the number a client actually sees.
      metrics_->RecordRequest(item.request.verb, response.ok,
                              ElapsedMicros(item.enqueued_at));
    }
    const std::string wire = serialize::WriteResponseLine(response);
    bool drop = false;
    {
      std::lock_guard<std::mutex> lock(item.conn->mu);
      SISD_CHECK(item.conn->inflight > 0);
      --item.conn->inflight;
      if (item.conn->dead) {
        drop = true;  // connection force-closed; response has no reader
      } else {
        item.conn->out_buffer += wire;
      }
    }
    if (drop) return;
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      flush_list_.push_back(item.conn);
    }
    const uint64_t one = 1;
    // A full eventfd counter (EAGAIN) still wakes the loop; best-effort.
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd_, &one, sizeof(one));
  }

  void DrainWakeups() {
    uint64_t counter = 0;
    while (::read(wake_fd_, &counter, sizeof(counter)) > 0) {
    }
    std::vector<ConnectionPtr> pending;
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      pending.swap(flush_list_);
    }
    for (const ConnectionPtr& conn : pending) Flush(conn);
  }

  /// Writes as much buffered output as the socket takes; arms EPOLLOUT
  /// on partial writes, closes drained connections that owe nothing.
  void Flush(const ConnectionPtr& conn) {
    bool fatal = false;
    bool drained;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->dead) return;
      while (conn->out_offset < conn->out_buffer.size()) {
        const ssize_t n = ::write(
            conn->fd, conn->out_buffer.data() + conn->out_offset,
            conn->out_buffer.size() - conn->out_offset);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno != EAGAIN && errno != EWOULDBLOCK) fatal = true;
          break;
        }
        conn->out_offset += static_cast<size_t>(n);
      }
      if (conn->out_offset == conn->out_buffer.size()) {
        conn->out_buffer.clear();
        conn->out_offset = 0;
      } else if (conn->out_buffer.size() - conn->out_offset >
                 config_.max_write_buffer_bytes) {
        fatal = true;  // slow reader: unbounded buffering refused
      }
      drained = conn->out_buffer.empty();
    }
    if (fatal) {
      Close(conn);
      return;
    }
    const bool want_write = !drained;
    if (want_write != conn->want_write) {
      conn->want_write = want_write;
      Rearm(conn);
    }
    if (drained) MaybeClose(conn);
  }

  /// Closes the connection once it owes nothing: output flushed and no
  /// request queued or executing — and either the client is done
  /// (EOF / poisoned) or the loop is draining.
  void MaybeClose(const ConnectionPtr& conn) {
    bool close_now;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      const bool owes_nothing =
          conn->inflight == 0 && conn->out_buffer.empty();
      close_now = !conn->dead && owes_nothing &&
                  (conn->close_after_flush || conn->input_stopped ||
                   draining_);
    }
    if (close_now) Close(conn);
  }

  void Close(const ConnectionPtr& conn) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->dead) return;
      conn->dead = true;
    }
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    connections_.erase(conn->fd);
    if (metrics_ != nullptr) metrics_->OnConnectionClosed();
  }

  SessionManager& manager_;
  const EventLoopConfig config_;
  ServeMetrics* const metrics_;
  const std::atomic<bool>* const shutdown_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int listen_fd_ = -1;
  bool draining_ = false;
  size_t accepted_ = 0;
  uint64_t next_connection_id_ = 0;
  std::unordered_map<int, ConnectionPtr> connections_;

  std::unique_ptr<Dispatcher> dispatcher_;

  std::mutex flush_mu_;
  std::vector<ConnectionPtr> flush_list_;
};

}  // namespace

Status ServeEventLoop(SessionManager& manager, const EventLoopConfig& config,
                      std::ostream& announce, ServeMetrics* metrics,
                      const std::atomic<bool>* shutdown) {
  EventLoop loop(manager, config, metrics, shutdown);
  return loop.Run(announce);
}

}  // namespace sisd::serve
