/// \file metrics.hpp
/// \brief Serve-layer observability: per-verb request counters, a
/// fixed-bucket latency histogram (p50/p95/p99), connection and queue
/// gauges, and admission-control rejection counts.
///
/// One `ServeMetrics` instance is shared by a transport and every worker
/// that handles its requests; all methods are thread-safe and lock-free
/// (plain atomics), so recording never serializes the request path. The
/// `metrics` protocol verb renders a snapshot via `EncodeMetrics`.
///
/// Latency values are *measured wall-clock* — the one deliberate
/// exception to the protocol's determinism contract (every other verb is
/// a pure function of the request script; see docs/ARCHITECTURE.md).
/// Counters, by contrast, are deterministic for a given script on the
/// stdio/script transport.

#ifndef SISD_SERVE_METRICS_HPP_
#define SISD_SERVE_METRICS_HPP_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "serialize/json.hpp"

namespace sisd::catalog {
class DatasetCatalog;
}  // namespace sisd::catalog

namespace sisd::serve {

/// \brief Fixed-bucket latency histogram over microseconds.
///
/// Bucket `i` covers latencies in `(2^(i-1), 2^i]` µs (bucket 0 is
/// `[0, 1]` µs); the last bucket is open-ended. Quantile estimates report
/// the upper bound of the bucket the quantile falls in — conservative by
/// at most one power of two, allocation-free, and mergeable across
/// threads because recording is a single relaxed increment.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = 40;  ///< up to ~2^39 µs ≈ 6.4 days

  /// Records one observation (relaxed atomics; safe from any thread).
  void Record(uint64_t micros);

  /// \brief One consistent-enough read of the histogram (counts may lag
  /// each other by in-flight recordings; totals are recomputed from the
  /// buckets so quantiles never exceed the reported count).
  struct Summary {
    uint64_t count = 0;
    uint64_t max_us = 0;
    double mean_us = 0.0;
    uint64_t p50_us = 0;
    uint64_t p95_us = 0;
    uint64_t p99_us = 0;
  };
  Summary Summarize() const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
  std::atomic<uint64_t> max_us_{0};
};

/// \brief Shared counters of one serve transport (see file comment).
class ServeMetrics {
 public:
  /// One counter slot per verb of the verb table (`Verbs()`, in its
  /// order, which is also the encoding order), plus a trailing "invalid"
  /// slot for unknown verbs and lines that never parsed into a request.
  ServeMetrics();

  /// Records one completed request: verb, success flag, and measured
  /// latency (parse → response bytes ready).
  void RecordRequest(const std::string& verb, bool ok, uint64_t latency_us);

  /// \name Connection gauges (event loop).
  /// @{
  void OnConnectionOpened();
  void OnConnectionClosed();
  /// @}

  /// \name Dispatch-queue gauges and admission control (event loop).
  /// @{
  void SetQueueCapacity(size_t capacity);
  void OnEnqueued();
  void OnDequeued();
  /// A request refused with kUnavailable because its queue was full.
  void OnRejected();
  /// @}

  /// A connection dropped for exceeding the request-line length bound.
  void OnOversizedLine();

  /// \name Snapshot reads (used by EncodeMetrics and tests).
  /// @{
  uint64_t requests() const;
  uint64_t errors() const;
  uint64_t rejected() const;
  uint64_t oversized_lines() const;
  uint64_t live_connections() const;
  uint64_t peak_connections() const;
  uint64_t connections_accepted() const;
  uint64_t queue_depth() const;
  uint64_t queue_peak() const;
  size_t queue_capacity() const;
  uint64_t VerbRequests(const std::string& verb) const;
  const LatencyHistogram& latency() const { return latency_; }
  /// @}

 private:
  struct VerbCounters {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> errors{0};
  };

  std::vector<VerbCounters> verbs_;
  LatencyHistogram latency_;
  std::atomic<uint64_t> live_connections_{0};
  std::atomic<uint64_t> peak_connections_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> queue_depth_{0};
  std::atomic<uint64_t> queue_peak_{0};
  std::atomic<uint64_t> queue_capacity_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> oversized_lines_{0};
};

/// \brief Renders the `metrics` verb payload: per-verb counts, latency
/// percentiles, connection/queue gauges, and (when `catalog` is non-null)
/// the dataset-catalog hit rates.
serialize::JsonValue EncodeMetrics(const ServeMetrics& metrics,
                                   const catalog::DatasetCatalog* catalog);

}  // namespace sisd::serve

#endif  // SISD_SERVE_METRICS_HPP_
