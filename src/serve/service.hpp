/// \file service.hpp
/// \brief Maps protocol requests onto `SessionManager` operations — the
/// verb dispatch shared by every transport (stdio, epoll, in-process).
///
/// The verb table (`Verbs()`) is the one list of protocol verbs: dispatch,
/// the `session` check, the unknown-verb error, the per-verb `metrics`
/// slots and the `sisd_serve --help` verb line all read it.
///
/// docs/PROTOCOL.md specifies the request/response schema per verb. All
/// responses are deterministic functions of the request script and the
/// server configuration: no wall-clock, thread-count or address fields
/// ever enter a payload, so the same script yields byte-identical
/// responses on 1 worker and N workers.

#ifndef SISD_SERVE_SERVICE_HPP_
#define SISD_SERVE_SERVICE_HPP_

#include <span>

#include "serialize/protocol.hpp"
#include "serve/metrics.hpp"
#include "serve/session_manager.hpp"

namespace sisd::serve {

/// \brief One protocol verb: its wire name, its handler, and whether a
/// request must name a `session` (checked before the handler runs).
struct Verb {
  const char* name;
  Result<serialize::JsonValue> (*handler)(
      SessionManager& manager, const serialize::ProtocolRequest& request,
      ServeMetrics* metrics);
  bool needs_session;
};

/// \brief The verb table, in the order of the unknown-verb error text and
/// of the `metrics` payload's per-verb counts.
std::span<const Verb> Verbs();

/// \brief Index of `name` in `Verbs()`, or `Verbs().size()` when no verb
/// has that name.
size_t VerbIndex(std::string_view name);

/// \brief Executes one request against `manager` and returns its response
/// (errors become `ok:false` responses; this never aborts). The `metrics`
/// verb renders a snapshot of `metrics` (plus the catalog hit rates);
/// transports that collect none leave it null and the verb answers
/// Unavailable.
serialize::ProtocolResponse HandleRequest(
    SessionManager& manager, const serialize::ProtocolRequest& request,
    ServeMetrics* metrics = nullptr);

/// \brief Parses a condition list (`[{"attribute":..., "op":...,
/// "threshold"|"level":...}, ...]`) against `table` into an intention.
/// Exposed for tests; `assimilate` uses it via HandleRequest.
Result<pattern::Intention> ParseConditionSpec(
    const serialize::JsonValue& conditions, const data::DataTable& table);

/// \brief Loads one `--preload` spec into `catalog` (no session pin).
/// Spec forms:
///   - a datagen scenario name ("crime", "synthetic", ...);
///   - `PATH=TARGET[,TARGET...]`: a CSV file ingested through the
///     streaming chunked reader, with the named numeric columns as
///     targets (registered under the path as its dataset name).
Result<catalog::PinnedDataset> PreloadDataset(
    catalog::DatasetCatalog& catalog, const std::string& spec);

}  // namespace sisd::serve

#endif  // SISD_SERVE_SERVICE_HPP_
