/// \file session_io.hpp
/// \brief JSON codecs behind `MiningSession::SaveToString` and
/// `RestoreFromString`: the top of the snapshot schema stack. Same
/// contract as serialize/snapshot.hpp: strict bit-exact round trips,
/// Result-based validation.
///
/// The history codecs write each fact once (schema version 2): a ranked
/// entry is its intention and IC, an iteration's location is its first
/// ranked entry, and a spread pattern shares the location's subgroup.
/// Decoding reads versions 1 and 2, rebuilds the rest on the session's
/// dataset, and rejects intentions its description table cannot evaluate.

#ifndef SISD_CORE_SESSION_IO_HPP_
#define SISD_CORE_SESSION_IO_HPP_

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "core/session.hpp"
#include "serialize/json.hpp"

namespace sisd::core {

/// \name Config codec.
/// @{
serialize::JsonValue EncodeMinerConfig(const MinerConfig& config);
Result<MinerConfig> DecodeMinerConfig(const serialize::JsonValue& json);
/// @}

/// \name Dataset-ref codec: the `dataset_ref {fingerprint, name}` snapshot
/// form (fingerprint as 16 hex digits).
/// @{
serialize::JsonValue EncodeDatasetRef(const catalog::DatasetRef& ref);
Result<catalog::DatasetRef> DecodeDatasetRef(
    const serialize::JsonValue& json);
/// @}

/// \name Version-chain codec: the additive `version_chain` snapshot field
/// of rebased sessions.
/// @{
serialize::JsonValue EncodeVersionChain(
    const std::vector<SessionVersionLink>& chain);
Result<std::vector<SessionVersionLink>> DecodeVersionChain(
    const serialize::JsonValue& json);
/// @}

/// \name Iteration-history codec (the `history` snapshot field). Decoding
/// rebuilds extensions, means, DLs and SIs on `dataset` with `dl`.
/// @{
serialize::JsonValue EncodeHistory(const std::vector<IterationResult>& history);
Result<std::vector<IterationResult>> DecodeHistory(
    const serialize::JsonValue& json, int64_t schema_version,
    const data::Dataset& dataset, const si::DescriptionLengthParams& dl);
/// @}

/// \name Subgroup-list history codec (the `list_history` snapshot field).
/// Rules are stored in full; decoding checks them against `table`.
/// @{
serialize::JsonValue EncodeListHistory(
    const std::vector<ListMineResult>& list_history);
Result<std::vector<ListMineResult>> DecodeListHistory(
    const serialize::JsonValue& json, const data::DataTable& table);
/// @}

}  // namespace sisd::core

#endif  // SISD_CORE_SESSION_IO_HPP_
