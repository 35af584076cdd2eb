/// \file naive_list_miner.hpp
/// \brief Naive oracle for the greedy subgroup-list miner
/// (search/list_miner.hpp).
///
/// The greedy loop is rebuilt from public production calls. Each round
/// runs `search::BeamSearch` with a single-threaded evaluator that takes
/// moments on the materialized captured bitset of every candidate (no
/// scratch reuse, no fused masks), then rebuilds the winner from its
/// intention through `search::RederiveSubgroupRule` (the call a rebase
/// uses) and applies it with `search::ReplaySubgroupRule`.

#ifndef SISD_REFERENCE_NAIVE_LIST_MINER_HPP_
#define SISD_REFERENCE_NAIVE_LIST_MINER_HPP_

#include "data/table.hpp"
#include "linalg/matrix.hpp"
#include "search/condition_pool.hpp"
#include "search/list_miner.hpp"

namespace sisd::reference {

/// \brief Appends up to `config.max_rules` greedily chosen rules to
/// `*list`, like `search::ExtendSubgroupList`, scoring every candidate the
/// slow way described above. Single-threaded.
search::ListMineStats ExtendSubgroupListNaive(
    const data::DataTable& table, const linalg::Matrix& targets,
    const search::ConditionPool& pool, const search::ListSearchConfig& config,
    search::SubgroupList* list);

}  // namespace sisd::reference

#endif  // SISD_REFERENCE_NAIVE_LIST_MINER_HPP_
