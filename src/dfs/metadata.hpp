// File and block metadata held by the NameNode, and the id-indexed tables
// and sorted block lists that store it.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <ranges>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "dfs/types.hpp"

namespace moon::dfs {

struct BlockMeta {
  BlockId id;
  FileId file;
  Bytes size = 0;
  /// Nodes that hold a replica (regardless of their current liveness; the
  /// NameNode filters by DataNode state when serving reads or counting
  /// effective replication).
  std::vector<NodeId> replicas;
  /// Sequence number of the block's replication-queue entry; kNotQueued
  /// when it has none (NameNode bookkeeping).
  static constexpr std::uint64_t kNotQueued = ~std::uint64_t{0};
  std::uint64_t queue_seq = kNotQueued;

  [[nodiscard]] bool has_replica_on(NodeId node) const;
};

struct FileMeta {
  FileId id;
  std::string name;
  FileKind kind = FileKind::kOpportunistic;
  ReplicationFactor factor;
  std::vector<BlockId> blocks;
  Bytes size = 0;

  /// For opportunistic files whose dedicated replica was declined: the
  /// adaptively raised volatile requirement v' (>= factor.volatile_count).
  /// 0 means "not raised".
  int adaptive_volatile = 0;

  /// Set once every block has reached its replication factor and the file
  /// has been closed (output files flip to reliable at this point).
  bool complete = false;

  [[nodiscard]] int required_volatile() const {
    return adaptive_volatile > factor.volatile_count ? adaptive_volatile
                                                     : factor.volatile_count;
  }
};

/// Metadata indexed by id. An `IdAllocator` hands ids out densely from 0,
/// so the entry for id i lives in slot i. A slot is live iff its `id` is
/// valid; `erase` leaves a default (invalid-id) tombstone and ids are never
/// reused. The deque keeps references to entries valid across `add`.
template <typename IdT, typename Meta>
class IdTable {
 public:
  /// Appends the entry for `id`, which must be the next id allocated.
  Meta& add(IdT id) {
    assert(id.value() == slots_.size());
    Meta& meta = slots_.emplace_back();
    meta.id = id;
    return meta;
  }
  void erase(IdT id) { slots_[id.value()] = Meta{}; }

  [[nodiscard]] bool contains(IdT id) const {
    return id.value() < slots_.size() && slots_[id.value()].id.valid();
  }
  /// The live entry for `id`, or nullptr.
  [[nodiscard]] Meta* find(IdT id) {
    return contains(id) ? &slots_[id.value()] : nullptr;
  }
  [[nodiscard]] const Meta* find(IdT id) const {
    return contains(id) ? &slots_[id.value()] : nullptr;
  }

  /// Live entries in id order.
  [[nodiscard]] auto live() { return slots_ | std::views::filter(&is_live); }
  [[nodiscard]] auto live() const {
    return slots_ | std::views::filter(&is_live);
  }

 private:
  static bool is_live(const Meta& meta) { return meta.id.valid(); }

  std::deque<Meta> slots_;
};

// A BlockId list kept sorted: the NameNode's reverse-index buckets and a
// DataNode's stored blocks. Block ids are handed out in increasing order,
// so most inserts append.

inline bool sorted_contains(const std::vector<BlockId>& list, BlockId b) {
  return std::binary_search(list.begin(), list.end(), b);
}

/// Inserts `b` unless present; returns whether it did.
inline bool sorted_insert(std::vector<BlockId>& list, BlockId b) {
  if (list.empty() || list.back() < b) {
    list.push_back(b);
    return true;
  }
  auto it = std::lower_bound(list.begin(), list.end(), b);
  if (*it == b) return false;
  list.insert(it, b);
  return true;
}

/// Removes `b` if present; returns whether it did.
inline bool sorted_erase(std::vector<BlockId>& list, BlockId b) {
  auto it = std::lower_bound(list.begin(), list.end(), b);
  if (it == list.end() || *it != b) return false;
  list.erase(it);
  return true;
}

}  // namespace moon::dfs
