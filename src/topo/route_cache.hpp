#pragma once

// Memoized degraded-mode route tables.
//
// Torus::route_table_avoiding is a full BFS over the torus — cheap once, but
// the membership layer recomputes a node's table on *every* dead-boundary
// transition it applies, and during a partition (or a flood of correlated
// deaths) hundreds of nodes churn through the same handful of avoidance
// sets. This cache keys computed tables by (source rank, FNV-1a digest of
// the dead bitset) so repeated membership deltas that land on an
// already-seen avoidance set reuse the table instead of re-running BFS.
//
// The stored dead set is compared on every digest hit, so a digest collision
// degrades to a recompute, never to a wrong table. Entries persist until
// clear(); the map is a chk::FlatMap because route state must never iterate
// in hash order.
//
// The cache is shared by every node's failure handling: the table is
// annotated against a chk::SimLock, and get() hands out a copy rather than a
// reference into the map (a later insert may move the map's storage).

#include <cstdint>
#include <vector>

#include "chk/flat_map.hpp"
#include "chk/thread_annotations.hpp"
#include "topo/torus.hpp"

namespace meshmp::topo {

// meshmp-lint: shared-state
class RouteTableCache {
 public:
  /// The first-hop table for `src` avoiding `dead` and steering around
  /// `degraded` egress links, computed at most once per distinct
  /// (src, dead, degraded) triple — the degraded set is part of the cache
  /// key, so a score change can never be served a stale table. Returned by
  /// value: a later insert may move the map's storage, so references into
  /// it are not stable.
  std::vector<std::int8_t> get(const Torus& torus, Rank src,
                               const std::vector<bool>& dead,
                               const std::vector<DirMask>& degraded = {});

  /// Drops every entry (e.g. when the cluster heals and stale avoidance
  /// sets will never recur).
  void clear() {
    chk::SimLockGuard g(mu_);
    entries_.clear();
  }

  [[nodiscard]] std::uint64_t hits() const noexcept {
    chk::SimLockGuard g(mu_);
    return hits_;
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    chk::SimLockGuard g(mu_);
    return misses_;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    chk::SimLockGuard g(mu_);
    return entries_.size();
  }

 private:
  struct Entry {
    std::vector<bool> dead;  ///< collision check: digests are not identities
    std::vector<DirMask> degraded;  ///< part of the identity, like dead
    std::vector<std::int8_t> table;
  };
  static std::uint64_t key(Rank src, const std::vector<bool>& dead,
                           const std::vector<DirMask>& degraded);

  mutable chk::SimLock mu_;
  chk::FlatMap<std::uint64_t, Entry> entries_ MESHMP_GUARDED_BY(mu_);
  std::uint64_t hits_ MESHMP_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ MESHMP_GUARDED_BY(mu_) = 0;
};

}  // namespace meshmp::topo
