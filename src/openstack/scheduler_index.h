// Capacity-indexed placement engine: a segment tree over the fleet
// keeps per-subtree maxima of free vCPUs, free memory, and reliability
// so a pick descends from the root pruning infeasible subtrees —
// O(log n) per query on typical fleets instead of the reference
// engine's O(n) scan — while incremental leaf updates keep the index
// consistent through every allocate/release/crash/reboot/migration.
//
// Bit-identity with ReferenceScheduler is by construction:
//
//   kFirstFit      first feasible leaf in fleet order;
//   kRoundRobin    first feasible leaf in [cursor, n) then [0, cursor),
//                  cursor advanced exactly like the reference;
//   weighted       the tree is built over a permutation sorted by
//                  (policy_weight desc, fleet slot asc), so the first
//                  feasible leaf in permutation order IS the reference
//                  strict-> argmax with its earliest-slot tie-break.
//
// Weights come from node metrics, which the placement contract says
// only move at refresh_weights() boundaries (the cloud control-loop
// tick), so the cached permutation never goes stale between refreshes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "openstack/scheduler.h"

namespace uniserver::osk {

/// O(log n) engine; see file comment for the identity argument.
class IndexedScheduler final : public PlacementEngine {
 public:
  explicit IndexedScheduler(SchedulerPolicy policy)
      : PlacementEngine(policy) {}

  void bind(std::vector<ComputeNode*> nodes) override;
  ComputeNode* pick(const hv::Vm& vm, bool critical,
                    const PlacementConstraint& constraint = {}) override;
  void node_changed(const ComputeNode* node) override;
  void refresh_weights() override;

  /// Audits the whole index against live node state: every leaf
  /// aggregate, every internal max, the permutation/rank inverse pair
  /// and the weight sort order. Returns "" when consistent, else a
  /// human-readable description of the first inconsistency. Used by the
  /// property-based suite after every mutation.
  std::string self_check() const;

 private:
  /// Per-subtree maxima. A down node (or tree padding) contributes the
  /// empty aggregate, which no request can satisfy.
  struct Aggregate {
    int max_free_vcpus{-1};
    double max_free_memory_mb{-1.0};
    double max_reliability{-2.0};
  };

  static Aggregate combine(const Aggregate& a, const Aggregate& b);
  Aggregate leaf_aggregate(std::uint32_t slot) const;
  /// True when some node in the subtree *might* satisfy the request
  /// (necessary, not sufficient: the maxima may live on different
  /// nodes, so leaves are re-checked exactly).
  bool may_satisfy(const Aggregate& agg, const hv::Vm& vm,
                   bool critical) const;
  /// Exact leaf re-check — identical predicate to the reference scan.
  bool leaf_feasible(std::uint32_t slot, const hv::Vm& vm, bool critical,
                     const PlacementConstraint& constraint) const;

  /// Recomputes every leaf from node state and rebuilds the internal
  /// levels bottom-up. O(n).
  void rebuild_tree();
  /// Recomputes one leaf and its root path. O(log n).
  void update_position(std::size_t pos);
  /// First feasible tree position in [lo, hi), or -1. `scanned`
  /// accumulates the number of leaves exactly evaluated.
  long find_first(std::size_t t, std::size_t t_lo, std::size_t t_hi,
                  std::size_t lo, std::size_t hi, const hv::Vm& vm,
                  bool critical, const PlacementConstraint& constraint,
                  std::uint64_t& scanned) const;

  /// Bound fleet; `nodes_[i]->slot() == i` (self_check verifies).
  std::vector<ComputeNode*> nodes_;
  /// Tree position -> fleet slot. Identity for positional policies;
  /// (weight desc, slot asc) for weighted ones.
  std::vector<std::uint32_t> perm_;
  /// Fleet slot -> tree position (inverse of perm_).
  std::vector<std::uint32_t> rank_;
  /// Cached policy weight per fleet slot (weighted policies only).
  std::vector<double> weights_;
  /// Leaf capacity (power of two >= fleet size); tree_ is 1-based with
  /// leaves at [cap_, cap_ + n).
  std::size_t cap_{1};
  std::vector<Aggregate> tree_;
  std::size_t round_robin_cursor_{0};
};

}  // namespace uniserver::osk
