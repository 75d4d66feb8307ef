// Cross-layer invariant oracles.
//
// The paper's safety argument is layered: relaxed guard-bands admit
// errors, and every layer above — hypervisor protection, cloud
// accounting, telemetry — absorbs them without losing state. Each
// oracle here is one machine-checkable clause of that argument,
// evaluated after every DES step of a fuzz scenario:
//
//   vm-conservation   no VM is lost or duplicated across placement,
//                     migration and crash handling; the cloud's books
//                     (accepted = completed + lost + active) balance
//   energy-balance    per-node energy plus migration energy sums to
//                     the cluster total
//   monotone-time     simulated time never runs backwards, in the DES
//                     or in the cloud control loop
//   eop-safety        every uncorrected error the hypervisor sees is
//                     resolved to an explicit disposition (fatal,
//                     protected, absorbed, guest hit/restore/kill,
//                     benign) — none silently survives
//   telemetry         counters never decrease and registered catalog
//                     names never disappear
//   migration-conservation
//                     every in-flight migration ticket is internally
//                     coherent: the VM exists exactly once, on the side
//                     of the cutover its phase says, the destination is
//                     alive and distinct, and the orchestrator's books
//                     (submitted = completed + cancelled + in flight)
//                     balance
//   migration-energy  the cloud's migration energy/traffic ledgers
//                     match the orchestrator's byte ledger at the
//                     model's joules-per-MB — in-flight copy rounds
//                     included, not just committed migrations
//   serve-slo         the serving layer's request books conserve
//                     (generated = admitted + shed, admitted =
//                     completed + orphaned + outstanding), all serving
//                     counters are monotone, and SLO-violation tallies
//                     never exceed the admitted mass
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "hypervisor/hypervisor.h"
#include "openstack/cloud.h"
#include "sim/simulator.h"
#include "telemetry/metrics.h"

namespace uniserver::fuzz {

/// One invariant failure, with enough context to debug a reproducer.
struct Violation {
  std::string oracle;
  std::string detail;
  Seconds at{Seconds{0.0}};
};

/// What an oracle may inspect. All pointers outlive the check call;
/// oracles never mutate the stack.
struct StackView {
  const osk::Cloud* cloud{nullptr};
  const sim::Simulator* des{nullptr};
  const telemetry::MetricsRegistry* registry{nullptr};
};

/// Stateful invariant checker. One instance per scenario run (oracles
/// carry per-run memory such as previous counter snapshots).
class Oracle {
 public:
  virtual ~Oracle() = default;
  virtual const char* name() const = 0;
  /// Appends any violations visible at this checkpoint to `out`.
  virtual void check(const StackView& view, std::vector<Violation>& out) = 0;
};

class VmConservationOracle final : public Oracle {
 public:
  const char* name() const override { return "vm-conservation"; }
  void check(const StackView& view, std::vector<Violation>& out) override;
};

class EnergyBalanceOracle final : public Oracle {
 public:
  /// `rel_tolerance` absorbs floating-point summation-order drift
  /// between the cluster total and the per-node partial sums.
  explicit EnergyBalanceOracle(double rel_tolerance = 1e-9)
      : rel_tolerance_(rel_tolerance) {}
  const char* name() const override { return "energy-balance"; }
  void check(const StackView& view, std::vector<Violation>& out) override;

 private:
  double rel_tolerance_;
};

class MonotoneTimeOracle final : public Oracle {
 public:
  const char* name() const override { return "monotone-time"; }
  void check(const StackView& view, std::vector<Violation>& out) override;

 private:
  double last_des_s_{0.0};
  double last_cloud_s_{0.0};
};

class EopSafetyOracle final : public Oracle {
 public:
  const char* name() const override { return "eop-safety"; }
  void check(const StackView& view, std::vector<Violation>& out) override;
};

class TelemetryConsistencyOracle final : public Oracle {
 public:
  const char* name() const override { return "telemetry"; }
  void check(const StackView& view, std::vector<Violation>& out) override;

 private:
  /// Previous counter readings by metric name (monotonicity baseline).
  std::vector<std::pair<std::string, std::uint64_t>> last_counters_;
};

class MigrationConservationOracle final : public Oracle {
 public:
  const char* name() const override { return "migration-conservation"; }
  void check(const StackView& view, std::vector<Violation>& out) override;
};

class MigrationEnergyOracle final : public Oracle {
 public:
  /// `rel_tolerance` absorbs summation-order drift between the two
  /// ledgers (per-round kWh increments vs bytes-times-rate).
  explicit MigrationEnergyOracle(double rel_tolerance = 1e-9)
      : rel_tolerance_(rel_tolerance) {}
  const char* name() const override { return "migration-energy"; }
  void check(const StackView& view, std::vector<Violation>& out) override;

 private:
  double rel_tolerance_;
};

class ServeSloOracle final : public Oracle {
 public:
  const char* name() const override { return "serve-slo"; }
  void check(const StackView& view, std::vector<Violation>& out) override;

 private:
  serve::ServeStats last_{};  // monotonicity baseline
};

/// The full oracle battery, fresh state, in a stable check order.
std::vector<std::unique_ptr<Oracle>> default_oracles();

// -- pure helpers (unit-testable without a full stack) -----------------

/// The eop-safety clause on one hypervisor's cumulative stats: every
/// uncorrected error seen must carry an explicit disposition.
bool hv_error_accounting_consistent(const hv::HvStats& stats);

/// The vm-conservation bookkeeping clause on the cloud's counters.
bool cloud_books_balance(const osk::CloudStats& stats,
                         std::size_t active_vms);

/// The serve-slo conservation clause on the serving layer's books:
///   generated == admitted + dropped_overload + dropped_unroutable
///   admitted  == completed + dropped_lost + outstanding
bool serve_books_balance(const serve::ServeStats& stats,
                         std::size_t outstanding);

}  // namespace uniserver::fuzz
