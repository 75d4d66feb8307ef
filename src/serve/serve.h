// Request-level serving layer: the user-visible cost of an EOP.
//
// Everything below this layer trades guardband reclamation against
// *crash rate*; nothing models what "millions of users" actually feel.
// This module closes that gap (ROADMAP item 2): an open-loop request
// generator emits per-service Poisson streams over the placed VMs
// (rate shaped by the diurnal trace), a per-VM virtual-time vCPU queue
// services them with service times derived from the node's current
// V-F-R operating point, and a replica balancer spreads each service's
// load across its VM replicas with deterministic tie-breaking. EOP
// retreats, checkpoint restores, survivable-SDC hits and migration
// stop-and-copy pauses all surface as dispatch stalls that visibly
// fatten the latency tail — so EOP aggressiveness finally trades
// against p99/p999 and SLO violations rather than only crash rate
// (Krzywda et al. ground the V-F-to-latency coupling; see PAPERS.md).
//
// Determinism contract: all randomness flows through one Rng seeded by
// the caller, consumed in a fixed order (pending bursts sorted by time,
// then services in ascending id); queue state is virtual-time
// bookkeeping with no wall-clock reads, so runs reproduce bit-identical
// for any --jobs count (the fuzz campaign digests assert this).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "hwmodel/platform.h"
#include "telemetry/metrics.h"
#include "trace/arrivals.h"
#include "trace/diurnal.h"

namespace uniserver::serve {

struct ServeConfig {
  /// The layer is opt-in: a disabled layer costs nothing and keeps
  /// every pre-existing campaign digest unchanged.
  bool enabled{false};
  std::uint64_t seed{0x5E12F00DULL};
  /// Open-loop request rate per vCPU at diurnal factor 1.0.
  double requests_per_vcpu_hz{0.4};
  /// Mean service demand at the nominal operating point (exponential).
  Seconds mean_service{Seconds{0.05}};
  /// VMs hash into this many replicated services (`vm_id % groups`);
  /// <= 1 gives every VM its own single-replica service.
  int replica_groups{8};
  /// Per-VM cap on requests the tick-end drain has not yet retired,
  /// finished or not; arrivals beyond it are shed. With 60 s ticks it
  /// bounds admissions per VM per tick, not concurrent requests.
  std::size_t queue_cap{512};
  /// Latency SLO per SLA class (best-effort carries no SLO).
  Seconds slo_standard{Seconds{0.5}};
  Seconds slo_critical{Seconds{0.25}};
  /// Dispatch pause while a VM is restored from its checkpoint.
  Seconds restore_stall{Seconds{8.0}};
  /// Dispatch glitch when a VM absorbs a survivable SDC.
  Seconds hit_stall{Seconds{1.0}};
  /// Memory-stall share of service time at nominal refresh for a fully
  /// memory-bound workload; scales with the VM's mem_intensity and
  /// with the refresh interval (shorter refresh steals bandwidth).
  double refresh_overhead_nominal{0.08};
  /// Day shape of the request rate (only the factor fields are read).
  trace::DiurnalConfig diurnal{};
};

/// Cumulative serving books. Conservation (checked by the fuzz oracle):
///   generated == admitted + dropped_overload + dropped_unroutable
///   admitted  == completed + dropped_lost + outstanding()
struct ServeStats {
  std::uint64_t generated{0};  ///< emitted by generator + bursts
  std::uint64_t admitted{0};   ///< entered a VM queue
  std::uint64_t completed{0};  ///< virtual completion time has passed
  std::uint64_t dropped_overload{0};    ///< shed at the queue cap
  std::uint64_t dropped_unroutable{0};  ///< no live replica to route to
  /// In flight when the VM left (node crash, SDC kill, or departure).
  std::uint64_t dropped_lost{0};
  std::uint64_t slo_violations{0};  ///< standard + critical
  std::uint64_t slo_violations_critical{0};
  std::uint64_t stalls{0};  ///< dispatch stalls applied to queues
  double latency_sum_s{0.0};
  double max_latency_s{0.0};
};

/// Virtual-time FIFO queue over a VM's vCPUs (c parallel servers).
/// A request arriving at `t` starts on the earliest-free server (ties
/// to the lowest server index) and its sojourn is known immediately —
/// no event scheduling, just per-server busy horizons. With one vCPU
/// and exponential interarrivals/demands this is exactly M/M/1 (the
/// closed-form tests pin mean sojourn = 1/(mu - lambda)).
class VcpuQueue {
 public:
  VcpuQueue(int vcpus, std::size_t cap);

  struct Offer {
    bool admitted{false};
    Seconds completion{Seconds{0.0}};
    Seconds latency{Seconds{0.0}};
  };
  /// Admits a request arriving at `arrival` needing `service` busy
  /// time, unless `cap` requests are already outstanding.
  Offer offer(Seconds arrival, Seconds service);

  /// Dispatch pause at `at`: every server's busy horizon is pushed to
  /// at least `at` and then extended by `duration` (stop-and-copy,
  /// checkpoint restore, SDC glitch). Latencies already handed out are
  /// unchanged — a stall gates the *next* dispatches.
  void stall(Seconds at, Seconds duration);

  /// Retires requests whose completion is at or before `now` in one
  /// sweep; returns how many completed.
  std::uint64_t drain(Seconds now);

  std::size_t outstanding() const { return in_flight_.size(); }
  /// Pending busy time beyond `now`, summed over servers — the load
  /// signal the replica balancer compares.
  Seconds backlog(Seconds now) const;

 private:
  std::vector<double> free_at_;    // per-server busy horizon (seconds)
  std::vector<double> in_flight_;  // outstanding completions, unordered
  std::size_t cap_;
};

/// Deterministic least-backlog routing across a service's replicas:
/// smallest backlog wins, ties break to the lowest VM id.
class ReplicaBalancer {
 public:
  /// `members` are one service's replicas in ascending VM id and
  /// `queue_of` projects a member to its VcpuQueue. Returns the position
  /// of the least-backlog member at `now`, ties to the lowest (0 if
  /// empty). The scan stops at the first backlog of exactly 0: an idle
  /// queue's is +0.0, a busy one's positive (`h > t` implies `h - t > 0`
  /// for finite doubles), and every later zero has a higher id.
  template <typename Members, typename QueueOf = std::identity>
  static std::size_t route(const Members& members, Seconds now,
                           QueueOf queue_of = {}) {
    std::size_t best = 0;
    double best_backlog = 0.0;
    for (std::size_t pos = 0; pos < members.size(); ++pos) {
      const double backlog =
          std::invoke(queue_of, members[pos]).backlog(now).value;
      if (backlog == 0.0) return pos;
      if (pos == 0 || backlog < best_backlog) {
        best = pos;
        best_backlog = backlog;
      }
    }
    return best;
  }
};

/// The serving layer the cloud control loop drives. One instance per
/// Cloud; owns its latency histogram so concurrent campaigns never
/// share tail state through the global registry (global serve.* metrics
/// are still published for observability).
class ServeLayer {
 public:
  explicit ServeLayer(const ServeConfig& config);

  // -- placement lifecycle (wired from openstack/cloud.cpp) -----------
  void on_vm_placed(const trace::VmRequest& request,
                    const hw::ServerNode* node);
  void on_vm_moved(std::uint64_t vm_id, const hw::ServerNode* node);
  /// Natural departure or loss: outstanding requests are orphaned and
  /// counted in dropped_lost either way.
  void on_vm_removed(std::uint64_t vm_id);

  /// Fault-path dispatch stall on one VM's queue.
  void add_stall(std::uint64_t vm_id, Seconds at, Seconds duration);

  /// Fuzzer hook: `count` extra requests at `at`, spread round-robin
  /// across services (applied by the next advance() covering `at`).
  void inject_burst(Seconds at, std::uint64_t count);

  /// Generates, routes and retires the window (window_end - window,
  /// window_end]. Called once per cloud control tick.
  void advance(Seconds window_end, Seconds window);

  const ServeStats& stats() const { return stats_; }
  std::size_t outstanding() const;
  std::size_t services() const { return services_.size(); }
  /// Latency percentile over this layer's own histogram, milliseconds.
  double latency_percentile_ms(double q) const;
  const telemetry::Histogram& latency_histogram() const {
    return latency_ms_;
  }

 private:
  struct Replica {
    trace::VmRequest request;
    const hw::ServerNode* node{nullptr};
    VcpuQueue queue;
  };

  std::uint64_t service_of(std::uint64_t vm_id) const;
  /// The replica of `vm_id`, or nullptr if it is not placed.
  Replica* find_replica(std::uint64_t vm_id);
  /// Service-time multiplier from the node's current V-F-R point and
  /// the VM's workload signature.
  double speed_factor(const Replica& replica) const;
  /// Routes one request across a service's (non-empty) members.
  void dispatch(std::vector<Replica>& members, Seconds arrival);

  ServeConfig config_;
  Rng rng_;
  /// Service id -> its replicas, sorted by VM id; a service is erased
  /// with its last replica, so every listed vector is non-empty.
  std::map<std::uint64_t, std::vector<Replica>> services_;
  std::vector<std::pair<double, std::uint64_t>> pending_bursts_;
  std::uint64_t burst_rr_{0};  // round-robin cursor across services
  ServeStats stats_;
  telemetry::Histogram latency_ms_;
};

}  // namespace uniserver::serve
