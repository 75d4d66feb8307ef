#include "serve/serve.h"

#include <algorithm>
#include <cmath>

namespace uniserver::serve {

namespace {
struct ServeMetrics {
  telemetry::Counter& generated = telemetry::counter(
      "serve.requests_generated", "requests",
      "User requests emitted by the open-loop generator (incl. bursts)");
  telemetry::Counter& completed = telemetry::counter(
      "serve.requests_completed", "requests",
      "Requests whose virtual completion time has passed");
  telemetry::Counter& dropped = telemetry::counter(
      "serve.requests_dropped", "requests",
      "Requests shed at the queue cap, unroutable, or orphaned by VM loss");
  telemetry::Counter& slo_violations = telemetry::counter(
      "serve.slo_violations", "requests",
      "Admitted requests whose sojourn exceeded their SLA latency target");
  telemetry::Counter& stalls = telemetry::counter(
      "serve.stalls", "events",
      "Dispatch stalls injected by fault paths (restore, SDC hit, cutover)");
  telemetry::Gauge& queue_depth = telemetry::gauge(
      "serve.queue_depth", "requests",
      "Outstanding requests across all VM queues after the last tick");
  telemetry::Histogram& latency_ms = telemetry::histogram(
      "serve.latency_ms", "ms",
      "Request sojourn time (queue wait + service)");
  telemetry::Histogram& stall_ms = telemetry::histogram(
      "serve.stall_ms", "ms",
      "Duration of fault-path dispatch stalls applied to VM queues");
};

ServeMetrics& metrics() {
  static ServeMetrics m;
  return m;
}
}  // namespace

VcpuQueue::VcpuQueue(int vcpus, std::size_t cap)
    : free_at_(static_cast<std::size_t>(std::max(1, vcpus)), 0.0),
      cap_(std::max<std::size_t>(1, cap)) {}

VcpuQueue::Offer VcpuQueue::offer(Seconds arrival, Seconds service) {
  Offer offer;
  if (in_flight_.size() >= cap_) return offer;
  // Earliest-free server, ties to the lowest index: FIFO dispatch.
  double& horizon = *std::min_element(free_at_.begin(), free_at_.end());
  const double completion =
      std::max(arrival.value, horizon) + std::max(0.0, service.value);
  horizon = completion;
  in_flight_.push_back(completion);
  offer.admitted = true;
  offer.completion = Seconds{completion};
  offer.latency = Seconds{completion - arrival.value};
  return offer;
}

void VcpuQueue::stall(Seconds at, Seconds duration) {
  const double d = std::max(0.0, duration.value);
  for (double& horizon : free_at_) {
    horizon = std::max(horizon, at.value) + d;
  }
}

std::uint64_t VcpuQueue::drain(Seconds now) {
  return std::erase_if(in_flight_,
                       [now](double c) { return c <= now.value; });
}

Seconds VcpuQueue::backlog(Seconds now) const {
  double total = 0.0;
  for (double horizon : free_at_) {
    total += std::max(0.0, horizon - now.value);
  }
  return Seconds{total};
}

ServeLayer::ServeLayer(const ServeConfig& config)
    : config_(config), rng_(config.seed) {}

std::uint64_t ServeLayer::service_of(std::uint64_t vm_id) const {
  if (config_.replica_groups <= 1) return vm_id;
  return vm_id % static_cast<std::uint64_t>(config_.replica_groups);
}

namespace {
constexpr auto kVmId = [](const auto& replica) { return replica.request.id; };
}  // namespace

ServeLayer::Replica* ServeLayer::find_replica(std::uint64_t vm_id) {
  const auto sit = services_.find(service_of(vm_id));
  if (sit == services_.end()) return nullptr;
  const auto it = std::ranges::lower_bound(sit->second, vm_id, {}, kVmId);
  return it != sit->second.end() && it->request.id == vm_id ? &*it
                                                            : nullptr;
}

void ServeLayer::on_vm_placed(const trace::VmRequest& request,
                              const hw::ServerNode* node) {
  Replica replica{request, node,
                  VcpuQueue(request.vcpus, config_.queue_cap)};
  auto& members = services_[service_of(request.id)];
  const auto pos = std::ranges::lower_bound(members, request.id, {}, kVmId);
  if (pos != members.end() && pos->request.id == request.id) {
    *pos = std::move(replica);
  } else {
    members.insert(pos, std::move(replica));
  }
}

void ServeLayer::on_vm_moved(std::uint64_t vm_id,
                             const hw::ServerNode* node) {
  if (Replica* replica = find_replica(vm_id)) replica->node = node;
}

void ServeLayer::on_vm_removed(std::uint64_t vm_id) {
  const Replica* replica = find_replica(vm_id);
  if (replica == nullptr) return;
  const std::uint64_t orphaned = replica->queue.outstanding();
  stats_.dropped_lost += orphaned;
  metrics().dropped.add(orphaned);
  auto& members = services_.at(service_of(vm_id));
  members.erase(members.begin() + (replica - members.data()));
  if (members.empty()) services_.erase(service_of(vm_id));
}

void ServeLayer::add_stall(std::uint64_t vm_id, Seconds at,
                           Seconds duration) {
  Replica* replica = find_replica(vm_id);
  if (replica == nullptr) return;
  replica->queue.stall(at, duration);
  ++stats_.stalls;
  metrics().stalls.add();
  metrics().stall_ms.record(duration.value * 1000.0);
}

void ServeLayer::inject_burst(Seconds at, std::uint64_t count) {
  pending_bursts_.emplace_back(at.value, count);
}

double ServeLayer::speed_factor(const Replica& replica) const {
  if (replica.node == nullptr) return 1.0;
  const hw::NodeSpec& spec = replica.node->spec();
  const hw::Eop& eop = replica.node->eop();
  // Compute-bound work scales with core frequency; the memory-bound
  // share does not, and pays refresh duty instead: a shorter-than-
  // nominal refresh interval steals proportionally more DRAM bandwidth
  // from the guest, a relaxed one hands the overhead back.
  const double f = spec.chip.freq_nominal.value > 0.0
                       ? eop.freq / spec.chip.freq_nominal
                       : 1.0;
  const double mem =
      std::clamp(replica.request.workload.mem_intensity, 0.0, 1.0);
  const double refresh_ratio =
      eop.refresh.value > 0.0
          ? spec.dimm.nominal_refresh.value / eop.refresh.value
          : 1.0;
  const double mem_term =
      1.0 + config_.refresh_overhead_nominal * (refresh_ratio - 1.0);
  const double denom =
      (1.0 - mem) / std::max(0.05, f) + mem * std::max(0.1, mem_term);
  return 1.0 / std::max(1e-9, denom);
}

void ServeLayer::dispatch(std::vector<Replica>& members, Seconds arrival) {
  ++stats_.generated;
  metrics().generated.add();
  Replica& replica = members[ReplicaBalancer::route(members, arrival,
                                                    &Replica::queue)];
  const double demand =
      rng_.exponential(1.0 / std::max(1e-9, config_.mean_service.value));
  const Seconds service_time{demand / speed_factor(replica)};
  const VcpuQueue::Offer offer = replica.queue.offer(arrival, service_time);
  if (!offer.admitted) {
    ++stats_.dropped_overload;
    metrics().dropped.add();
    return;
  }
  ++stats_.admitted;
  const double latency_s = offer.latency.value;
  stats_.latency_sum_s += latency_s;
  stats_.max_latency_s = std::max(stats_.max_latency_s, latency_s);
  latency_ms_.record(latency_s * 1000.0);
  metrics().latency_ms.record(latency_s * 1000.0);
  Seconds slo{0.0};
  switch (replica.request.sla) {
    case trace::SlaClass::kBestEffort:
      return;  // no latency SLO
    case trace::SlaClass::kStandard:
      slo = config_.slo_standard;
      break;
    case trace::SlaClass::kCritical:
      slo = config_.slo_critical;
      break;
  }
  if (latency_s > slo.value) {
    ++stats_.slo_violations;
    metrics().slo_violations.add();
    if (replica.request.sla == trace::SlaClass::kCritical) {
      ++stats_.slo_violations_critical;
    }
  }
}

void ServeLayer::advance(Seconds window_end, Seconds window) {
  const double t0 = window_end.value - window.value;

  // Bursts due in this window fire first, oldest first (stable on
  // equal timestamps so injection order is preserved).
  constexpr auto at_of = [](const auto& burst) { return burst.first; };
  std::ranges::stable_sort(pending_bursts_, {}, at_of);
  const auto due_end =
      std::ranges::upper_bound(pending_bursts_, window_end.value, {}, at_of);
  // dispatch() neither adds nor erases services, so these stay valid.
  std::vector<std::vector<Replica>*> service_members;
  for (auto& [id, members] : services_) service_members.push_back(&members);
  for (auto it = pending_bursts_.begin(); it != due_end; ++it) {
    const auto& [at, count] = *it;
    const Seconds when{std::max(at, t0)};
    if (service_members.empty()) {
      // Nothing placed yet: the burst lands on an empty fleet.
      stats_.generated += count;
      stats_.dropped_unroutable += count;
      metrics().generated.add(count);
      metrics().dropped.add(count);
      continue;
    }
    for (std::uint64_t k = 0; k < count; ++k) {
      dispatch(*service_members[burst_rr_++ % service_members.size()], when);
    }
  }
  pending_bursts_.erase(pending_bursts_.begin(), due_end);

  // Open-loop Poisson per service, thinned against the diurnal shape.
  // Services iterate in ascending id so the Rng consumption order is a
  // pure function of state (the determinism contract).
  const double peak = std::max(config_.diurnal.peak_factor, 1e-9);
  for (auto& [service, members] : services_) {
    double vcpus = 0.0;
    for (const Replica& replica : members) {
      vcpus += static_cast<double>(replica.request.vcpus);
    }
    const double rate = config_.requests_per_vcpu_hz * vcpus;
    if (rate <= 0.0) continue;
    double t = t0;
    while (true) {
      t += rng_.exponential(rate * peak);
      if (t >= window_end.value) break;
      const double factor =
          trace::diurnal_factor(config_.diurnal, Seconds{t});
      if (rng_.uniform() * peak <= factor) dispatch(members, Seconds{t});
    }
  }

  std::uint64_t completed = 0;
  for (auto& [service, members] : services_) {
    for (Replica& replica : members) {
      completed += replica.queue.drain(window_end);
    }
  }
  stats_.completed += completed;
  metrics().completed.add(completed);
  metrics().queue_depth.set(static_cast<double>(outstanding()));
}

std::size_t ServeLayer::outstanding() const {
  std::size_t total = 0;
  for (const auto& [service, members] : services_) {
    for (const Replica& replica : members) {
      total += replica.queue.outstanding();
    }
  }
  return total;
}

double ServeLayer::latency_percentile_ms(double q) const {
  return latency_ms_.percentile(q);
}

}  // namespace uniserver::serve
