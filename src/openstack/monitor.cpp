#include "openstack/monitor.h"

#include <algorithm>
#include <utility>

namespace uniserver::osk {

void VmMonitor::record(std::uint64_t vm_id, const VmSample& sample) {
  Ring& ring = rings_[vm_id];
  if (ring.samples.size() < config_.window) {
    ring.samples.push_back(sample);
  } else if (config_.window > 0) {
    ring.samples[ring.head] = sample;
    ring.head = (ring.head + 1) % config_.window;
  }
}

void VmMonitor::forget(std::uint64_t vm_id) { rings_.erase(vm_id); }

VmUsage VmMonitor::summarize(const Ring& ring) const {
  VmUsage usage;
  const std::size_t n = ring.samples.size();
  if (n == 0) return usage;
  // Oldest first, so the floating-point sums add in arrival order.
  for (std::size_t k = 0; k < n; ++k) {
    const VmSample& sample = ring.samples[(ring.head + k) % n];
    usage.mean_cpu += sample.cpu_utilization;
    usage.peak_cpu = std::max(usage.peak_cpu, sample.cpu_utilization);
    usage.mean_memory_mb += sample.memory_mb;
    usage.peak_memory_mb = std::max(usage.peak_memory_mb, sample.memory_mb);
    usage.total_errors += sample.error_events;
  }
  usage.samples = n;
  usage.mean_cpu /= static_cast<double>(n);
  usage.mean_memory_mb /= static_cast<double>(n);
  return usage;
}

VmUsage VmMonitor::usage(std::uint64_t vm_id) const {
  const auto it = rings_.find(vm_id);
  return it == rings_.end() ? VmUsage{} : summarize(it->second);
}

double VmMonitor::score(const VmUsage& u) const {
  if (u.samples == 0) return 0.0;
  // A fault lands in a VM roughly in proportion to its resident memory;
  // activity raises the odds the corruption is consumed; a history of
  // absorbed errors marks placement on fragile resources.
  const double memory_term =
      std::min(1.0, u.mean_memory_mb / config_.memory_scale_mb);
  const double cpu_term = std::min(1.0, u.mean_cpu);
  const double error_term =
      std::min(1.0, static_cast<double>(u.total_errors) / config_.error_scale);
  return config_.weight_memory * memory_term + config_.weight_cpu * cpu_term +
         config_.weight_errors * error_term;
}

double VmMonitor::susceptibility(std::uint64_t vm_id) const {
  return score(usage(vm_id));
}

std::vector<std::uint64_t> VmMonitor::ranked_by_susceptibility() const {
  // Score each VM once, then sort by (score desc, id asc).
  std::vector<std::pair<double, std::uint64_t>> scored;
  scored.reserve(rings_.size());
  for (const auto& [id, ring] : rings_) {
    scored.emplace_back(score(summarize(ring)), id);
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<std::uint64_t> ids;
  ids.reserve(scored.size());
  for (const auto& [score, id] : scored) ids.push_back(id);
  return ids;
}

}  // namespace uniserver::osk
