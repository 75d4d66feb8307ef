// Differential suite for the forked node tick (ctest label: parallel).
//
// Cloud::tick_nodes forks every node's hypervisor and hardware tick
// across the worker pool and folds the per-node outboxes serially in
// slot order. The contract: for any --jobs, a run is bit-identical —
// placement digest, energy bits, CloudStats, serve books, the cloud.*,
// hv.* and daemon.* counter deltas, and the trace ring in order — and
// equal to what the one-node-at-a-time loop produced before the fork.
// The pins below are that serial loop's output for the same scenarios,
// so it stays the reference without surviving as a second code path.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/ecosystem.h"
#include "hwmodel/chip_spec.h"
#include "openstack/cloud.h"
#include "serve/serve.h"
#include "stress/profiles.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "trace/fleet.h"

namespace uniserver {
namespace {

constexpr double kTickS = 60.0;
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffULL;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv(std::uint64_t h, double v) {
  return fnv(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t fnv(std::uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return fnv(h, static_cast<std::uint64_t>(s.size()));
}

struct Scenario {
  /// Commissioned core::Ecosystem fleet with checkpointing and serving
  /// on; otherwise a nominal fleet with serving off.
  bool eop{false};
  /// ARM-SoC chips (cache ECC errs before the cores crash) instead of
  /// the default part (cores crash first).
  bool arm{false};
  double guard_percent{0.1};
  int nodes{64};
  int ticks{360};
  /// Ticks between injected storms (0 = none).
  int storm_every{0};
  std::uint64_t seed{1};
};

/// Everything a run is required to reproduce.
struct Outcome {
  std::uint64_t placement{0};
  std::uint64_t energy_bits{0};
  std::uint64_t cloud_stats{0};
  std::uint64_t serve_books{0};
  std::map<std::string, std::uint64_t> counters;
  std::vector<std::string> trace;
  std::uint64_t trace_recorded{0};

  std::uint64_t counter_digest() const {
    std::uint64_t h = kFnvOffset;
    for (const auto& [name, value] : counters) h = fnv(fnv(h, name), value);
    return h;
  }
  std::uint64_t trace_digest() const {
    std::uint64_t h = fnv(kFnvOffset, trace_recorded);
    for (const std::string& line : trace) h = fnv(h, line);
    return h;
  }
};

std::uint64_t digest(const osk::CloudStats& s) {
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t v :
       {s.submitted, s.accepted, s.rejected, s.rejected_for_power,
        s.completed, s.lost_to_errors, s.lost_to_node_crash, s.evacuations,
        s.migrations, s.migrations_started, s.migrations_cancelled,
        s.postcopy_migrations, s.migration_failures, s.node_crash_events,
        s.sla_violations}) {
    h = fnv(h, v);
  }
  for (double v : {s.total_energy_kwh, s.migration_energy_kwh,
                   s.migration_transferred_mb, s.migration_downtime_s,
                   s.mean_node_availability}) {
    h = fnv(h, v);
  }
  return h;
}

std::uint64_t digest(const serve::ServeLayer& layer) {
  const serve::ServeStats& s = layer.stats();
  std::uint64_t h = kFnvOffset;
  for (std::uint64_t v :
       {s.generated, s.admitted, s.completed, s.dropped_overload,
        s.dropped_unroutable, s.dropped_lost, s.slo_violations,
        s.slo_violations_critical, s.stalls,
        static_cast<std::uint64_t>(layer.outstanding())}) {
    h = fnv(h, v);
  }
  h = fnv(h, s.latency_sum_s);
  return fnv(h, s.max_latency_s);
}

std::map<std::string, std::uint64_t> counters() {
  std::map<std::string, std::uint64_t> values;
  for (const telemetry::MetricSample& sample :
       telemetry::MetricsRegistry::global().snapshot()) {
    if (sample.meta.type != telemetry::MetricType::kCounter) continue;
    const std::string& name = sample.meta.name;
    if (name.rfind("cloud.", 0) == 0 || name.rfind("hv.", 0) == 0 ||
        name.rfind("daemon.", 0) == 0) {
      values[name] = static_cast<std::uint64_t>(sample.value);
    }
  }
  return values;
}

std::string render(const telemetry::TraceEvent& event) {
  char time[32];
  std::snprintf(time, sizeof time, "%a", event.sim_time.value);
  std::string line = std::string(time) + " " + event.component + "." +
                     event.name;
  for (const auto& [key, value] : event.tags) {
    line += " " + key + "=" + value;
  }
  return line;
}

/// Runs the scenario one Cloud::run call per tick (storms injected
/// between calls) at `jobs` workers.
Outcome run(const Scenario& s, unsigned jobs) {
  par::set_default_jobs(jobs);
  hw::NodeSpec spec;
  if (s.arm) spec.chip = hw::arm_soc_spec();
  osk::CloudConfig cloud_config;
  cloud_config.tick = Seconds{kTickS};

  std::unique_ptr<core::Ecosystem> ecosystem;
  std::unique_ptr<osk::Cloud> nominal;
  if (s.eop) {
    core::EcosystemConfig eco;
    eco.node_spec = spec;
    eco.cloud = cloud_config;
    eco.cloud.serve.enabled = true;
    eco.cloud.serve.seed = s.seed + 3;
    eco.nodes = s.nodes;
    eco.enable_eop = true;
    eco.guard_percent = s.guard_percent;
    eco.shmoo.runs = 1;
    eco.hv.vm_checkpointing = true;
    ecosystem = std::make_unique<core::Ecosystem>(eco, 20261017);
    ecosystem->commission();
  } else {
    nominal = osk::Cloud::make_uniform(cloud_config, spec, hv::HvConfig{},
                                       s.nodes, 20261017);
  }
  osk::Cloud& cloud = ecosystem ? ecosystem->cloud() : *nominal;

  trace::FleetTraceConfig config;
  config.nodes = s.nodes;
  config.vcpus_per_node = spec.chip.cores;
  config.days = s.ticks * kTickS / 86400.0;
  config.vms = static_cast<std::uint64_t>(100.0 * s.nodes * config.days);
  trace::FleetTraceGenerator generator(config, s.seed + 2);
  const std::vector<trace::VmRequest> requests = generator.generate();
  Rng storm_rng(s.seed + 4);

  telemetry::TraceBuffer::global().clear();
  const std::map<std::string, std::uint64_t> before = counters();

  std::vector<trace::VmRequest> slice;
  std::size_t next = 0;
  int storms = 0;
  for (int t = 0; t < s.ticks; ++t) {
    const double tick_end = (t + 1) * kTickS;
    slice.clear();
    while (next < requests.size() &&
           requests[next].arrival.value <= tick_end) {
      slice.push_back(requests[next++]);
    }
    if (s.storm_every > 0 && t % s.storm_every == s.storm_every - 1) {
      const int node = static_cast<int>(
          storm_rng.uniform_u64(static_cast<std::uint64_t>(s.nodes)));
      switch (storms++ % 3) {
        case 0:
          cloud.inject_rack_power_loss(node);
          break;
        case 1:
          cloud.inject_eop_retreat(node);
          break;
        default:
          cloud.inject_node_crash(node);
          break;
      }
    }
    cloud.run(slice, Seconds{t * kTickS + kTickS / 2.0});
  }

  Outcome out;
  out.placement = cloud.placement_digest();
  out.energy_bits =
      std::bit_cast<std::uint64_t>(cloud.stats().total_energy_kwh);
  out.cloud_stats = digest(cloud.stats());
  if (cloud.serving() != nullptr) out.serve_books = digest(*cloud.serving());
  for (const auto& [name, value] : counters()) {
    const auto it = before.find(name);
    out.counters[name] = value - (it == before.end() ? 0 : it->second);
  }
  for (const telemetry::TraceEvent& event :
       telemetry::TraceBuffer::global().snapshot()) {
    out.trace.push_back(render(event));
  }
  out.trace_recorded = telemetry::TraceBuffer::global().recorded();
  par::set_default_jobs(0);
  return out;
}

void expect_identical(const Outcome& a, const Outcome& b, unsigned jobs) {
  SCOPED_TRACE("--jobs " + std::to_string(jobs) + " vs --jobs 1");
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.energy_bits, b.energy_bits);
  EXPECT_EQ(a.cloud_stats, b.cloud_stats);
  EXPECT_EQ(a.serve_books, b.serve_books);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.trace_recorded, b.trace_recorded);
  EXPECT_EQ(a.trace, b.trace);
}

struct Pin {
  std::uint64_t placement, energy_bits, cloud_stats, serve_books, counters,
      trace;
};

void expect_pinned(const Outcome& o, const Pin& pin) {
  EXPECT_EQ(o.placement, pin.placement) << std::hex << o.placement;
  EXPECT_EQ(o.energy_bits, pin.energy_bits) << std::hex << o.energy_bits;
  EXPECT_EQ(o.cloud_stats, pin.cloud_stats) << std::hex << o.cloud_stats;
  EXPECT_EQ(o.serve_books, pin.serve_books) << std::hex << o.serve_books;
  EXPECT_EQ(o.counter_digest(), pin.counters)
      << std::hex << o.counter_digest();
  EXPECT_EQ(o.trace_digest(), pin.trace) << std::hex << o.trace_digest();
}

TEST(ParallelTick, NominalFleetBitIdenticalForAnyJobsAndPinned) {
  const Scenario scenario{false, true, 0.0, 64, 360, 0, 1};
  const Outcome serial = run(scenario, 1);
  EXPECT_EQ(serial.counters.at("hv.ticks"), 64u * 360u);
  for (unsigned jobs : {2u, 4u}) {
    expect_identical(run(scenario, jobs), serial, jobs);
  }
  expect_pinned(serial, {0xfd93633c7a4af28aULL, 0x402256ab07e8303aULL,
                         0x1eff10d500b0ee86ULL, 0x0ULL,
                         0x54550f370ce27910ULL, 0xa8c7f832281a39c5ULL});
}

TEST(ParallelTick, EopStormBitIdenticalForAnyJobsAndPinned) {
  const Scenario scenario{true, false, 0.1, 24, 360, 30, 1};
  const Outcome serial = run(scenario, 1);
  // The storm must reach the fold's crash, cancellation, predictor and
  // serve-stall paths, and the hypervisor's traces.
  EXPECT_GT(serial.counters.at("cloud.node_crashes"), 0u);
  EXPECT_GT(serial.counters.at("cloud.mig.cancelled"), 0u);
  EXPECT_GT(serial.counters.at("cloud.evacuations"), 0u);
  EXPECT_GT(serial.counters.at("hv.vm_restores"), 0u);
  EXPECT_GT(serial.counters.at("hv.channels_isolated"), 0u);
  EXPECT_NE(serial.serve_books, 0u);
  for (unsigned jobs : {2u, 4u}) {
    expect_identical(run(scenario, jobs), serial, jobs);
  }
  expect_pinned(serial, {0xb184310e0064c0a0ULL, 0x4008549a8e5578e2ULL,
                         0x254212b2c53fd6c5ULL, 0xd5aca88adc1f5aabULL,
                         0x57857d15b223d7a0ULL, 0xa5c7fe1f0bb741d8ULL});
}

TEST(ParallelTick, CorrectableErrorFleetBitIdenticalForAnyJobsAndPinned) {
  // ARM parts at zero guard pour correctable cache errors: the predictor
  // replay and the HealthLog's recharacterize traces run every tick.
  const Scenario scenario{true, true, 0.0, 24, 360, 30, 1};
  const Outcome serial = run(scenario, 1);
  EXPECT_GT(serial.counters.at("daemon.healthlog.errors_correctable"), 0u);
  EXPECT_GT(serial.counters.at("daemon.healthlog.recharacterize_triggers"),
            0u);
  for (unsigned jobs : {2u, 4u}) {
    expect_identical(run(scenario, jobs), serial, jobs);
  }
  expect_pinned(serial, {0x1cc6f90e052f5451ULL, 0x400824a9d4823d91ULL,
                         0xfd28db4c72f4aefdULL, 0xed026e6271affb70ULL,
                         0x964d85375d95a884ULL, 0xbc17bd8428a1c651ULL});
}

TEST(ParallelTick, TickTracesReachTheRingInSlotOrder) {
  // Every node runs far below its crash voltage for one tick: its
  // HealthLog fires the recharacterize trigger, its hypervisor retires
  // all cores but one and reports the crash, all inside the fork; then
  // the fold traces the cloud's view of the crash. Node after node, in
  // that order, as when they ticked one by one.
  for (unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE("--jobs " + std::to_string(jobs));
    par::set_default_jobs(jobs);
    hw::NodeSpec spec;
    spec.chip = hw::arm_soc_spec();
    auto cloud = osk::Cloud::make_uniform(osk::CloudConfig{}, spec,
                                          hv::HvConfig{}, 6, 11);
    for (osk::ComputeNode* node : cloud->node_ptrs()) {
      hw::Eop eop = node->server().eop();
      eop.vdd = Volt{eop.vdd.value * 0.5};
      node->hypervisor().apply_eop(eop);
    }
    telemetry::TraceBuffer::global().clear();
    cloud->run({}, Seconds{kTickS});
    std::vector<std::string> got;
    for (const telemetry::TraceEvent& event :
         telemetry::TraceBuffer::global().snapshot()) {
      std::string line = event.component + "." + event.name;
      for (const auto& [key, value] : event.tags) {
        if (key == "node") line += " " + value;
      }
      got.push_back(line);
    }
    std::vector<std::string> want;
    for (int i = 0; i < 6; ++i) {
      want.push_back("healthlog.recharacterize");
      want.insert(want.end(), spec.chip.cores - 1, "hv.core_retired");
      want.push_back("hv.node_crash");
      want.push_back("cloud.node_crash node-" + std::to_string(i));
    }
    EXPECT_EQ(got, want);
  }
  par::set_default_jobs(0);
}

TEST(ParallelTick, PostCopyDestinationTicksAfterItsSourceFolds) {
  // A post-copy VM runs on its destination while its pages drain from
  // the source. When the source crashes in its tick, the source's fold
  // kills the VM on the destination; in slot order a destination at a
  // higher slot then ticks without it. The fork must keep that for any
  // --jobs, not tick the destination with a VM that is already lost.
  for (unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE("--jobs " + std::to_string(jobs));
    par::set_default_jobs(jobs);
    osk::CloudConfig config;
    config.proactive_migration = false;
    config.migration.bandwidth_mb_per_s = 100.0;
    config.migration.link_bandwidth_mb_per_s = 1000.0;
    config.migration.dirty_rate = 1.5;  // never converges: post-copy
    config.migration.precopy_rounds = 1;
    hw::NodeSpec spec;
    spec.chip = hw::arm_soc_spec();
    auto cloud = osk::Cloud::make_uniform(config, spec, hv::HvConfig{}, 4, 7);
    const std::vector<osk::ComputeNode*> nodes = cloud->node_ptrs();

    trace::VmRequest request;
    request.id = 1;
    request.lifetime = Seconds{86400.0};
    request.vcpus = 4;
    request.memory_mb = 8192.0;
    request.workload = stress::web_service_profile();
    cloud->run({request}, Seconds{kTickS});
    ASSERT_EQ(cloud->active_placements().at(0).node, nodes[0]);

    // Drain slot 0: round 0 copies 8192 MB in 81.92 s, then the single
    // allowed round fails to converge and the VM switches to slot 1.
    cloud->inject_eop_retreat(0);
    cloud->run({}, Seconds{3 * kTickS});
    const osk::MigrationTicket& ticket = cloud->migrations().tickets().at(1);
    ASSERT_EQ(ticket.phase, osk::MigrationPhase::kPostCopy);
    ASSERT_EQ(ticket.dest, nodes[1]);
    ASSERT_EQ(nodes[1]->hypervisor().vm_count(), 1u);

    // Far below any core's crash voltage: slot 0 crashes next tick,
    // with its post-copy VM's pages still undrained. Slot 1's log is
    // cleared first, so its aggregate covers that one tick alone.
    hw::Eop eop = nodes[0]->server().eop();
    eop.vdd = Volt{eop.vdd.value * 0.5};
    nodes[0]->hypervisor().apply_eop(eop);
    daemons::HealthLog& dest_log = nodes[1]->hypervisor().healthlog();
    dest_log.clear();
    cloud->run({}, Seconds{4 * kTickS});

    EXPECT_FALSE(nodes[0]->up());
    EXPECT_EQ(cloud->stats().lost_to_node_crash, 1u);
    EXPECT_EQ(nodes[1]->hypervisor().vm_count(), 0u);
    // Slot 1's tick saw no guest: one active core (the idle floor), not
    // the lost VM's four.
    const double cores = spec.chip.cores;
    ASSERT_EQ(dest_log.aggregate().vectors, 1u);
    EXPECT_EQ(dest_log.aggregate().mean_utilization, 1.0 / cores);
  }
  par::set_default_jobs(0);
}

}  // namespace
}  // namespace uniserver
