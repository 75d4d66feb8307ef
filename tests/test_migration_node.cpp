#include <gtest/gtest.h>

#include <algorithm>

#include "hwmodel/chip_spec.h"
#include "openstack/cloud.h"
#include "openstack/migration.h"
#include "openstack/node.h"
#include "stress/profiles.h"
#include "trace/arrivals.h"

namespace uniserver::osk {
namespace {

using namespace uniserver::literals;

TEST(MigrationModel, CostScalesWithMemory) {
  const MigrationModel model;
  hv::Vm small;
  small.memory_mb = 1024.0;
  hv::Vm big;
  big.memory_mb = 8192.0;
  const auto small_cost = model.cost_for(small);
  const auto big_cost = model.cost_for(big);
  EXPECT_NEAR(big_cost.transferred_mb / small_cost.transferred_mb, 8.0,
              1e-9);
  EXPECT_GT(big_cost.duration.value, small_cost.duration.value);
  EXPECT_GT(big_cost.energy.value, small_cost.energy.value);
}

TEST(MigrationModel, DowntimeIsFractionOfDuration) {
  const MigrationModel model;
  hv::Vm vm;
  vm.memory_mb = 4096.0;
  const auto cost = model.cost_for(vm);
  EXPECT_LT(cost.downtime.value, cost.duration.value);
  // Stop-and-copy moves dirty_rate^rounds of the memory.
  EXPECT_NEAR(cost.downtime.value,
              4096.0 * 0.15 * 0.15 * 0.15 / 1000.0, 1e-9);
}

TEST(MigrationModel, MorePrecopyRoundsShrinkDowntime) {
  MigrationModel few;
  few.precopy_rounds = 1;
  MigrationModel many;
  many.precopy_rounds = 5;
  hv::Vm vm;
  vm.memory_mb = 4096.0;
  EXPECT_GT(few.cost_for(vm).downtime.value,
            many.cost_for(vm).downtime.value);
  EXPECT_LT(few.cost_for(vm).transferred_mb,
            many.cost_for(vm).transferred_mb);
}

TEST(MigrationModel, NegativeDirtyRateClampsToZero) {
  MigrationModel model;
  model.dirty_rate = -0.5;
  hv::Vm vm;
  vm.memory_mb = 4096.0;
  const auto cost = model.cost_for(vm);
  // Nothing re-dirties: one full copy, zero-length stop-and-copy.
  EXPECT_FALSE(cost.post_copy);
  EXPECT_NEAR(cost.transferred_mb, 4096.0, 1e-9);
  EXPECT_NEAR(cost.downtime.value, 0.0, 1e-12);
  EXPECT_NEAR(cost.duration.value, 4096.0 / model.bandwidth_mb_per_s,
              1e-12);
}

TEST(MigrationModel, DivergentDirtyRateFallsBackToPostCopy) {
  // dirty_rate >= 1.0 used to make the planning estimate diverge (every
  // pre-copy round re-sends at least a full working set). The estimate
  // now plans a post-copy migration: warm-up copy + on-demand pull.
  for (const double rate : {1.0, 1.5, 10.0}) {
    MigrationModel model;
    model.dirty_rate = rate;
    hv::Vm vm;
    vm.memory_mb = 4096.0;
    const auto cost = model.cost_for(vm);
    EXPECT_TRUE(cost.post_copy) << "rate " << rate;
    EXPECT_NEAR(cost.transferred_mb, 2.0 * 4096.0, 1e-9);
    EXPECT_NEAR(cost.downtime.value, model.postcopy_switch.value, 1e-12);
    EXPECT_NEAR(cost.duration.value,
                2.0 * 4096.0 / model.bandwidth_mb_per_s +
                    model.postcopy_switch.value,
                1e-12);
    EXPECT_NEAR(cost.energy.value, 2.0 * 4096.0 * model.joule_per_mb,
                1e-9);
  }
}

hw::NodeSpec node_spec() {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  return spec;
}

hv::Vm make_vm(std::uint64_t id, int vcpus = 2) {
  hv::Vm vm;
  vm.id = id;
  vm.vcpus = vcpus;
  vm.memory_mb = 2048.0;
  vm.workload = stress::web_service_profile();
  return vm;
}

TEST(ComputeNodeTest, CapacityViews) {
  ComputeNode node(0, node_spec(), hv::HvConfig{}, 1);
  EXPECT_EQ(node.total_vcpus(), 8);
  EXPECT_EQ(node.used_vcpus(), 0);
  EXPECT_NEAR(node.memory_capacity_mb(), 4.0 * 8192.0, 1.0);
  ASSERT_TRUE(node.place_vm(make_vm(1, 3)));
  EXPECT_EQ(node.free_vcpus(), 5);
  EXPECT_NEAR(node.used_memory_mb(), 2048.0, 1e-9);
  EXPECT_TRUE(node.remove_vm(1));
  EXPECT_EQ(node.used_vcpus(), 0);
}

TEST(ComputeNodeTest, PlacementFiltersCapacity) {
  ComputeNode node(0, node_spec(), hv::HvConfig{}, 1);
  EXPECT_FALSE(node.place_vm(make_vm(1, 9)));
  hv::Vm fat = make_vm(2, 1);
  fat.memory_mb = 1e9;
  EXPECT_FALSE(node.place_vm(fat));
}

TEST(ComputeNodeTest, MetricsTrackUtilizationAndAvailability) {
  ComputeNode node(0, node_spec(), hv::HvConfig{}, 1);
  node.place_vm(make_vm(1, 4));
  node.tick(0_s, 60_s);
  EXPECT_NEAR(node.metrics().utilization, 0.5, 1e-9);
  EXPECT_NEAR(node.metrics().availability, 1.0, 1e-9);
  EXPECT_GT(node.metrics().energy_kwh, 0.0);
}

TEST(ComputeNodeTest, CrashLosesVmsAndRepairs) {
  ComputeNode node(0, node_spec(), hv::HvConfig{}, 1);
  node.place_vm(make_vm(1, 4));
  // Force a crash by dropping the voltage absurdly low.
  hw::Eop eop = node.server().eop();
  eop.vdd = Volt{node.server().spec().chip.vdd_nominal.value * 0.5};
  node.hypervisor().apply_eop(eop);

  const auto result = node.tick(0_s, 60_s);
  EXPECT_TRUE(result.crashed);
  EXPECT_EQ(result.vms_lost.size(), 1u);
  EXPECT_FALSE(node.up());
  EXPECT_EQ(node.hypervisor().vm_count(), 0u);
  // Placement on a down node fails.
  EXPECT_FALSE(node.place_vm(make_vm(2, 1)));

  // Repair takes 5 minutes of downtime.
  node.hypervisor().apply_eop(
      hw::Eop{node.server().spec().chip.vdd_nominal,
              node.server().spec().chip.freq_nominal, 64_ms});
  int ticks_down = 0;
  double t = 60.0;
  while (!node.up()) {
    node.tick(Seconds{t}, 60_s);
    t += 60.0;
    ++ticks_down;
  }
  EXPECT_EQ(ticks_down, 5);
  EXPECT_LT(node.metrics().availability, 1.0);
  EXPECT_TRUE(node.place_vm(make_vm(2, 1)));
}

TEST(ComputeNodeTest, ForceCrashLosesResidentsAndIsIdempotent) {
  ComputeNode node(0, node_spec(), hv::HvConfig{}, 1);
  node.place_vm(make_vm(1, 2));
  node.place_vm(make_vm(2, 2));
  const auto lost = node.force_crash();
  EXPECT_EQ(lost.size(), 2u);
  EXPECT_FALSE(node.up());
  EXPECT_EQ(node.hypervisor().vm_count(), 0u);
  // A second crash on a node that is already down loses nothing.
  EXPECT_TRUE(node.force_crash().empty());
  // The node repairs on the usual schedule afterwards.
  double t = 0.0;
  while (!node.up() && t < 3600.0) {
    node.tick(Seconds{t}, 60_s);
    t += 60.0;
  }
  EXPECT_TRUE(node.up());
}

trace::VmRequest request_at(std::uint64_t id, double arrival,
                            double lifetime, int vcpus = 2) {
  trace::VmRequest request;
  request.id = id;
  request.arrival = Seconds{arrival};
  request.lifetime = Seconds{lifetime};
  request.vcpus = vcpus;
  request.memory_mb = 2048.0;
  request.sla = trace::SlaClass::kStandard;
  request.workload = stress::web_service_profile();
  return request;
}

/// Index of the node hosting `placement` in the cloud's fleet order.
int node_index_of(const Cloud& cloud, const ComputeNode* node) {
  const auto views = cloud.node_views();
  const auto it = std::find(views.begin(), views.end(), node);
  return it == views.end() ? -1
                           : static_cast<int>(it - views.begin());
}

TEST(CloudCrashInjectionTest, MidFlightCrashKeepsBooksBalanced) {
  // VMs in flight, then the node under them dies between ticks: the
  // lost VMs must land in lost_to_node_crash, vanish from the active
  // placements, and leave the books balanced so the rest of the
  // campaign can finish normally.
  auto cloud = Cloud::make_uniform(CloudConfig{}, node_spec(),
                                   hv::HvConfig{}, 3, 7);
  std::vector<trace::VmRequest> requests;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    requests.push_back(request_at(id, 0.0, 7200.0));
  }
  cloud->run(requests, Seconds{120.0});
  ASSERT_EQ(cloud->stats().accepted, 6u);
  const auto before = cloud->active_placements();
  ASSERT_EQ(before.size(), 6u);

  const int victim = node_index_of(*cloud, before.front().node);
  ASSERT_GE(victim, 0);
  std::uint64_t resident = 0;
  for (const auto& placement : before) {
    if (placement.node == before.front().node) ++resident;
  }
  cloud->inject_node_crash(victim);

  const auto& stats = cloud->stats();
  EXPECT_EQ(stats.node_crash_events, 1u);
  EXPECT_EQ(stats.lost_to_node_crash, resident);
  const auto after = cloud->active_placements();
  EXPECT_EQ(after.size(), 6u - resident);
  for (const auto& placement : after) {
    EXPECT_NE(placement.node, before.front().node);
  }
  EXPECT_EQ(stats.accepted,
            stats.completed + stats.lost_to_errors +
                stats.lost_to_node_crash + after.size());

  // The campaign continues: the survivors run to completion.
  cloud->run({}, Seconds{8000.0});
  EXPECT_EQ(cloud->stats().completed, 6u - resident);
  EXPECT_TRUE(cloud->active_placements().empty());
}

TEST(CloudCrashInjectionTest, CrashOnDownNodeIsNoOp) {
  auto cloud = Cloud::make_uniform(CloudConfig{}, node_spec(),
                                   hv::HvConfig{}, 2, 7);
  cloud->run({request_at(1, 0.0, 7200.0)}, Seconds{120.0});
  const int victim =
      node_index_of(*cloud, cloud->active_placements().front().node);
  cloud->inject_node_crash(victim);
  EXPECT_EQ(cloud->stats().node_crash_events, 1u);
  // Down already: a second hit must not double-count the crash.
  cloud->inject_node_crash(victim);
  EXPECT_EQ(cloud->stats().node_crash_events, 1u);
  // Out-of-range indices are ignored.
  cloud->inject_node_crash(-1);
  cloud->inject_node_crash(99);
  EXPECT_EQ(cloud->stats().node_crash_events, 1u);
}

TEST(CloudCrashInjectionTest, SurvivorsAbsorbLoadAfterFleetwideCrash) {
  // Kill every node but one mid-flight; new arrivals must still be
  // servable by the survivor and the books must stay balanced.
  auto cloud = Cloud::make_uniform(CloudConfig{}, node_spec(),
                                   hv::HvConfig{}, 3, 7);
  cloud->run({request_at(1, 0.0, 7200.0)}, Seconds{120.0});
  const ComputeNode* home = cloud->active_placements().front().node;
  const auto views = cloud->node_views();
  for (int i = 0; i < static_cast<int>(views.size()); ++i) {
    if (views[static_cast<std::size_t>(i)] != home) {
      cloud->inject_node_crash(i);
    }
  }
  EXPECT_EQ(cloud->stats().node_crash_events, 2u);
  EXPECT_EQ(cloud->stats().lost_to_node_crash, 0u);

  cloud->run({request_at(2, 180.0, 600.0)}, Seconds{1000.0});
  const auto& stats = cloud->stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.accepted, stats.completed + stats.lost_to_errors +
                                stats.lost_to_node_crash +
                                cloud->active_placements().size());
}

TEST(CloudCrashInjectionTest, DaemonRestartWipesHealthHistory) {
  auto cloud = Cloud::make_uniform(CloudConfig{}, node_spec(),
                                   hv::HvConfig{}, 2, 7);
  auto nodes = cloud->node_ptrs();
  daemons::HealthLog& log = nodes[0]->hypervisor().healthlog();
  daemons::ErrorEvent event;
  event.timestamp = Seconds{10.0};
  event.component = daemons::Component::kCache;
  event.severity = daemons::Severity::kCorrectable;
  log.record_error(event);
  nodes[1]->hypervisor().healthlog().record_error(event);
  daemons::InfoVector vector;
  vector.timestamp = Seconds{10.0};
  vector.correctable_errors = 1;
  log.record(vector);
  log.record_error({Seconds{10.0}, daemons::Component::kCore,
                    daemons::Severity::kCrash, 0});
  ASSERT_EQ(log.aggregate().vectors, 1u);
  ASSERT_EQ(log.aggregate().crash_events, 1u);
  ASSERT_GT(log.error_rate_per_s(Seconds{10.0}), 0.0);
  const std::uint64_t correctable = log.total_correctable();
  const std::uint64_t uncorrectable = log.total_uncorrectable();

  cloud->inject_daemon_restart(0);
  // The daemon's aggregate and recent events are gone; lifetime totals
  // survive the restart (they live with the metrics pipeline, not the
  // daemon).
  const auto aggregate = log.aggregate();
  EXPECT_EQ(aggregate.vectors, 0u);
  EXPECT_EQ(aggregate.correctable_errors, 0u);
  EXPECT_EQ(aggregate.crash_events, 0u);
  EXPECT_EQ(log.error_rate_per_s(Seconds{10.0}), 0.0);
  EXPECT_EQ(log.total_correctable(), correctable);
  EXPECT_EQ(log.total_uncorrectable(), uncorrectable);

  // The predictor forgot node 0's pre-restart event too; node 1's
  // still reaches it at the next tick.
  cloud->run({}, Seconds{60.0});
  EXPECT_EQ(nodes[0]->metrics().reliability, 1.0);
  EXPECT_LT(nodes[1]->metrics().reliability, 1.0);
}

TEST(ComputeNodeTest, ReliabilityClamped) {
  ComputeNode node(0, node_spec(), hv::HvConfig{}, 1);
  node.set_reliability(5.0);
  EXPECT_DOUBLE_EQ(node.metrics().reliability, 1.0);
  node.set_reliability(-3.0);
  EXPECT_DOUBLE_EQ(node.metrics().reliability, 0.0);
}

}  // namespace
}  // namespace uniserver::osk
