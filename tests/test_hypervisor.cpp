#include "hypervisor/hypervisor.h"

#include <gtest/gtest.h>

#include "hwmodel/chip_spec.h"
#include "hypervisor/domains.h"
#include "hypervisor/footprint.h"
#include "stress/profiles.h"

namespace uniserver::hv {
namespace {

using namespace uniserver::literals;

hw::NodeSpec node_spec() {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  return spec;
}

Vm make_vm(std::uint64_t id, int vcpus = 2, double memory_mb = 4096.0,
           bool critical = false) {
  Vm vm;
  vm.id = id;
  vm.name = "vm-" + std::to_string(id);
  vm.vcpus = vcpus;
  vm.memory_mb = memory_mb;
  vm.workload = stress::ldbc_profile();
  vm.requirements.critical = critical;
  return vm;
}

TEST(FootprintModelTest, ShareStaysBelowSevenPercent) {
  const FootprintModel model;
  // Any plausible population: 0-8 VMs at 512 MB .. 16 GB resident each.
  for (std::size_t vms : {0u, 1u, 2u, 4u, 8u}) {
    for (double per_vm_mb : {512.0, 2048.0, 6144.0, 16384.0}) {
      const double vm_mb = per_vm_mb * static_cast<double>(vms);
      EXPECT_LT(model.hypervisor_share(vms, vm_mb), 0.07)
          << vms << " VMs, " << vm_mb << " MB";
    }
  }
}

TEST(FootprintModelTest, FootprintGrowsWithGuests) {
  const FootprintModel model;
  EXPECT_GT(model.hypervisor_mb(4, 16384.0), model.hypervisor_mb(1, 2048.0));
  EXPECT_GT(model.total_utilized_mb(4, 16384.0), 16384.0);
}

TEST(DomainManager, PinsMinimalChannels) {
  hw::ServerNode node(node_spec(), 1);
  MemoryDomainManager domains(node);
  const double channel_mb = domains.channel_capacity_mb(0);
  EXPECT_EQ(domains.configure_reliable_capacity(channel_mb * 0.5), 1);
  EXPECT_EQ(domains.reliable_channels(), 1);
  EXPECT_EQ(domains.configure_reliable_capacity(channel_mb * 1.5), 2);
  domains.release_all();
  EXPECT_EQ(domains.reliable_channels(), 0);
}

TEST(DomainManager, CapacityAccounting) {
  hw::ServerNode node(node_spec(), 1);
  MemoryDomainManager domains(node);
  const double total =
      domains.reliable_capacity_mb() + domains.relaxed_capacity_mb();
  domains.configure_reliable_capacity(1.0);
  EXPECT_NEAR(domains.reliable_capacity_mb() + domains.relaxed_capacity_mb(),
              total, 1e-6);
  EXPECT_GT(domains.reliable_capacity_mb(), 0.0);
}

TEST(DomainManager, PlacementSpillsWhenFull) {
  hw::ServerNode node(node_spec(), 1);
  MemoryDomainManager domains(node);
  domains.configure_reliable_capacity(1.0);  // one channel
  const double capacity = domains.reliable_capacity_mb();
  const double placed = domains.place(capacity * 2.0, true);
  EXPECT_NEAR(placed, capacity, 1e-6);
  EXPECT_NEAR(domains.place(100.0, true), 0.0, 1e-9);  // full
  domains.free_reliable(capacity);
  EXPECT_NEAR(domains.place(100.0, true), 100.0, 1e-9);
  EXPECT_DOUBLE_EQ(domains.place(100.0, false), 0.0);
}

class HypervisorFixture : public ::testing::Test {
 protected:
  HypervisorFixture()
      : node_(node_spec(), 2), hypervisor_(node_, HvConfig{}, 2) {}
  hw::ServerNode node_;
  Hypervisor hypervisor_;
};

TEST_F(HypervisorFixture, VmLifecycleRespectsCapacity) {
  EXPECT_TRUE(hypervisor_.create_vm(make_vm(1, 4)));
  EXPECT_TRUE(hypervisor_.create_vm(make_vm(2, 4)));
  // 8 cores are committed; a 9th vCPU does not fit.
  EXPECT_FALSE(hypervisor_.create_vm(make_vm(3, 1)));
  EXPECT_FALSE(hypervisor_.create_vm(make_vm(1, 1)));  // duplicate id
  EXPECT_TRUE(hypervisor_.destroy_vm(2));
  EXPECT_FALSE(hypervisor_.destroy_vm(2));
  EXPECT_TRUE(hypervisor_.create_vm(make_vm(3, 1)));
  EXPECT_EQ(hypervisor_.vm_count(), 2u);
}

TEST_F(HypervisorFixture, AggregateSignatureIsWeightedByVcpus) {
  EXPECT_EQ(hypervisor_.aggregate_signature().name, "idle");
  Vm calm = make_vm(1, 1);
  calm.workload = *stress::spec_profile("mcf");  // low activity
  Vm busy = make_vm(2, 7);
  busy.workload = *stress::spec_profile("h264ref");  // high activity
  hypervisor_.create_vm(calm);
  hypervisor_.create_vm(busy);
  const auto aggregate = hypervisor_.aggregate_signature();
  // Dominated by the 7-vCPU busy guest.
  EXPECT_GT(aggregate.activity, 0.8);
  EXPECT_LE(aggregate.didt_stress, 1.0);
}

TEST_F(HypervisorFixture, ReliableDomainCoversFootprint) {
  hypervisor_.create_vm(make_vm(1, 2, 8192.0));
  EXPECT_GT(hypervisor_.domains().reliable_capacity_mb(),
            hypervisor_.hypervisor_footprint_mb());
  EXPECT_LT(hypervisor_.hypervisor_share(), 0.07);
}

TEST_F(HypervisorFixture, CriticalVmExpandsReliableDomain) {
  const double before = hypervisor_.domains().reliable_capacity_mb();
  hypervisor_.create_vm(make_vm(1, 2, 30000.0, /*critical=*/true));
  EXPECT_GE(hypervisor_.domains().reliable_capacity_mb(), before);
  EXPECT_GE(hypervisor_.domains().reliable_capacity_mb(), 30000.0);
}

TEST_F(HypervisorFixture, TickAtNominalIsUneventful) {
  hypervisor_.create_vm(make_vm(1, 4));
  for (int i = 0; i < 20; ++i) {
    const TickReport report =
        hypervisor_.tick(Seconds{60.0 * i}, 60_s);
    ASSERT_FALSE(report.node_crash);
    ASSERT_FALSE(report.hypervisor_fatal);
    ASSERT_TRUE(report.vms_killed.empty());
    EXPECT_GT(report.energy.value, 0.0);
  }
  EXPECT_EQ(hypervisor_.stats().ticks, 20u);
  EXPECT_GT(hypervisor_.stats().energy.value, 0.0);
  // Monitoring vectors were recorded every tick.
  EXPECT_EQ(hypervisor_.healthlog().aggregate().vectors, 20u);
}

TEST_F(HypervisorFixture, ApplyMarginsSetsEop) {
  daemons::SafeMargins margins;
  margins.points.push_back(
      {node_.spec().chip.freq_nominal, Volt{0.85}, 14.0, 13.0});
  margins.safe_refresh = 1500_ms;
  hypervisor_.apply_margins(margins, node_.spec().chip.freq_nominal);
  EXPECT_DOUBLE_EQ(node_.eop().vdd.value, 0.85);
  EXPECT_DOUBLE_EQ(node_.eop().refresh.value, 1.5);
  // Reliable channels stay nominal even after the margin application.
  bool any_reliable = false;
  for (int c = 0; c < node_.memory().channels(); ++c) {
    if (node_.channel_reliable(c)) {
      any_reliable = true;
      EXPECT_DOUBLE_EQ(node_.memory().channel_refresh(c).value, 0.064);
    }
  }
  EXPECT_TRUE(any_reliable);
}

TEST_F(HypervisorFixture, UndervoltingPastMarginCrashesAndIsLogged) {
  hypervisor_.create_vm(make_vm(1, 8));
  hw::Eop eop = node_.eop();
  eop.vdd = Volt{node_.spec().chip.vdd_nominal.value * 0.55};
  hypervisor_.apply_eop(eop);
  const TickReport report = hypervisor_.tick(0_s, 60_s);
  EXPECT_TRUE(report.node_crash);
  EXPECT_EQ(hypervisor_.stats().node_crashes, 1u);
  EXPECT_GE(hypervisor_.healthlog().aggregate().crash_events, 1u);
}

TEST(HypervisorDomains, RelaxedRefreshWithoutDomainsEventuallyKillsHv) {
  hw::NodeSpec spec = node_spec();
  hw::ServerNode node(spec, 3);
  HvConfig config;
  config.use_reliable_domain = false;
  config.selective_protection = false;
  Hypervisor hypervisor(node, config, 3);
  hypervisor.create_vm(make_vm(1, 4, 8192.0));
  hw::Eop eop = node.eop();
  eop.refresh = Seconds{5.0};
  hypervisor.apply_eop(eop);

  std::uint64_t hv_hits = 0;
  for (int i = 0; i < 24 * 60; ++i) {
    const TickReport report = hypervisor.tick(Seconds{60.0 * i}, 60_s);
    hv_hits += report.dram_errors_into_hv;
    if (!hypervisor.vms().contains(1)) {
      hypervisor.create_vm(make_vm(1, 4, 8192.0));
    }
  }
  EXPECT_GT(hv_hits, 0u);
}

TEST(HypervisorDomains, ReliableDomainShieldsHv) {
  hw::NodeSpec spec = node_spec();
  hw::ServerNode node(spec, 3);
  HvConfig config;
  config.use_reliable_domain = true;
  Hypervisor hypervisor(node, config, 3);
  hypervisor.create_vm(make_vm(1, 4, 8192.0));
  hw::Eop eop = node.eop();
  eop.refresh = Seconds{5.0};
  hypervisor.apply_eop(eop);

  for (int i = 0; i < 24 * 60; ++i) {
    const TickReport report = hypervisor.tick(Seconds{60.0 * i}, 60_s);
    ASSERT_EQ(report.dram_errors_into_hv, 0u);
    ASSERT_FALSE(report.hypervisor_fatal);
    if (!hypervisor.vms().contains(1)) {
      hypervisor.create_vm(make_vm(1, 4, 8192.0));
    }
  }
}

TEST(HypervisorIsolation, SustainedCacheErrorsRetireCores) {
  hw::NodeSpec spec = node_spec();
  hw::ServerNode node(spec, 4);
  HvConfig config;
  config.core_isolation_threshold_per_hour = 10.0;
  Hypervisor hypervisor(node, config, 4);
  hypervisor.create_vm(make_vm(1, 8));

  // Park the node just above the crash point: the cache ECC canary
  // fires constantly, which must eventually retire cores.
  const auto w = hypervisor.aggregate_signature();
  const Volt crash =
      node.chip().system_crash_voltage(w, spec.chip.freq_nominal);
  hw::Eop eop = node.eop();
  eop.vdd = crash + Volt::from_mv(1.0);
  hypervisor.apply_eop(eop);

  for (int i = 0; i < 120 && hypervisor.retired_cores().empty(); ++i) {
    hypervisor.tick(Seconds{60.0 * i}, 60_s);
  }
  EXPECT_FALSE(hypervisor.retired_cores().empty());
  EXPECT_LT(hypervisor.usable_cores(), node.chip().num_cores());
}

TEST(HypervisorStats, VmKillAccounting) {
  hw::NodeSpec spec = node_spec();
  hw::ServerNode node(spec, 5);
  HvConfig config;
  config.guest_sdc_survival = 0.0;  // every guest hit kills the VM
  Hypervisor hypervisor(node, config, 5);
  hypervisor.create_vm(make_vm(1, 4, 16384.0));
  hw::Eop eop = node.eop();
  eop.refresh = Seconds{5.0};
  hypervisor.apply_eop(eop);

  std::uint64_t kills = 0;
  for (int i = 0; i < 24 * 60; ++i) {
    const TickReport report = hypervisor.tick(Seconds{60.0 * i}, 60_s);
    kills += report.vms_killed.size();
    if (!hypervisor.vms().contains(1)) {
      hypervisor.create_vm(make_vm(1, 4, 16384.0));
    }
  }
  EXPECT_GT(kills, 0u);
  EXPECT_EQ(hypervisor.stats().vm_kills, kills);
}

}  // namespace
}  // namespace uniserver::hv
