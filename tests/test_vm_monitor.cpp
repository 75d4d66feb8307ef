// Tests of the fine-grained VM monitor.
#include <gtest/gtest.h>

#include "openstack/monitor.h"

namespace uniserver {
namespace {

osk::VmSample sample_at(double t, double cpu, double mb,
                        std::uint64_t errors = 0) {
  return osk::VmSample{Seconds{t}, cpu, mb, errors};
}

TEST(VmMonitorTest, UsageAggregates) {
  osk::VmMonitor monitor;
  monitor.record(1, sample_at(0.0, 0.5, 2000.0));
  monitor.record(1, sample_at(60.0, 0.7, 4000.0, 2));
  const osk::VmUsage usage = monitor.usage(1);
  EXPECT_EQ(usage.samples, 2u);
  EXPECT_NEAR(usage.mean_cpu, 0.6, 1e-12);
  EXPECT_NEAR(usage.peak_cpu, 0.7, 1e-12);
  EXPECT_NEAR(usage.mean_memory_mb, 3000.0, 1e-9);
  EXPECT_NEAR(usage.peak_memory_mb, 4000.0, 1e-9);
  EXPECT_EQ(usage.total_errors, 2u);
}

TEST(VmMonitorTest, UnknownVmIsZero) {
  osk::VmMonitor monitor;
  EXPECT_EQ(monitor.usage(9).samples, 0u);
  EXPECT_DOUBLE_EQ(monitor.susceptibility(9), 0.0);
}

TEST(VmMonitorTest, WindowBoundsHistory) {
  osk::VmMonitor::Config config;
  config.window = 4;
  osk::VmMonitor monitor(config);
  for (int i = 0; i < 20; ++i) {
    monitor.record(1, sample_at(i, i / 20.0, 1000.0 + i, i % 2));
  }
  const osk::VmUsage usage = monitor.usage(1);
  EXPECT_EQ(usage.samples, 4u);
  // Only the newest four samples count, summed oldest first.
  EXPECT_EQ(usage.mean_cpu,
            (((16 / 20.0 + 17 / 20.0) + 18 / 20.0) + 19 / 20.0) / 4.0);
  EXPECT_EQ(usage.peak_cpu, 19 / 20.0);
  EXPECT_EQ(usage.mean_memory_mb, 1017.5);
  EXPECT_EQ(usage.peak_memory_mb, 1019.0);
  EXPECT_EQ(usage.total_errors, 2u);
}

TEST(VmMonitorTest, SusceptibilityRanksBigBusyErrorProneFirst) {
  osk::VmMonitor monitor;
  // VM 1: small, idle. VMs 2 and 4: big and busy, equal scores. VM 3:
  // big, busy AND has already absorbed errors.
  for (int i = 0; i < 10; ++i) {
    monitor.record(4, sample_at(i, 0.9, 16384.0));
    monitor.record(1, sample_at(i, 0.05, 512.0));
    monitor.record(2, sample_at(i, 0.9, 16384.0));
    monitor.record(3, sample_at(i, 0.9, 16384.0, i == 0 ? 5u : 0u));
  }
  const auto ranked = monitor.ranked_by_susceptibility();
  ASSERT_EQ(ranked.size(), 4u);
  EXPECT_EQ(ranked[0], 3u);
  EXPECT_EQ(ranked[1], 2u);  // equal scores rank by ascending id
  EXPECT_EQ(ranked[2], 4u);
  EXPECT_EQ(ranked[3], 1u);
  EXPECT_GT(monitor.susceptibility(3), monitor.susceptibility(2));
  EXPECT_LE(monitor.susceptibility(3), 1.0);
}

TEST(VmMonitorTest, ForgetDropsHistory) {
  osk::VmMonitor monitor;
  monitor.record(1, sample_at(0.0, 0.5, 2048.0));
  EXPECT_EQ(monitor.tracked_vms(), 1u);
  monitor.forget(1);
  EXPECT_EQ(monitor.tracked_vms(), 0u);
  EXPECT_EQ(monitor.usage(1).samples, 0u);
}

}  // namespace
}  // namespace uniserver
