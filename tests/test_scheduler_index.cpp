// Property-based scheduler suite (ctest label: scheduler). A random
// allocate/release/crash/reboot/migrate churn is replayed in lockstep
// through the indexed and reference engines, and after every mutation:
//   - both engines return the same node for every pick,
//   - no node is ever driven past its vCPU or memory capacity,
//   - the capacity index passes its structural self-check,
//   - every rejection is genuine: a linear sweep over the fleet proves
//     no feasible node existed.
// The per-scenario differential suite covers whole-stack replay; this
// covers the engine contract itself under arbitrary mutation orders.
#include "openstack/scheduler_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hwmodel/chip_spec.h"
#include "openstack/scheduler.h"

namespace uniserver::osk {
namespace {

hw::NodeSpec node_spec() {
  hw::NodeSpec spec;
  spec.chip = hw::arm_soc_spec();
  return spec;
}

struct Resident {
  hv::Vm vm;
  ComputeNode* node{nullptr};
};

class PolicyChurnTest : public ::testing::TestWithParam<SchedulerPolicy> {};

// gtest parameter names must be identifiers; policy names use hyphens.
std::string policy_name(
    const ::testing::TestParamInfo<SchedulerPolicy>& info) {
  std::string name = to_string(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyChurnTest,
                         ::testing::ValuesIn(all_scheduler_policies()),
                         policy_name);

TEST_P(PolicyChurnTest, LockstepChurnHoldsInvariants) {
  constexpr int kNodes = 10;
  constexpr int kSteps = 400;

  std::vector<std::unique_ptr<ComputeNode>> nodes;
  std::vector<ComputeNode*> ptrs;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<ComputeNode>(
        i, node_spec(), hv::HvConfig{}, static_cast<std::uint64_t>(i + 1)));
    ptrs.push_back(nodes.back().get());
  }

  IndexedScheduler indexed(GetParam());
  ReferenceScheduler reference(GetParam());
  indexed.bind(ptrs);
  reference.bind(ptrs);

  Rng rng(20260806u + static_cast<std::uint64_t>(GetParam()));
  std::vector<Resident> resident;
  std::uint64_t next_id = 1;
  double now = 0.0;

  auto signal = [&](ComputeNode* node) {
    indexed.node_changed(node);
    reference.node_changed(node);
  };
  auto drop_lost = [&](const std::vector<std::uint64_t>& lost) {
    for (const std::uint64_t id : lost) {
      resident.erase(std::remove_if(resident.begin(), resident.end(),
                                    [id](const Resident& r) {
                                      return r.vm.id == id;
                                    }),
                     resident.end());
    }
  };
  auto lockstep_pick = [&](const hv::Vm& vm, bool critical,
                           const PlacementConstraint& constraint =
                               {}) -> ComputeNode* {
    ComputeNode* a = indexed.pick(vm, critical, constraint);
    ComputeNode* b = reference.pick(vm, critical, constraint);
    EXPECT_EQ(a, b) << "engines diverged on vm " << vm.id
                    << " (indexed " << (a ? a->name() : "reject")
                    << ", reference " << (b ? b->name() : "reject") << ")";
    return a == b ? a : nullptr;
  };

  // Operation mix: arrivals dominate so capacity pressure builds;
  // crashes/reboots/migrations churn the index's up/down and placement
  // state; the periodic tick moves the weighted policies' metrics.
  const std::vector<double> op_weights = {0.46, 0.20, 0.08, 0.08,
                                          0.10, 0.08};
  for (int step = 0; step < kSteps; ++step) {
    switch (rng.weighted_pick(op_weights)) {
      case 0: {  // arrival
        hv::Vm vm;
        vm.id = next_id++;
        vm.name = "churn-" + std::to_string(vm.id);
        vm.vcpus = static_cast<int>(1 + rng.uniform_u64(4));
        vm.memory_mb = rng.uniform(256.0, 4096.0);
        vm.requirements.critical = rng.bernoulli(0.2);
        const bool critical = vm.requirements.critical;
        ComputeNode* target = lockstep_pick(vm, critical);
        if (target == nullptr) {
          // Rejection completeness: no node may pass the filters.
          for (ComputeNode* node : ptrs) {
            EXPECT_FALSE(passes_filters(
                *node, vm, critical, indexed.critical_reliability_floor))
                << "rejected vm " << vm.id << " though " << node->name()
                << " was feasible";
          }
        } else {
          ASSERT_TRUE(target->place_vm(vm));
          signal(target);
          resident.push_back({vm, target});
        }
        break;
      }
      case 1: {  // release
        if (resident.empty()) break;
        const std::size_t i = rng.uniform_u64(resident.size());
        ASSERT_TRUE(resident[i].node->remove_vm(resident[i].vm.id));
        signal(resident[i].node);
        resident.erase(resident.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 2: {  // crash
        ComputeNode* node = ptrs[rng.uniform_u64(ptrs.size())];
        if (!node->up()) break;
        drop_lost(node->force_crash());
        signal(node);
        break;
      }
      case 3: {  // reboot
        ComputeNode* node = ptrs[rng.uniform_u64(ptrs.size())];
        if (node->up()) break;
        node->reboot();
        signal(node);
        break;
      }
      case 4: {  // migrate: exclude-source pick, then move
        if (resident.empty()) break;
        const std::size_t i = rng.uniform_u64(resident.size());
        Resident& r = resident[i];
        if (!r.node->up()) break;
        PlacementConstraint constraint;
        constraint.exclude = r.node;
        ComputeNode* target =
            lockstep_pick(r.vm, r.vm.requirements.critical, constraint);
        if (target != nullptr) {
          ASSERT_TRUE(r.node->remove_vm(r.vm.id));
          signal(r.node);
          ASSERT_TRUE(target->place_vm(r.vm));
          signal(target);
          r.node = target;
        }
        break;
      }
      default: {  // control-loop tick: metrics move, then weight refresh
        for (ComputeNode* node : ptrs) {
          const auto tick = node->tick(Seconds{now}, Seconds{60.0});
          drop_lost(tick.vms_lost);
          signal(node);
        }
        now += 60.0;
        for (ComputeNode* node : ptrs) {
          node->set_reliability(rng.uniform(0.9, 1.0));
        }
        indexed.refresh_weights();
        reference.refresh_weights();
        break;
      }
    }

    ASSERT_EQ(indexed.self_check(), "") << "after step " << step;
    for (const ComputeNode* node : ptrs) {
      ASSERT_GE(node->free_vcpus(), 0)
          << node->name() << " over vCPU capacity at step " << step;
      ASSERT_GE(node->free_memory_mb(), -1e-6)
          << node->name() << " over memory capacity at step " << step;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace uniserver::osk
