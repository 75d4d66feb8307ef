// Request serving layer (ctest label `serve`).
//
// Covers the three serve primitives against closed forms and
// determinism contracts — the virtual-time vCPU queue against M/M/1,
// the replica balancer's tie-breaking, the layer's conservation
// books — with the early-stopping router and the sweep drain each
// checked against a slow reference (copy-then-scan routing, a
// min-heap of completions), plus the fuzz integration: replay v3
// round-trips, v2 files still parse, request-burst campaigns stay
// digest-invariant across --jobs, and the serve-slo oracle's balance
// helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "fuzz/harness.h"
#include "fuzz/oracles.h"
#include "fuzz/scenario.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/platform.h"
#include "serve/serve.h"
#include "stress/profiles.h"
#include "trace/arrivals.h"

namespace uniserver {
namespace {

// -- VcpuQueue ---------------------------------------------------------

TEST(VcpuQueue, SingleServerIsFifo) {
  serve::VcpuQueue queue(1, 16);
  const auto first = queue.offer(Seconds{0.0}, Seconds{1.0});
  const auto second = queue.offer(Seconds{0.0}, Seconds{1.0});
  ASSERT_TRUE(first.admitted);
  ASSERT_TRUE(second.admitted);
  EXPECT_DOUBLE_EQ(first.latency.value, 1.0);
  EXPECT_DOUBLE_EQ(second.latency.value, 2.0);  // queued behind the first
  EXPECT_EQ(queue.outstanding(), 2u);
  EXPECT_EQ(queue.drain(Seconds{1.5}), 1u);
  EXPECT_EQ(queue.outstanding(), 1u);
  EXPECT_EQ(queue.drain(Seconds{2.0}), 1u);
}

TEST(VcpuQueue, MultipleVcpusServeInParallel) {
  serve::VcpuQueue queue(2, 16);
  const auto a = queue.offer(Seconds{0.0}, Seconds{1.0});
  const auto b = queue.offer(Seconds{0.0}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(a.latency.value, 1.0);
  EXPECT_DOUBLE_EQ(b.latency.value, 1.0);  // second server, no wait
  const auto c = queue.offer(Seconds{0.0}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(c.latency.value, 2.0);  // both busy now
}

TEST(VcpuQueue, CapShedsExcessArrivals) {
  serve::VcpuQueue queue(1, 2);
  EXPECT_TRUE(queue.offer(Seconds{0.0}, Seconds{1.0}).admitted);
  EXPECT_TRUE(queue.offer(Seconds{0.0}, Seconds{1.0}).admitted);
  EXPECT_FALSE(queue.offer(Seconds{0.0}, Seconds{1.0}).admitted);
  // Draining a completion frees a slot again.
  EXPECT_EQ(queue.drain(Seconds{1.0}), 1u);
  EXPECT_TRUE(queue.offer(Seconds{1.0}, Seconds{1.0}).admitted);
}

TEST(VcpuQueue, StallGatesOnlySubsequentDispatches) {
  serve::VcpuQueue queue(1, 16);
  const auto before = queue.offer(Seconds{0.0}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(before.latency.value, 1.0);
  // An 8 s restore at t=2: the busy horizon jumps to max(1, 2) + 8.
  queue.stall(Seconds{2.0}, Seconds{8.0});
  const auto after = queue.offer(Seconds{2.0}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(after.latency.value, 9.0);
  // The pre-stall request's completion time was already handed out.
  EXPECT_EQ(queue.drain(Seconds{1.0}), 1u);
}

TEST(VcpuQueue, BacklogSumsResidualBusyTime) {
  serve::VcpuQueue queue(2, 16);
  queue.offer(Seconds{0.0}, Seconds{3.0});
  queue.offer(Seconds{0.0}, Seconds{1.0});
  EXPECT_DOUBLE_EQ(queue.backlog(Seconds{0.0}).value, 4.0);
  EXPECT_DOUBLE_EQ(queue.backlog(Seconds{2.0}).value, 1.0);
  EXPECT_DOUBLE_EQ(queue.backlog(Seconds{5.0}).value, 0.0);
}

TEST(VcpuQueue, MatchesMM1ClosedFormMeanSojourn) {
  // One vCPU, Poisson arrivals at lambda, exponential demands at mu:
  // textbook M/M/1, mean sojourn 1/(mu - lambda).
  const double lambda = 8.0;
  const double mu = 20.0;
  serve::VcpuQueue queue(1, 1u << 20);
  Rng rng(42);
  double t = 0.0;
  double latency_sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    t += rng.exponential(lambda);
    const auto offer = queue.offer(Seconds{t}, Seconds{rng.exponential(mu)});
    ASSERT_TRUE(offer.admitted);
    latency_sum += offer.latency.value;
  }
  const double mean = latency_sum / n;
  const double expected = 1.0 / (mu - lambda);
  EXPECT_NEAR(mean, expected, expected * 0.05)
      << "mean sojourn " << mean << " vs closed form " << expected;
}

// Reference VcpuQueue: the same servers, with outstanding completions
// in a min-heap popped one at a time by drain().
class ReferenceQueue {
 public:
  ReferenceQueue(int vcpus, std::size_t cap)
      : free_at_(static_cast<std::size_t>(std::max(1, vcpus)), 0.0),
        cap_(std::max<std::size_t>(1, cap)) {}

  serve::VcpuQueue::Offer offer(Seconds arrival, Seconds service) {
    serve::VcpuQueue::Offer offer;
    if (in_flight_.size() >= cap_) return offer;
    const auto best = std::min_element(free_at_.begin(), free_at_.end());
    const double completion =
        std::max(arrival.value, *best) + std::max(0.0, service.value);
    *best = completion;
    in_flight_.push(completion);
    offer.admitted = true;
    offer.completion = Seconds{completion};
    offer.latency = Seconds{completion - arrival.value};
    return offer;
  }

  void stall(Seconds at, Seconds duration) {
    for (double& horizon : free_at_) {
      horizon = std::max(horizon, at.value) + std::max(0.0, duration.value);
    }
  }

  std::uint64_t drain(Seconds now) {
    std::uint64_t completed = 0;
    while (!in_flight_.empty() && in_flight_.top() <= now.value) {
      in_flight_.pop();
      ++completed;
    }
    return completed;
  }

  std::size_t outstanding() const { return in_flight_.size(); }

 private:
  std::vector<double> free_at_;
  std::priority_queue<double, std::vector<double>, std::greater<>>
      in_flight_;
  std::size_t cap_;
};

TEST(VcpuQueue, SweepDrainMatchesMinHeapReference) {
  Rng rng(2024);
  int sheds = 0;
  int exact_drains = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int vcpus = static_cast<int>(rng.uniform_int(1, 8));
    const auto cap = static_cast<std::size_t>(rng.uniform_int(1, 48));
    serve::VcpuQueue fast(vcpus, cap);
    ReferenceQueue reference(vcpus, cap);
    std::vector<double> completions;
    double now = 0.0;
    for (int step = 0; step < 400; ++step) {
      const double roll = rng.uniform();
      if (roll < 0.75) {
        // Service times on a coarse grid so completions collide.
        const Seconds arrival{now + 0.25 * rng.uniform_int(0, 4)};
        const Seconds service{0.5 * rng.uniform_int(0, 6)};
        const auto a = fast.offer(arrival, service);
        const auto b = reference.offer(arrival, service);
        ASSERT_EQ(a.admitted, b.admitted) << "trial " << trial;
        ASSERT_EQ(a.completion.value, b.completion.value);
        ASSERT_EQ(a.latency.value, b.latency.value);
        if (a.admitted) completions.push_back(a.completion.value);
        sheds += !a.admitted;
      } else if (roll < 0.8) {
        const Seconds at{now + rng.uniform(0.0, 2.0)};
        const Seconds duration{rng.uniform(0.0, 4.0)};
        fast.stall(at, duration);
        reference.stall(at, duration);
      } else {
        // Drain at a handed-out completion half the time, so some
        // completions equal `now` exactly.
        if (!completions.empty() && rng.bernoulli(0.5)) {
          const double at = completions[rng.uniform_u64(completions.size())];
          exact_drains += at >= now;
          now = std::max(now, at);
        } else {
          now += rng.uniform(0.0, 3.0);
        }
        ASSERT_EQ(fast.drain(Seconds{now}), reference.drain(Seconds{now}))
            << "trial " << trial << " step " << step;
      }
      ASSERT_EQ(fast.outstanding(), reference.outstanding());
    }
  }
  // The cap shed arrivals and drains landed on completions exactly.
  EXPECT_GT(sheds, 1000);
  EXPECT_GT(exact_drains, 500);
}

// -- ReplicaBalancer ---------------------------------------------------

// Reference router: copy every member's (id, backlog) and scan for the
// minimum backlog, ties to the lowest id, in any listing order.
std::uint64_t reference_route(
    const std::vector<std::pair<std::uint64_t, Seconds>>& backlogs) {
  std::uint64_t best_id = 0;
  double best_backlog = 0.0;
  bool first = true;
  for (const auto& [id, backlog] : backlogs) {
    if (first || backlog.value < best_backlog ||
        (backlog.value == best_backlog && id < best_id)) {
      best_id = id;
      best_backlog = backlog.value;
      first = false;
    }
  }
  return best_id;
}

// One-vCPU queues, in ascending-id order, whose backlog at t = 0 is
// the given busy time.
std::vector<serve::VcpuQueue> queues_with_backlogs(
    const std::vector<double>& backlogs) {
  std::vector<serve::VcpuQueue> queues;
  for (double backlog : backlogs) {
    queues.emplace_back(1, 16);
    if (backlog > 0.0) queues.back().offer(Seconds{0.0}, Seconds{backlog});
  }
  return queues;
}

TEST(ReplicaBalancer, LeastBacklogWinsTiesToLowestId) {
  EXPECT_EQ(reference_route(
                {{7, Seconds{2.0}}, {3, Seconds{0.5}}, {9, Seconds{1.0}}}),
            3u);
  // Exact tie: the lowest VM id wins regardless of listing order.
  EXPECT_EQ(reference_route(
                {{9, Seconds{1.0}}, {4, Seconds{1.0}}, {6, Seconds{1.0}}}),
            4u);
  // The same two services, members in ascending id (3, 7, 9 and
  // 4, 6, 9): the router returns a position.
  EXPECT_EQ(serve::ReplicaBalancer::route(
                queues_with_backlogs({0.5, 2.0, 1.0}), Seconds{0.0}),
            0u);
  EXPECT_EQ(serve::ReplicaBalancer::route(
                queues_with_backlogs({1.0, 1.0, 1.0}), Seconds{0.0}),
            0u);
  EXPECT_EQ(serve::ReplicaBalancer::route(
                queues_with_backlogs({2.0, 1.5, 1.0, 1.0}), Seconds{0.0}),
            2u);
  // The first idle member wins, ahead of a later idle one.
  EXPECT_EQ(serve::ReplicaBalancer::route(
                queues_with_backlogs({2.0, 0.0, 1.0, 0.0}), Seconds{0.0}),
            1u);
}

TEST(ReplicaBalancer, EarlyStopMatchesReferenceScan) {
  Rng rng(77);
  int idle_picks = 0;
  int all_busy = 0;
  int busy_ties = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 64));
    std::vector<std::uint64_t> ids;
    std::uint64_t id = 0;
    for (std::size_t i = 0; i < n; ++i) {
      id += static_cast<std::uint64_t>(rng.uniform_int(1, 9));
      ids.push_back(id);
    }
    // Every third trial makes every member busy at the routing time.
    const bool force_busy = trial % 3 == 0;
    std::vector<serve::VcpuQueue> queues;
    std::vector<double> horizons;
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 && rng.bernoulli(0.2)) {
        // A copy of the previous member: an equal backlog.
        queues.push_back(queues.back());
        continue;
      }
      queues.emplace_back(static_cast<int>(rng.uniform_int(1, 8)), 64);
      const auto offers = rng.uniform_int(0, 12);
      for (std::int64_t k = 0; k < offers; ++k) {
        const auto offer = queues.back().offer(
            Seconds{0.5 * rng.uniform_int(0, 8)},
            Seconds{0.5 * rng.uniform_int(0, 10)});
        horizons.push_back(offer.completion.value);
      }
      if (rng.bernoulli(0.2)) {
        queues.back().stall(Seconds{rng.uniform(0.0, 4.0)},
                            Seconds{rng.uniform(0.0, 6.0)});
      }
      if (force_busy) queues.back().stall(Seconds{10.0}, Seconds{1.0});
    }
    // Route at a handed-out completion (an arrival equal to a busy
    // horizon) about half the time.
    const double t =
        force_busy ? 10.0
        : !horizons.empty() && rng.bernoulli(0.5)
            ? horizons[rng.uniform_u64(horizons.size())]
            : rng.uniform(0.0, 8.0);
    std::vector<std::pair<std::uint64_t, Seconds>> backlogs;
    for (std::size_t i = 0; i < n; ++i) {
      backlogs.emplace_back(ids[i], queues[i].backlog(Seconds{t}));
    }
    rng.shuffle(backlogs);
    const std::size_t pos =
        serve::ReplicaBalancer::route(queues, Seconds{t});
    ASSERT_LT(pos, n);
    ASSERT_EQ(ids[pos], reference_route(backlogs))
        << "trial " << trial << " at t=" << t;

    const double picked = queues[pos].backlog(Seconds{t}).value;
    if (picked == 0.0) {
      ++idle_picks;
    } else {
      ++all_busy;
      busy_ties += static_cast<int>(std::count_if(
                       queues.begin(), queues.end(), [&](const auto& q) {
                         return q.backlog(Seconds{t}).value == picked;
                       })) > 1;
    }
  }
  // Both routing branches and busy ties were exercised.
  EXPECT_GT(idle_picks, 500);
  EXPECT_GT(all_busy, 500);
  EXPECT_GT(busy_ties, 50);
}

// -- ServeLayer --------------------------------------------------------

trace::VmRequest make_vm(std::uint64_t id, int vcpus,
                         trace::SlaClass sla = trace::SlaClass::kStandard) {
  trace::VmRequest vm;
  vm.id = id;
  vm.vcpus = vcpus;
  vm.sla = sla;
  vm.workload = stress::web_service_profile();
  return vm;
}

serve::ServeConfig layer_config() {
  serve::ServeConfig config;
  config.enabled = true;
  config.seed = 99;
  config.requests_per_vcpu_hz = 2.0;
  config.replica_groups = 1;  // every VM its own service
  return config;
}

void expect_books_balance(const serve::ServeLayer& layer) {
  const serve::ServeStats& s = layer.stats();
  EXPECT_EQ(s.generated,
            s.admitted + s.dropped_overload + s.dropped_unroutable);
  EXPECT_EQ(s.admitted, s.completed + s.dropped_lost + layer.outstanding());
  EXPECT_TRUE(fuzz::serve_books_balance(s, layer.outstanding()));
}

TEST(ServeLayer, GeneratesAndConservesRequests) {
  const hw::ServerNode node(hw::NodeSpec{}, 5);
  serve::ServeLayer layer(layer_config());
  layer.on_vm_placed(make_vm(1, 2), &node);
  layer.on_vm_placed(make_vm(2, 2), &node);
  for (int tick = 1; tick <= 10; ++tick) {
    layer.advance(Seconds{tick * 60.0}, Seconds{60.0});
    expect_books_balance(layer);
  }
  EXPECT_GT(layer.stats().generated, 0u);
  EXPECT_GT(layer.stats().completed, 0u);
  EXPECT_EQ(layer.services(), 2u);
  // Every admitted request left a latency sample in the layer's own
  // histogram.
  EXPECT_EQ(layer.latency_histogram().count(), layer.stats().admitted);
}

TEST(ServeLayer, SameSeedIsBitIdentical) {
  const hw::ServerNode node(hw::NodeSpec{}, 5);
  serve::ServeLayer a(layer_config());
  serve::ServeLayer b(layer_config());
  for (serve::ServeLayer* layer : {&a, &b}) {
    layer->on_vm_placed(make_vm(1, 2), &node);
    layer->on_vm_placed(make_vm(4, 1), &node);
    layer->inject_burst(Seconds{90.0}, 25);
    for (int tick = 1; tick <= 8; ++tick) {
      layer->advance(Seconds{tick * 60.0}, Seconds{60.0});
    }
  }
  EXPECT_EQ(a.stats().generated, b.stats().generated);
  EXPECT_EQ(a.stats().admitted, b.stats().admitted);
  EXPECT_EQ(a.stats().completed, b.stats().completed);
  EXPECT_DOUBLE_EQ(a.stats().latency_sum_s, b.stats().latency_sum_s);
  EXPECT_DOUBLE_EQ(a.stats().max_latency_s, b.stats().max_latency_s);
}

TEST(ServeLayer, DiurnalShapeModulatesTheRate) {
  const hw::ServerNode node(hw::NodeSpec{}, 5);
  // Same seed, same duration: one window at the diurnal peak (14:00),
  // one in the trough (02:00). The thinned Poisson stream must emit
  // clearly more requests at the peak.
  const double peak_hour_s = 14.0 * 3600.0;
  const double trough_hour_s = 2.0 * 3600.0;
  serve::ServeLayer peak(layer_config());
  serve::ServeLayer trough(layer_config());
  peak.on_vm_placed(make_vm(1, 4), &node);
  trough.on_vm_placed(make_vm(1, 4), &node);
  peak.advance(Seconds{peak_hour_s + 3600.0}, Seconds{3600.0});
  trough.advance(Seconds{trough_hour_s + 3600.0}, Seconds{3600.0});
  EXPECT_GT(peak.stats().generated, 2 * trough.stats().generated);
}

TEST(ServeLayer, StallFattensTheTail) {
  const hw::ServerNode node(hw::NodeSpec{}, 5);
  serve::ServeLayer calm(layer_config());
  serve::ServeLayer stalled(layer_config());
  for (serve::ServeLayer* layer : {&calm, &stalled}) {
    layer->on_vm_placed(make_vm(1, 2), &node);
  }
  // Identical arrivals (same seed, single VM, so the Rng consumption
  // order cannot diverge); only the stall distinguishes the runs.
  for (int tick = 1; tick <= 10; ++tick) {
    if (tick == 3) {
      stalled.add_stall(1, Seconds{3 * 60.0}, Seconds{8.0});
    }
    calm.advance(Seconds{tick * 60.0}, Seconds{60.0});
    stalled.advance(Seconds{tick * 60.0}, Seconds{60.0});
  }
  EXPECT_EQ(stalled.stats().stalls, 1u);
  EXPECT_EQ(calm.stats().stalls, 0u);
  EXPECT_EQ(calm.stats().generated, stalled.stats().generated);
  EXPECT_GT(stalled.stats().max_latency_s, calm.stats().max_latency_s + 7.0);
  EXPECT_GT(stalled.latency_percentile_ms(99.9),
            calm.latency_percentile_ms(99.9));
  expect_books_balance(stalled);
}

TEST(ServeLayer, DownclockedNodeServesSlower) {
  // Same workload on a node running at half frequency: compute-bound
  // service times double, so mean latency rises.
  hw::ServerNode nominal(hw::NodeSpec{}, 5);
  hw::ServerNode slow(hw::NodeSpec{}, 5);
  hw::Eop eop;
  eop.vdd = slow.spec().chip.vdd_nominal;
  eop.freq = MegaHertz{slow.spec().chip.freq_nominal.value / 2.0};
  eop.refresh = slow.spec().dimm.nominal_refresh;
  slow.set_eop(eop);

  serve::ServeLayer fast_layer(layer_config());
  serve::ServeLayer slow_layer(layer_config());
  fast_layer.on_vm_placed(make_vm(1, 2), &nominal);
  slow_layer.on_vm_placed(make_vm(1, 2), &slow);
  for (int tick = 1; tick <= 10; ++tick) {
    fast_layer.advance(Seconds{tick * 60.0}, Seconds{60.0});
    slow_layer.advance(Seconds{tick * 60.0}, Seconds{60.0});
  }
  ASSERT_EQ(fast_layer.stats().admitted, slow_layer.stats().admitted);
  EXPECT_GT(slow_layer.stats().latency_sum_s,
            fast_layer.stats().latency_sum_s);
}

TEST(ServeLayer, RemovingVmOrphansOutstandingRequests) {
  const hw::ServerNode node(hw::NodeSpec{}, 5);
  serve::ServeConfig config = layer_config();
  config.mean_service = Seconds{500.0};  // requests pile up unfinished
  serve::ServeLayer layer(config);
  layer.on_vm_placed(make_vm(1, 1), &node);
  layer.advance(Seconds{60.0}, Seconds{60.0});
  const std::size_t outstanding = layer.outstanding();
  ASSERT_GT(outstanding, 0u);
  layer.on_vm_removed(1);
  EXPECT_EQ(layer.outstanding(), 0u);
  EXPECT_EQ(layer.stats().dropped_lost, outstanding);
  EXPECT_EQ(layer.services(), 0u);
  expect_books_balance(layer);
}

TEST(ServeLayer, BurstOnEmptyFleetIsUnroutable) {
  serve::ServeLayer layer(layer_config());
  layer.inject_burst(Seconds{30.0}, 40);
  layer.advance(Seconds{60.0}, Seconds{60.0});
  EXPECT_EQ(layer.stats().generated, 40u);
  EXPECT_EQ(layer.stats().dropped_unroutable, 40u);
  expect_books_balance(layer);
}

TEST(ServeLayer, QueueCapShedsOverload) {
  const hw::ServerNode node(hw::NodeSpec{}, 5);
  serve::ServeConfig config = layer_config();
  config.queue_cap = 8;
  config.mean_service = Seconds{500.0};  // nothing completes in-window
  serve::ServeLayer layer(config);
  layer.on_vm_placed(make_vm(1, 1), &node);
  layer.inject_burst(Seconds{30.0}, 100);
  layer.advance(Seconds{60.0}, Seconds{60.0});
  EXPECT_GT(layer.stats().dropped_overload, 0u);
  EXPECT_LE(layer.outstanding(), 8u);
  expect_books_balance(layer);
}

TEST(ServeLayer, CriticalSloViolationsAreCountedPerClass) {
  const hw::ServerNode node(hw::NodeSpec{}, 5);
  serve::ServeConfig config = layer_config();
  config.slo_critical = Seconds{0.0};  // every sojourn > 0 violates
  config.slo_standard = Seconds{1e9};  // standard never violates
  serve::ServeLayer layer(config);
  layer.on_vm_placed(make_vm(1, 2, trace::SlaClass::kCritical), &node);
  layer.on_vm_placed(make_vm(2, 2, trace::SlaClass::kStandard), &node);
  for (int tick = 1; tick <= 5; ++tick) {
    layer.advance(Seconds{tick * 60.0}, Seconds{60.0});
  }
  ASSERT_GT(layer.stats().slo_violations, 0u);
  EXPECT_EQ(layer.stats().slo_violations,
            layer.stats().slo_violations_critical);
}

// -- serve-slo oracle helper -------------------------------------------

TEST(ServeOracle, BooksBalanceHelper) {
  serve::ServeStats stats;
  stats.generated = 100;
  stats.admitted = 90;
  stats.dropped_overload = 6;
  stats.dropped_unroutable = 4;
  stats.completed = 80;
  stats.dropped_lost = 5;
  EXPECT_TRUE(fuzz::serve_books_balance(stats, 5));
  EXPECT_FALSE(fuzz::serve_books_balance(stats, 6));
  stats.generated = 101;  // a request vanished from the first equation
  EXPECT_FALSE(fuzz::serve_books_balance(stats, 5));
}

// -- fuzz integration --------------------------------------------------

fuzz::ScenarioConfig request_scenario() {
  fuzz::ScenarioConfig config;
  config.nodes = 4;
  config.events = 48;
  config.horizon = Seconds{1800.0};
  config.arrival_share = 0.5;
  config.request_share = 0.3;
  return config;
}

TEST(ServeFuzz, GeneratorEmitsRequestBursts) {
  Rng rng(11);
  const auto events = fuzz::generate_scenario(request_scenario(), rng);
  int bursts = 0;
  for (const auto& event : events) {
    if (event.kind == fuzz::EventKind::kRequestBurst) {
      ++bursts;
      EXPECT_GE(event.count, 50u);
      EXPECT_LT(event.count, 1000u);
    }
  }
  EXPECT_GT(bursts, 0) << "request_share=0.3 produced no bursts";
}

TEST(ServeFuzz, ReplayV3RoundTripsRequestShare) {
  Rng rng(11);
  const fuzz::ScenarioConfig config = request_scenario();
  const auto events = fuzz::generate_scenario(config, rng);
  const std::string text = fuzz::serialize_scenario(config, events);
  EXPECT_NE(text.find("# uniserver-fuzz replay v3"), std::string::npos);

  fuzz::ScenarioConfig parsed;
  std::vector<fuzz::FuzzEvent> replayed;
  std::string error;
  ASSERT_TRUE(fuzz::parse_scenario(text, parsed, replayed, error)) << error;
  EXPECT_DOUBLE_EQ(parsed.request_share, config.request_share);
  ASSERT_EQ(replayed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(replayed[i] == events[i]) << "event " << i << " drifted";
  }
}

TEST(ServeFuzz, V2ReplayFilesStillParse) {
  // A pre-serve (v2) config record ends after storm_share; the missing
  // request_share must default to 0 (serving layer off).
  const std::string v2 =
      "# uniserver-fuzz replay v2\n"
      "config 7 3 3600 60 arm 0 0.55 0.25\n"
      "event 120 7 1 0 0\n";
  fuzz::ScenarioConfig parsed;
  std::vector<fuzz::FuzzEvent> events;
  std::string error;
  ASSERT_TRUE(fuzz::parse_scenario(v2, parsed, events, error)) << error;
  EXPECT_DOUBLE_EQ(parsed.storm_share, 0.25);
  EXPECT_DOUBLE_EQ(parsed.request_share, 0.0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, fuzz::EventKind::kRackPowerLoss);
}

TEST(ServeFuzz, V1ReplayFilesStillParse) {
  const std::string v1 =
      "# uniserver-fuzz replay v1\n"
      "config 7 3 3600 60 arm 0\n";
  fuzz::ScenarioConfig parsed;
  std::vector<fuzz::FuzzEvent> events;
  std::string error;
  ASSERT_TRUE(fuzz::parse_scenario(v1, parsed, events, error)) << error;
  EXPECT_DOUBLE_EQ(parsed.request_share, 0.0);
}

TEST(ServeFuzz, RequestCampaignInvariantAcrossJobsAndGreen) {
  fuzz::CampaignConfig config;
  config.seed = 13;
  config.cases = 4;
  config.scenario = request_scenario();

  par::set_default_jobs(1);
  const auto serial = fuzz::run_campaign(config);
  par::set_default_jobs(4);
  const auto parallel = fuzz::run_campaign(config);
  par::set_default_jobs(0);

  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(serial.violated_cases, 0);
  for (const auto& result : parallel.cases) {
    EXPECT_FALSE(result.outcome.violated())
        << "case " << result.index << ": "
        << result.outcome.violations[0].oracle << ": "
        << result.outcome.violations[0].detail;
  }
}

TEST(ServeFuzz, RequestShareChangesTheDigest) {
  // The serving layer folds its books into the outcome digest, so a
  // request-bearing scenario cannot silently collide with its
  // serve-less twin.
  fuzz::ScenarioConfig with = request_scenario();
  fuzz::ScenarioConfig without = request_scenario();
  without.request_share = 0.0;
  Rng rng_a(3);
  Rng rng_b(3);
  const auto events_with = fuzz::generate_scenario(with, rng_a);
  const auto events_without = fuzz::generate_scenario(without, rng_b);
  const auto outcome_with = fuzz::run_scenario(with, events_with);
  const auto outcome_without = fuzz::run_scenario(without, events_without);
  EXPECT_NE(outcome_with.digest, outcome_without.digest);
}

}  // namespace
}  // namespace uniserver
