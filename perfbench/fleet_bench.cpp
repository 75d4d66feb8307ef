// Fleet control-loop benchmark: one simulated day of osk::Cloud::run per
// workload, timed tick by tick from outside the simulator.
//
//   fleet_bench --workload fleet-day|eop-storm --seed N
//               --seconds S --trace 0|1 [--tiny] [--spans-out FILE]
//   fleet_bench --selftest
//
// Each 60 s control-loop tick is one call `Cloud::run(slice, now + 30 s)`
// carrying only that tick's arrivals, which makes exactly the decisions
// a single whole-day call makes (--selftest checks that). Arrivals are
// open-loop Poisson in simulated time (trace::FleetTraceGenerator) and
// are fed as fast as the simulator runs. Everything the simulator sees
// is derived from --seed.
//
// --trace 0 repeats set-up + day until --seconds have passed and reports
// the end-to-end metrics (set-up time, simulated hours per second, tick
// latency p50/p99, peak RSS). --trace 1 runs the day three ways — plain,
// with spans around every layer call, and with serving switched off —
// in rounds until --seconds have passed, and reports the per-layer
// metrics. Identity checks run either way; the last stdout line is one
// JSON object (see README.md).
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/ecosystem.h"
#include "fuzz/oracles.h"
#include "hwmodel/chip_spec.h"
#include "openstack/cloud.h"
#include "serve/serve.h"
#include "spans.h"
#include "telemetry/metrics.h"
#include "trace/fleet.h"

using namespace uniserver;

namespace perfbench {
namespace {

constexpr std::uint64_t kDefaultSeed = 1;
/// The fleet is the system under test, so its manufacturing variation
/// is fixed; --seed varies the traffic, requests and storm schedule.
constexpr std::uint64_t kFleetSeed = 20261017;
constexpr double kTickS = 60.0;
constexpr int kDayTicks = 1440;
constexpr double kVmsPerNodeDay = 100.0;
constexpr double kGuardPercent = 0.1;
/// setup_s: set-up is timed in bursts of kSetupBurst back-to-back
/// set-ups, and the fastest of a burst is one sample. A --trace 0 run
/// takes at least kMinSetupSamples samples and kMinSetupSampling_s of
/// set-up time, and reports the median sample.
constexpr int kSetupBurst = 3;
constexpr int kMinSetupSamples = 5;
constexpr double kMinSetupSampling_s = 1.0;
/// Days run in a --trace 0 run, at least (see run_end_to_end).
constexpr int kMinDays = 3;
/// Rounds (plain, traced, serve-off day) in a --trace 1 run, at least.
constexpr int kMinTracedRounds = 2;

struct Workload {
  const char* name;
  int nodes;
  int tiny_nodes;
  bool eop;          ///< commissioned core::Ecosystem fleet
  bool serve;        ///< request-serving layer on
  int inject_every;  ///< ticks between injected storms (0 = none)
};

// Sizes and the reasons for them are in README.md.
constexpr Workload kWorkloads[] = {
    {"fleet-day", 100, 48, false, false, 0},
    {"eop-storm", 30, 16, true, true, 60},
};

struct Options {
  const Workload* workload{nullptr};
  std::uint64_t seed{kDefaultSeed};
  double seconds{10.0};
  bool trace{false};
  bool tiny{false};
  bool selftest{false};
  std::string spans_out;
};

/// Independent seed number `salt` (1, 2, ...) derived from `seed`.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed + (salt - 1) * 0x9E3779B97F4A7C15ULL;
  return splitmix64(state);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// -- inputs and set-up ----------------------------------------------------

enum class StormKind { kRackPowerLoss, kEopRetreat, kNodeCrash };

const char* to_string(StormKind kind) {
  switch (kind) {
    case StormKind::kRackPowerLoss:
      return "inject.rack_power_loss";
    case StormKind::kEopRetreat:
      return "inject.eop_retreat";
    case StormKind::kNodeCrash:
      return "inject.node_crash";
  }
  return "inject.unknown";
}

struct Storm {
  int tick{0};
  StormKind kind{StormKind::kNodeCrash};
  int node{0};
};

struct Scale {
  int nodes{0};
  int ticks{kDayTicks};
  int inject_every{0};
};

Scale scale_of(const Workload& w, bool tiny) {
  Scale s;
  s.nodes = tiny ? w.tiny_nodes : w.nodes;
  s.ticks = tiny ? 240 : kDayTicks;
  s.inject_every = tiny && w.inject_every > 0 ? 30 : w.inject_every;
  return s;
}

/// One set-up: the fleet, commissioned when the workload asks for it,
/// and the day's inputs. Destroyed before the next one is built.
struct Fleet {
  std::unique_ptr<core::Ecosystem> ecosystem;
  std::unique_ptr<osk::Cloud> nominal;
  std::vector<trace::VmRequest> requests;
  std::vector<Storm> storms;
  double build_s{0.0};
  double commission_s{0.0};
  double trace_s{0.0};

  osk::Cloud& cloud() {
    return ecosystem ? ecosystem->cloud() : *nominal;
  }
  double setup_s() const { return build_s + commission_s + trace_s; }
};

hw::NodeSpec node_spec(const Workload& w) {
  hw::NodeSpec spec;
  if (!w.eop) spec.chip = hw::arm_soc_spec();
  return spec;
}

/// Builds a fleet for `w`. `serve` overrides the workload's serving
/// switch (the bypass run). With a recorder, each set-up step is a span.
std::unique_ptr<Fleet> set_up(const Workload& w, const Scale& scale,
                              std::uint64_t seed, bool serve,
                              SpanRecorder* rec, std::uint32_t parent) {
  auto fleet = std::make_unique<Fleet>();
  const hw::NodeSpec spec = node_spec(w);
  osk::CloudConfig cloud;
  cloud.tick = Seconds{kTickS};
  cloud.serve.enabled = serve;
  cloud.serve.seed = derive(seed, 3);

  auto step = [&](const char* name, double& out, const auto& body) {
    const std::uint32_t id = rec ? rec->open(name, parent) : 0;
    const auto start = Clock::now();
    body();
    out = seconds_since(start);
    if (rec) rec->close(id);
  };

  step("setup.build", fleet->build_s, [&] {
    if (w.eop) {
      core::EcosystemConfig eco;
      eco.node_spec = spec;
      eco.cloud = cloud;
      eco.nodes = scale.nodes;
      eco.enable_eop = true;
      eco.guard_percent = kGuardPercent;
      eco.shmoo.runs = 1;
      eco.hv.vm_checkpointing = true;
      fleet->ecosystem =
          std::make_unique<core::Ecosystem>(eco, kFleetSeed);
    } else {
      fleet->nominal = osk::Cloud::make_uniform(
          cloud, spec, hv::HvConfig{}, scale.nodes, kFleetSeed);
    }
  });
  step("setup.commission", fleet->commission_s, [&] {
    if (fleet->ecosystem) fleet->ecosystem->commission();
  });
  step("setup.trace", fleet->trace_s, [&] {
    trace::FleetTraceConfig config;
    config.nodes = scale.nodes;
    config.vcpus_per_node = spec.chip.cores;
    config.days = scale.ticks * kTickS / 86400.0;
    config.vms = static_cast<std::uint64_t>(
        std::llround(kVmsPerNodeDay * scale.nodes * config.days));
    trace::FleetTraceGenerator generator(config, derive(seed, 2));
    fleet->requests = generator.generate();
    if (scale.inject_every > 0) {
      // Equal shares of the three kinds in a seeded order: a rack power
      // loss costs far more than a single crash, so a seed-dependent
      // kind mix would make the day's cost a lottery.
      Rng rng(derive(seed, 4));
      for (int t = scale.inject_every - 1; t < scale.ticks;
           t += scale.inject_every) {
        Storm storm;
        storm.tick = t;
        storm.kind = static_cast<StormKind>(fleet->storms.size() % 3);
        storm.node = static_cast<int>(
            rng.uniform_u64(static_cast<std::uint64_t>(scale.nodes)));
        fleet->storms.push_back(storm);
      }
      for (std::size_t i = fleet->storms.size(); i > 1; --i) {
        std::swap(fleet->storms[i - 1].kind,
                  fleet->storms[rng.uniform_u64(i)].kind);
      }
    }
  });
  return fleet;
}

// -- identity -------------------------------------------------------------

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

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// The simulated outcome of one day. Two runs made the same decisions
/// and accounting iff every field matches.
struct Identity {
  std::uint64_t placement{0};
  std::uint64_t energy_bits{0};
  std::uint64_t cloud_stats{0};
  std::uint64_t serve_books{0};  ///< 0 when serving is off

  bool operator==(const Identity&) const = default;
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
  for (double v : {s.migration_energy_kwh, s.migration_transferred_mb,
                   s.migration_downtime_s, s.mean_node_availability}) {
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

Identity identity_of(const osk::Cloud& cloud) {
  Identity id;
  id.placement = cloud.placement_digest();
  id.energy_bits =
      std::bit_cast<std::uint64_t>(cloud.stats().total_energy_kwh);
  id.cloud_stats = digest(cloud.stats());
  if (cloud.serving() != nullptr) id.serve_books = digest(*cloud.serving());
  return id;
}

/// Identity of each workload's full-size day at the default seed, as
/// produced by the simulator this benchmark was written against.
struct Pinned {
  const char* workload;
  Identity id;
};
constexpr Pinned kPinned[] = {
    {"fleet-day",
     {0xe116f3a06ddfee93ULL, 0x4052332b8be72199ULL, 0x848cf0e57f54c6b0ULL,
      0x0000000000000000ULL}},
    {"eop-storm",
     {0xf615c51657834600ULL, 0x40319d79f8a70cb5ULL, 0x9f58d79a14acbeeeULL,
      0x20078766f6174f80ULL}},
};

void print_identity(const Identity& id, const osk::Cloud& cloud) {
  const osk::CloudStats& s = cloud.stats();
  std::printf(
      "identity: placement %016llx  energy %.17g kWh (bits %016llx)  "
      "cloud-stats %016llx  serve-books %016llx\n",
      static_cast<unsigned long long>(id.placement),
      s.total_energy_kwh, static_cast<unsigned long long>(id.energy_bits),
      static_cast<unsigned long long>(id.cloud_stats),
      static_cast<unsigned long long>(id.serve_books));
  std::printf(
      "  accepted %llu rejected %llu completed %llu lost %llu crashes %llu "
      "evacuations %llu migrations %llu/%llu\n",
      static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.rejected),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.lost_to_errors +
                                      s.lost_to_node_crash),
      static_cast<unsigned long long>(s.node_crash_events),
      static_cast<unsigned long long>(s.evacuations),
      static_cast<unsigned long long>(s.migrations),
      static_cast<unsigned long long>(s.migrations_started));
}

// -- checks ---------------------------------------------------------------

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
  int attempted() const { return attempted_; }
  int failed() const { return failed_; }

 private:
  int attempted_{0};
  int failed_{0};
};

/// The end-of-run conservation clauses the fuzzer also asserts.
void check_books(Checks& checks, const osk::Cloud& cloud, const char* run) {
  checks.expect(fuzz::cloud_books_balance(cloud.stats(),
                                          cloud.active_placements().size()),
                std::string(run) + ": cloud books balance");
  if (const serve::ServeLayer* layer = cloud.serving()) {
    checks.expect(
        fuzz::serve_books_balance(layer->stats(), layer->outstanding()),
        std::string(run) + ": serve books balance");
  }
}

// -- the control loop -----------------------------------------------------

/// Registry readings taken before and after the traced day.
struct RegistryReading {
  std::uint64_t placements{0};
  double placement_us{0.0};
  std::uint64_t hist_records{0};
  std::uint64_t pool_tasks{0};
  double pool_wait_us{0.0};
};

RegistryReading read_registry() {
  RegistryReading r;
  for (const telemetry::MetricSample& m :
       telemetry::MetricsRegistry::global().snapshot()) {
    if (m.meta.type == telemetry::MetricType::kHistogram) {
      r.hist_records += m.count;
    }
    if (m.meta.name == "cloud.placement_wall_us") {
      r.placements = m.count;
      r.placement_us = m.sum;
    } else if (m.meta.name == "exec.pool.tasks") {
      r.pool_tasks = static_cast<std::uint64_t>(m.value);
    } else if (m.meta.name == "exec.pool.queue_wait_us") {
      r.pool_wait_us = m.sum;
    }
  }
  return r;
}

struct Day {
  std::vector<double> tick_ms;  ///< host wall time of each tick
  std::vector<double> step_ms;  ///< each loop iteration, tracing included
  std::vector<double> inject_ms;
  double vm_ticks{0.0};         ///< resident VMs summed over ticks (traced)
  Identity id;
};

/// Steps the fleet through the day one tick at a time. A tick is the
/// storm injected before it (if any) plus one Cloud::run call.
Day run_day(Fleet& fleet, const Scale& scale, bool inject,
            SpanRecorder* rec, std::uint32_t parent) {
  osk::Cloud& cloud = fleet.cloud();
  const std::vector<trace::VmRequest>& requests = fleet.requests;
  Day day;
  day.tick_ms.reserve(static_cast<std::size_t>(scale.ticks));
  day.step_ms.reserve(static_cast<std::size_t>(scale.ticks));
  std::vector<trace::VmRequest> slice;
  std::size_t next = 0;
  std::size_t storm = 0;
  // Registry counters recorded as per-tick deltas on traced ticks.
  struct TickCounter {
    const char* attr;
    const telemetry::Counter* counter;
    std::uint64_t last;
  };
  std::vector<TickCounter> counters;
  for (const auto& [attr, name] :
       {std::pair{"requests", "serve.requests_generated"},
        std::pair{"node_crashes", "cloud.node_crashes"},
        std::pair{"migrations", "cloud.migrations"}}) {
    const telemetry::Counter* counter =
        telemetry::MetricsRegistry::global().find_counter(name);
    counters.push_back({attr, counter, counter ? counter->value() : 0});
  }

  for (int t = 0; t < scale.ticks; ++t) {
    const auto step_start = Clock::now();
    const double tick_end = (t + 1) * kTickS;
    slice.clear();
    while (next < requests.size() &&
           requests[next].arrival.value <= tick_end) {
      slice.push_back(requests[next++]);
    }
    const std::uint32_t tick_span = rec ? rec->open("tick", parent) : 0;
    const auto start = Clock::now();
    if (inject && storm < fleet.storms.size() &&
        fleet.storms[storm].tick == t) {
      const Storm& s = fleet.storms[storm++];
      const std::uint32_t span = rec ? rec->open(to_string(s.kind), tick_span)
                                     : 0;
      const auto inject_start = Clock::now();
      switch (s.kind) {
        case StormKind::kRackPowerLoss:
          cloud.inject_rack_power_loss(s.node);
          break;
        case StormKind::kEopRetreat:
          cloud.inject_eop_retreat(s.node);
          break;
        case StormKind::kNodeCrash:
          cloud.inject_node_crash(s.node);
          break;
      }
      day.inject_ms.push_back(seconds_since(inject_start) * 1000.0);
      if (rec) rec->close(span);
    }
    cloud.run(slice, Seconds{t * kTickS + kTickS / 2.0});
    day.tick_ms.push_back(seconds_since(start) * 1000.0);
    if (rec) {
      rec->close(tick_span);
      // Per-tick count deltas, read after the span so they cost the
      // traced loop but not the tick.
      const double vms =
          static_cast<double>(cloud.active_placements().size());
      day.vm_ticks += vms;
      rec->attr(tick_span, "arrivals", static_cast<double>(slice.size()));
      rec->attr(tick_span, "resident_vms", vms);
      for (TickCounter& c : counters) {
        const std::uint64_t now = c.counter ? c.counter->value() : 0;
        rec->attr(tick_span, c.attr, static_cast<double>(now - c.last));
        c.last = now;
      }
    }
    day.step_ms.push_back(seconds_since(step_start) * 1000.0);
  }
  day.id = identity_of(cloud);
  return day;
}

// -- statistics and output ------------------------------------------------

/// Nearest-rank percentile of `values` (copied, then sorted).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return sum(values) / static_cast<double>(values.size());
}

/// Every repeat of a day simulates the same thing, so entry i does the
/// same work each time; keeping its fastest repeat filters out host
/// interference. `best` starts empty.
void keep_fastest(std::vector<double>& best, const std::vector<double>& ms) {
  if (best.empty()) {
    best = ms;
    return;
  }
  for (std::size_t i = 0; i < best.size(); ++i) {
    best[i] = std::min(best[i], ms[i]);
  }
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  std::string unit;
  double value{0.0};
};

void emit(const std::vector<Metric>& metrics, const Checks& checks) {
  std::printf("\n%-34s %22s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %22.6f  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%-34s %22.6f  %s\n", "check_fail_ratio",
              ratio(checks.failed(), checks.attempted()), "ratio");
  std::printf("checks: %d run, %d failed\n", checks.attempted(),
              checks.failed());
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              checks.failed() == 0 ? "true" : "false", checks.attempted(),
              checks.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void check_pinned(Checks& checks, const Options& o, const Identity& id,
                  const osk::Cloud& cloud) {
  print_identity(id, cloud);
  if (o.seed != kDefaultSeed || o.tiny) return;
  for (const Pinned& p : kPinned) {
    if (std::strcmp(p.workload, o.workload->name) == 0) {
      checks.expect(id == p.id, "identity matches the pinned default-seed "
                                "values");
    }
  }
}

// -- modes ----------------------------------------------------------------

/// --trace 0: set-up + day, repeated until the time budget is spent.
int run_end_to_end(const Options& o) {
  const Workload& w = *o.workload;
  const Scale scale = scale_of(w, o.tiny);
  Checks checks;
  std::vector<double> setups;  // the fastest set-up of each burst
  double setup_total = 0.0;
  // One burst of set-ups, one fleet alive at a time; returns the last.
  auto burst = [&] {
    std::unique_ptr<Fleet> fleet;
    double fastest = std::numeric_limits<double>::infinity();
    for (int i = 0; i < kSetupBurst; ++i) {
      fleet.reset();
      fleet = set_up(w, scale, o.seed, w.serve, nullptr, 0);
      fastest = std::min(fastest, fleet->setup_s());
      setup_total += fleet->setup_s();
    }
    setups.push_back(fastest);
    return fleet;
  };

  std::vector<double> best;  // each tick's fastest repeat
  int days = 0;
  Identity first;
  const auto start = Clock::now();
  do {
    // Bursts are spread over the run, so setup_s sees the same host as
    // the days do.
    std::unique_ptr<Fleet> fleet = burst();
    const Day day = run_day(*fleet, scale, true, nullptr, 0);
    const std::string label = "day " + std::to_string(days + 1);
    check_books(checks, fleet->cloud(), label.c_str());
    if (days == 0) {
      first = day.id;
      check_pinned(checks, o, day.id, fleet->cloud());
    } else {
      checks.expect(day.id == first, label + ": same outcome as day 1");
    }
    keep_fastest(best, day.tick_ms);
    std::printf("day %d: ticks %.1f ms, set-up %.3f s\n", days + 1,
                sum(day.tick_ms), setups.back());
    ++days;
  } while (days < kMinDays || seconds_since(start) < o.seconds);
  while (static_cast<int>(setups.size()) < kMinSetupSamples ||
         setup_total < kMinSetupSampling_s) {
    burst();
  }

  const double sim_h = scale.ticks * kTickS / 3600.0;
  std::printf("%s: %d nodes, %d day(s) of %d ticks, %zu set-up bursts\n",
              w.name, scale.nodes, days, scale.ticks, setups.size());
  emit({{"setup_s", "s", percentile(setups, 50.0)},
        {"sim_h_per_s", "h/s", ratio(sim_h, sum(best) / 1000.0)},
        {"tick_p50_ms", "ms", percentile(best, 50.0)},
        {"tick_p99_ms", "ms", percentile(best, 99.0)},
        {"peak_rss_mb", "MB", peak_rss_mb()}},
       checks);
  return 0;
}

/// --trace 1: rounds of a plain day, a traced day and (with serving) a
/// serve-off day, until the time budget is spent. Host times are each
/// tick's fastest repeat of its kind; counts come from the first round.
int run_traced(const Options& o) {
  const Workload& w = *o.workload;
  const Scale scale = scale_of(w, o.tiny);
  Checks checks;
  SpanRecorder rec(w.name);
  std::vector<double> plain_tick, plain_step, traced_tick, traced_step,
      bypass_tick, inject_ms;
  Identity plain_id;
  double vm_ticks = 0.0;
  RegistryReading before, after;
  osk::CloudStats stats;
  serve::ServeStats serve_stats;
  std::uint64_t serve_hist = 0;
  double build_s = 0.0, commission_s = 0.0, trace_s = 0.0;
  bool bypass_same = true;
  int rounds = 0;
  const auto start = Clock::now();
  do {
    const std::string round = "round " + std::to_string(rounds + 1);

    // Plain, untraced: the reference for tracing overhead and bypass.
    std::unique_ptr<Fleet> fleet =
        set_up(w, scale, o.seed, w.serve, nullptr, 0);
    const Day plain = run_day(*fleet, scale, true, nullptr, 0);
    check_books(checks, fleet->cloud(), (round + ", plain day").c_str());
    if (rounds == 0) {
      plain_id = plain.id;
      check_pinned(checks, o, plain.id, fleet->cloud());
    } else {
      checks.expect(plain.id == plain_id, round + ": same outcome as round 1");
    }
    keep_fastest(plain_tick, plain.tick_ms);
    keep_fastest(plain_step, plain.step_ms);
    fleet.reset();

    // Traced.
    const std::uint32_t setup_span = rec.open("setup", 0);
    fleet = set_up(w, scale, o.seed, w.serve, &rec, setup_span);
    rec.close(setup_span);
    const RegistryReading reading = read_registry();
    const std::uint32_t day_span = rec.open("day", 0);
    rec.attr(day_span, "round", rounds + 1);
    const Day traced = run_day(*fleet, scale, true, &rec, day_span);
    rec.close(day_span);
    osk::Cloud& cloud = fleet->cloud();
    check_books(checks, cloud, (round + ", traced day").c_str());
    checks.expect(traced.id == plain_id,
                  round + ", traced day: same outcome as plain");
    keep_fastest(traced_tick, traced.tick_ms);
    keep_fastest(traced_step, traced.step_ms);
    keep_fastest(inject_ms, traced.inject_ms);
    if (rounds == 0) {
      before = reading;
      after = read_registry();
      vm_ticks = traced.vm_ticks;
      stats = cloud.stats();
      if (const serve::ServeLayer* layer = cloud.serving()) {
        serve_stats = layer->stats();
        serve_hist = layer->latency_histogram().count();
      }
      build_s = fleet->build_s;
      commission_s = fleet->commission_s;
      trace_s = fleet->trace_s;
    }
    fleet.reset();

    // Serve bypass: identical placement and energy with serving off.
    if (w.serve) {
      fleet = set_up(w, scale, o.seed, false, nullptr, 0);
      const Day bypass = run_day(*fleet, scale, true, nullptr, 0);
      check_books(checks, fleet->cloud(), (round + ", serve-off day").c_str());
      const bool same = bypass.id.placement == plain_id.placement &&
                        bypass.id.energy_bits == plain_id.energy_bits;
      checks.expect(same, round + ", serve bypass: placement and energy "
                                  "identical");
      bypass_same = bypass_same && same;
      if (rounds == 0) {
        std::printf("serve bypass: placement %016llx vs %016llx, energy "
                    "bits %016llx vs %016llx\n",
                    static_cast<unsigned long long>(plain_id.placement),
                    static_cast<unsigned long long>(bypass.id.placement),
                    static_cast<unsigned long long>(plain_id.energy_bits),
                    static_cast<unsigned long long>(bypass.id.energy_bits));
      }
      keep_fastest(bypass_tick, bypass.tick_ms);
      fleet.reset();
    }
    ++rounds;
  } while (rounds < kMinTracedRounds || seconds_since(start) < o.seconds);
  if (w.serve) {
    std::printf("serve bypass over %d round(s): %s\n", rounds,
                bypass_same ? "identical" : "DIFFERENT");
  }

  if (!o.spans_out.empty() && !rec.write_jsonl(o.spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", o.spans_out.c_str());
  }

  const double sim_h = scale.ticks * kTickS / 3600.0;
  const double plain_rate = ratio(sim_h, sum(plain_step) / 1000.0);
  const double traced_rate = ratio(sim_h, sum(traced_step) / 1000.0);
  const double overhead = 1.0 - ratio(traced_rate, plain_rate);
  std::printf("tracing overhead over %d round(s): sim_h_per_s %.4f "
              "untraced, %.4f traced (%.2f%%)\n",
              rounds, plain_rate, traced_rate, overhead * 100.0);

  // Serve self time: per-tick fastest with serving on minus off. Not
  // clamped; on a workload where serving is a small share of the tick
  // it is close to the noise left after filtering.
  const double serve_self_ms =
      w.serve ? (sum(plain_tick) - sum(bypass_tick)) / scale.ticks : 0.0;
  const double tick_us = mean(traced_tick) * 1000.0;
  const double generated = static_cast<double>(serve_stats.generated);
  const std::uint64_t placements = after.placements - before.placements;
  emit({{"trace.gen_s", "s", trace_s},
        {"openstack.build_s", "s", build_s},
        {"core.commission_s", "s", commission_s},
        {"openstack.tick_us_per_node", "us", tick_us / scale.nodes},
        {"openstack.tick_us_per_vm_tick", "us",
         ratio(tick_us * scale.ticks, vm_ticks)},
        {"openstack.place_mean_us", "us",
         ratio(after.placement_us - before.placement_us,
               static_cast<double>(placements))},
        {"openstack.place_count", "count", static_cast<double>(placements)},
        {"openstack.evac_plan_p50_ms", "ms", percentile(inject_ms, 50.0)},
        {"openstack.evac_plan_p99_ms", "ms", percentile(inject_ms, 99.0)},
        {"openstack.evacuations", "count",
         static_cast<double>(stats.evacuations)},
        {"openstack.migrations_started", "count",
         static_cast<double>(stats.migrations_started)},
        {"openstack.mig_commit_ratio", "ratio",
         ratio(static_cast<double>(stats.migrations),
               static_cast<double>(stats.migrations_started))},
        {"openstack.node_crashes", "count",
         static_cast<double>(stats.node_crash_events)},
        {"openstack.vms_lost", "count",
         static_cast<double>(stats.lost_to_errors + stats.lost_to_node_crash)},
        {"serve.self_ms_per_tick", "ms", serve_self_ms},
        {"serve.ns_per_request", "ns",
         ratio(serve_self_ms * scale.ticks * 1e6, generated)},
        {"serve.generated", "count", generated},
        {"serve.shed_ratio", "ratio",
         ratio(static_cast<double>(serve_stats.dropped_overload), generated)},
        {"serve.stalls", "count", static_cast<double>(serve_stats.stalls)},
        {"telemetry.hist_records", "count",
         static_cast<double>(after.hist_records - before.hist_records +
                             serve_hist)},
        {"exec.pool.tasks", "count",
         static_cast<double>(after.pool_tasks - before.pool_tasks)},
        {"exec.pool.queue_wait_us", "us",
         after.pool_wait_us - before.pool_wait_us},
        {"bench.tracing_overhead", "ratio", overhead}},
       checks);
  return 0;
}

/// --selftest: for each workload at tiny size, stepping tick by tick
/// must reproduce a single whole-horizon Cloud::run call exactly.
int run_selftest() {
  int failures = 0;
  for (const Workload& w : kWorkloads) {
    const Scale scale = scale_of(w, true);
    const std::uint64_t seed = 7;
    std::unique_ptr<Fleet> sliced = set_up(w, scale, seed, w.serve, nullptr, 0);
    const Day day = run_day(*sliced, scale, false, nullptr, 0);
    std::unique_ptr<Fleet> whole = set_up(w, scale, seed, w.serve, nullptr, 0);
    whole->cloud().run(whole->requests, Seconds{scale.ticks * kTickS});
    const Identity single = identity_of(whole->cloud());
    const bool same = day.id == single;
    const bool busy = whole->cloud().stats().accepted > 0;
    std::printf("%s: tick-sliced vs single run: %s (placement %016llx, "
                "%llu VMs accepted)\n",
                w.name, same ? "identical" : "DIFFERENT",
                static_cast<unsigned long long>(single.placement),
                static_cast<unsigned long long>(
                    whole->cloud().stats().accepted));
    if (!same || !busy) ++failures;
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fleet-day|eop-storm "
               "--seed N --seconds S --trace 0|1 [--tiny] "
               "[--spans-out FILE]\n       %s --selftest\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const Workload& w : kWorkloads) {
        if (name == w.name) o.workload = &w;
      }
      if (o.workload == nullptr) return usage(argv[0]);
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--spans-out" && has_value) {
      o.spans_out = argv[++i];
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--selftest") {
      o.selftest = true;
    } else {
      return usage(argv[0]);
    }
  }
  par::set_default_jobs(std::min(4U, par::hardware_jobs()));
  if (o.selftest) return run_selftest();
  if (o.workload == nullptr) return usage(argv[0]);
  return o.trace ? run_traced(o) : run_end_to_end(o);
}
