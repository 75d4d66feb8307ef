#include "daemons/healthlog.h"

#include <gtest/gtest.h>

namespace uniserver::daemons {
namespace {

ErrorEvent correctable_at(double t, Component component = Component::kCache) {
  return ErrorEvent{Seconds{t}, component, Severity::kCorrectable, 0};
}

TEST(HealthLog, RecordsVectorsAndReturnsLatest) {
  // Each record lands in the aggregate at once: after the first vector
  // the means are that vector's, after the second they include it.
  HealthLog log;
  InfoVector v1;
  v1.timestamp = Seconds{1.0};
  v1.ipc = 1.5;
  v1.utilization = 0.25;
  v1.correctable_errors = 2;
  log.record(v1);
  const auto first = log.aggregate();
  EXPECT_EQ(first.vectors, 1u);
  EXPECT_EQ(first.correctable_errors, 2u);
  EXPECT_DOUBLE_EQ(first.mean_ipc, 1.5);
  EXPECT_DOUBLE_EQ(first.mean_utilization, 0.25);
  InfoVector v2;
  v2.timestamp = Seconds{2.0};
  v2.ipc = 2.5;
  v2.utilization = 0.75;
  v2.uncorrectable_errors = 1;
  log.record(v2);
  const auto both = log.aggregate();
  EXPECT_EQ(both.vectors, 2u);
  EXPECT_EQ(both.correctable_errors, 2u);
  EXPECT_EQ(both.uncorrectable_errors, 1u);
  EXPECT_DOUBLE_EQ(both.mean_ipc, 2.0);
  EXPECT_DOUBLE_EQ(both.mean_utilization, 0.5);
}

TEST(HealthLog, LatestOnEmptyIsDefault) {
  // Before any record the aggregate is the default, all-zero one.
  HealthLog log;
  const auto empty = log.aggregate();
  EXPECT_EQ(empty.vectors, 0u);
  EXPECT_EQ(empty.correctable_errors, 0u);
  EXPECT_EQ(empty.uncorrectable_errors, 0u);
  EXPECT_EQ(empty.crash_events, 0u);
  EXPECT_DOUBLE_EQ(empty.mean_power_w, 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_temp_c, 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_ipc, 0.0);
  EXPECT_DOUBLE_EQ(empty.mean_utilization, 0.0);
}

TEST(HealthLog, ThreeDaysOfVectorsAggregateExactly) {
  // 4,320 per-minute ticks: more than 4,096, so a log that kept only
  // the newest 4,096 vectors would miss some.
  HealthLog log;
  constexpr int kTicks = 3 * 24 * 60;
  for (int i = 0; i < kTicks; ++i) {
    InfoVector v;
    v.timestamp = Seconds{60.0 * i};
    v.sensors.package_power = Watt{10.0 + (i % 2)};
    v.sensors.memory_power = Watt{2.25};
    v.sensors.temperature = Celsius{40.0 + (i % 3)};
    v.ipc = 0.5 * (i % 4);
    v.utilization = 0.25 * (i % 5);
    v.correctable_errors = 1;
    v.uncorrectable_errors = static_cast<std::uint64_t>(i % 2);
    log.record(v);
    if (i % 1000 == 0) {
      log.record_error(ErrorEvent{v.timestamp, Component::kCore,
                                  Severity::kCrash, 0});
    }
  }
  const auto all = log.aggregate();
  EXPECT_EQ(all.vectors, 4320u);
  EXPECT_EQ(all.correctable_errors, 4320u);
  EXPECT_EQ(all.uncorrectable_errors, 2160u);
  EXPECT_EQ(all.crash_events, 5u);
  // Every partial sum is a multiple of 1/4 far below 2^50, so the sums
  // and the means are exact.
  EXPECT_EQ(all.mean_power_w, 12.75);
  EXPECT_EQ(all.mean_temp_c, 41.0);
  EXPECT_EQ(all.mean_ipc, 0.75);
  EXPECT_EQ(all.mean_utilization, 0.5);
}

TEST(HealthLog, RetainedErrorBoundCapsTheRate) {
  // A storm logs more correctable events at one timestamp than the log
  // retains: the rate counts the newest 4,096, the totals count all.
  HealthLog log;
  for (int i = 0; i < 5000; ++i) log.record_error(correctable_at(30.0));
  EXPECT_EQ(HealthLog::kRetainedErrors, 4096u);
  EXPECT_EQ(log.error_rate_per_s(Seconds{30.0}),
            4096.0 / HealthLog::Config{}.rate_window.value);
  EXPECT_EQ(log.total_correctable(), 5000u);
}

TEST(HealthLog, EventDrivenServiceNotifiesSubscribers) {
  HealthLog log;
  int events = 0;
  log.subscribe_errors([&events](const ErrorEvent&) { ++events; });
  log.record_error(correctable_at(1.0));
  log.record_error(correctable_at(2.0));
  EXPECT_EQ(events, 2);
}

TEST(HealthLog, SeverityTallies) {
  HealthLog log;
  log.record_error(correctable_at(1.0));
  log.record_error(
      ErrorEvent{Seconds{2.0}, Component::kDram, Severity::kUncorrectable, 0});
  log.record_error(
      ErrorEvent{Seconds{3.0}, Component::kCore, Severity::kCrash, 1});
  EXPECT_EQ(log.total_correctable(), 1u);
  EXPECT_EQ(log.total_uncorrectable(), 2u);
}

TEST(HealthLog, OnDemandAggregateFiltersByTime) {
  HealthLog log;
  for (int i = 0; i < 10; ++i) {
    InfoVector v;
    v.timestamp = Seconds{static_cast<double>(i)};
    v.correctable_errors = 1;
    v.ipc = 2.0;
    v.sensors.package_power = Watt{10.0};
    v.sensors.temperature = Celsius{50.0};
    log.record(v);
  }
  log.record_error(ErrorEvent{Seconds{8.0}, Component::kCore,
                              Severity::kCrash, 0});
  const auto all = log.aggregate();
  EXPECT_EQ(all.vectors, 10u);
  EXPECT_EQ(all.correctable_errors, 10u);
  EXPECT_EQ(all.crash_events, 1u);
  EXPECT_NEAR(all.mean_power_w, 10.0, 1e-9);
  EXPECT_NEAR(all.mean_ipc, 2.0, 1e-9);
  // A restart draws the line: the aggregate covers only what the
  // daemon recorded since, while the lifetime totals carry on.
  log.clear();
  EXPECT_EQ(log.aggregate().vectors, 0u);
  EXPECT_EQ(log.aggregate().crash_events, 0u);
  for (int i = 10; i < 15; ++i) {
    InfoVector v;
    v.timestamp = Seconds{static_cast<double>(i)};
    v.ipc = 4.0;
    log.record(v);
  }
  const auto tail = log.aggregate();
  EXPECT_EQ(tail.vectors, 5u);
  EXPECT_EQ(tail.correctable_errors, 0u);
  EXPECT_NEAR(tail.mean_ipc, 4.0, 1e-9);
  EXPECT_EQ(log.total_uncorrectable(), 1u);
}

TEST(HealthLog, ErrorRateUsesTrailingWindow) {
  HealthLog::Config config;
  config.rate_window = Seconds{10.0};
  HealthLog log(config);
  for (int i = 0; i < 5; ++i) log.record_error(correctable_at(1.0 + i));
  EXPECT_NEAR(log.error_rate_per_s(Seconds{6.0}), 0.5, 1e-9);
  // Much later, the events left the window.
  EXPECT_NEAR(log.error_rate_per_s(Seconds{100.0}), 0.0, 1e-9);
}

TEST(HealthLog, ThresholdTriggersRecharacterizeOnce) {
  HealthLog::Config config;
  config.error_rate_threshold_per_s = 0.2;
  config.rate_window = Seconds{10.0};
  config.recharacterize_cooldown = Seconds{20.0};
  HealthLog log(config);
  int triggers = 0;
  log.subscribe_recharacterize([&triggers](Seconds) { ++triggers; });
  // 5 errors in 2 seconds: rate 0.5 > 0.2 -> one trigger (debounced).
  for (int i = 0; i < 5; ++i) {
    log.record_error(correctable_at(1.0 + 0.4 * i));
  }
  EXPECT_EQ(triggers, 1);
  // A burst a full window later re-triggers.
  for (int i = 0; i < 5; ++i) {
    log.record_error(correctable_at(30.0 + 0.4 * i));
  }
  EXPECT_EQ(triggers, 2);
}

TEST(HealthLog, UncorrectableDoesNotCountTowardCorrectableRate) {
  HealthLog::Config config;
  config.rate_window = Seconds{10.0};
  HealthLog log(config);
  for (int i = 0; i < 5; ++i) {
    log.record_error(ErrorEvent{Seconds{1.0 + i}, Component::kDram,
                                Severity::kUncorrectable, 0});
  }
  EXPECT_DOUBLE_EQ(log.error_rate_per_s(Seconds{6.0}), 0.0);
}

TEST(HealthLog, ComponentAndSeverityNames) {
  EXPECT_STREQ(to_string(Component::kCore), "core");
  EXPECT_STREQ(to_string(Component::kDram), "dram");
  EXPECT_STREQ(to_string(Severity::kCorrectable), "correctable");
  EXPECT_STREQ(to_string(Severity::kCrash), "crash");
}

}  // namespace
}  // namespace uniserver::daemons
