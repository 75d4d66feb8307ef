#include "daemons/healthlog.h"

#include <cstdio>

#include "telemetry/telemetry.h"

namespace uniserver::daemons {

namespace {
struct HealthLogMetrics {
  telemetry::Counter& vectors = telemetry::counter(
      "daemon.healthlog.vectors", "records",
      "Periodic monitoring vectors recorded");
  telemetry::Counter& correctable = telemetry::counter(
      "daemon.healthlog.errors_correctable", "events",
      "Correctable error events logged");
  telemetry::Counter& uncorrectable = telemetry::counter(
      "daemon.healthlog.errors_uncorrectable", "events",
      "Uncorrectable error events logged");
  telemetry::Counter& triggers = telemetry::counter(
      "daemon.healthlog.recharacterize_triggers", "events",
      "Re-characterization triggers raised (rate over threshold)");
};

HealthLogMetrics& metrics() {
  static HealthLogMetrics m;
  return m;
}
}  // namespace

const char* to_string(Component component) {
  switch (component) {
    case Component::kCore:
      return "core";
    case Component::kCache:
      return "cache";
    case Component::kDram:
      return "dram";
  }
  return "?";
}

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kCorrectable:
      return "correctable";
    case Severity::kUncorrectable:
      return "uncorrectable";
    case Severity::kCrash:
      return "crash";
  }
  return "?";
}

HealthLog::HealthLog(Config config) : config_(config) {}

void HealthLog::record(const InfoVector& vector) {
  ++sums_.vectors;
  sums_.correctable_errors += vector.correctable_errors;
  sums_.uncorrectable_errors += vector.uncorrectable_errors;
  sums_.power_w +=
      vector.sensors.package_power.value + vector.sensors.memory_power.value;
  sums_.temp_c += vector.sensors.temperature.value;
  sums_.ipc += vector.ipc;
  sums_.utilization += vector.utilization;
  metrics().vectors.add();
}

void HealthLog::clear() {
  sums_ = Sums{};
  errors_.clear();
  last_trigger_ = Seconds{-1e18};
}

void HealthLog::record_error(const ErrorEvent& event) {
  errors_.push_back(event);
  while (errors_.size() > kRetainedErrors) errors_.pop_front();
  if (event.severity == Severity::kCorrectable) {
    ++total_correctable_;
    metrics().correctable.add();
  } else {
    ++total_uncorrectable_;
    metrics().uncorrectable.add();
  }
  if (event.severity == Severity::kCrash) ++sums_.crash_events;
  for (const auto& listener : error_listeners_) listener(event);

  if (threshold_exceeded(event.timestamp)) {
    if (event.timestamp.value - last_trigger_.value >=
        config_.recharacterize_cooldown.value) {
      last_trigger_ = event.timestamp;
      metrics().triggers.add();
      char rate[32];
      std::snprintf(rate, sizeof rate, "%.5f",
                    error_rate_per_s(event.timestamp));
      telemetry::trace(event.timestamp, "healthlog", "recharacterize",
                       {{"rate_per_s", rate},
                        {"component", to_string(event.component)}});
      for (const auto& listener : recharacterize_listeners_) {
        listener(event.timestamp);
      }
    }
  }
}

void HealthLog::subscribe_errors(ErrorListener listener) {
  error_listeners_.push_back(std::move(listener));
}

void HealthLog::subscribe_recharacterize(RecharacterizeListener listener) {
  recharacterize_listeners_.push_back(std::move(listener));
}

HealthLog::Aggregate HealthLog::aggregate() const {
  Aggregate aggregate{sums_.vectors, sums_.correctable_errors,
                      sums_.uncorrectable_errors, sums_.crash_events};
  if (sums_.vectors > 0) {
    const auto n = static_cast<double>(sums_.vectors);
    aggregate.mean_power_w = sums_.power_w / n;
    aggregate.mean_temp_c = sums_.temp_c / n;
    aggregate.mean_ipc = sums_.ipc / n;
    aggregate.mean_utilization = sums_.utilization / n;
  }
  return aggregate;
}

double HealthLog::error_rate_per_s(Seconds now) const {
  const Seconds window = config_.rate_window;
  if (window.value <= 0.0) return 0.0;
  const double cutoff = now.value - window.value;
  std::size_t count = 0;
  for (auto it = errors_.rbegin(); it != errors_.rend(); ++it) {
    if (it->timestamp.value < cutoff) break;
    if (it->severity == Severity::kCorrectable) ++count;
  }
  return static_cast<double>(count) / window.value;
}

bool HealthLog::threshold_exceeded(Seconds now) const {
  return error_rate_per_s(now) > config_.error_rate_threshold_per_s;
}

}  // namespace uniserver::daemons
