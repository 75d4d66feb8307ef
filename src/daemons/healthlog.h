// HealthLog daemon (paper §3.C).
//
// Runtime monitor that folds the periodic information vectors into
// running totals and keeps the recent error events. Provides the two
// services the paper specifies: (a) event-driven — subscribers are
// notified on error events; (b) on-demand — higher layers (Predictor,
// Hypervisor) query aggregates. When the correctable-error rate
// crosses a threshold, the HealthLog raises the "re-characterize"
// signal that triggers a new StressLog cycle (§3: "if the number of
// errors rises above a certain threshold a new stress-test cycle may be
// triggered").
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/units.h"
#include "daemons/info_vector.h"

namespace uniserver::daemons {

class HealthLog {
 public:
  /// Error events kept for the rate window; older ones fall off the
  /// front. A storm can log more than this at one timestamp (the
  /// hypervisor up to 1000 per tick, a StressLog sweep more), so the
  /// rate then reads kRetainedErrors / rate_window.
  static constexpr std::size_t kRetainedErrors = 4096;

  struct Config {
    double error_rate_threshold_per_s{0.05};
    Seconds rate_window{Seconds{120.0}};
    /// Minimum spacing between re-characterization triggers. A
    /// StressLog cycle takes the machine offline (paper SS3.D), so the
    /// trigger must not fire on every window that stays hot.
    Seconds recharacterize_cooldown{Seconds{6.0 * 3600.0}};
  };

  /// Aggregate returned by the on-demand service.
  struct Aggregate {
    std::size_t vectors{0};
    std::uint64_t correctable_errors{0};
    std::uint64_t uncorrectable_errors{0};
    std::size_t crash_events{0};
    double mean_power_w{0.0};
    double mean_temp_c{0.0};
    double mean_ipc{0.0};
    double mean_utilization{0.0};
  };

  using ErrorListener = std::function<void(const ErrorEvent&)>;
  using RecharacterizeListener = std::function<void(Seconds)>;

  HealthLog() : HealthLog(Config{}) {}
  explicit HealthLog(Config config);

  /// Records a periodic monitoring vector into the running aggregate.
  void record(const InfoVector& vector);

  /// Daemon restart: the aggregate and the recent error events are
  /// lost and the re-characterization debounce resets. Subscribers
  /// stay wired and the lifetime totals survive — they model counters
  /// persisted outside the daemon process.
  void clear();

  /// Records an error event; fires event-driven subscribers and, when
  /// the windowed rate crosses the threshold, the re-characterize hook.
  void record_error(const ErrorEvent& event);

  /// Event-driven service: subscribe to every error event.
  void subscribe_errors(ErrorListener listener);

  /// Subscribe to threshold crossings (StressLog trigger).
  void subscribe_recharacterize(RecharacterizeListener listener);

  /// On-demand service: aggregate of the vectors and crash events
  /// recorded since construction or the last clear().
  Aggregate aggregate() const;

  /// Correctable-error rate over the trailing window ending at `now`.
  double error_rate_per_s(Seconds now) const;

  std::uint64_t total_correctable() const { return total_correctable_; }
  std::uint64_t total_uncorrectable() const { return total_uncorrectable_; }

 private:
  /// Running sums behind aggregate(), added in record order.
  struct Sums {
    std::size_t vectors{0};
    std::uint64_t correctable_errors{0};
    std::uint64_t uncorrectable_errors{0};
    std::size_t crash_events{0};
    double power_w{0.0};
    double temp_c{0.0};
    double ipc{0.0};
    double utilization{0.0};
  };

  bool threshold_exceeded(Seconds now) const;

  Config config_;
  Sums sums_;
  std::deque<ErrorEvent> errors_;
  std::vector<ErrorListener> error_listeners_;
  std::vector<RecharacterizeListener> recharacterize_listeners_;
  std::uint64_t total_correctable_{0};
  std::uint64_t total_uncorrectable_{0};
  /// Debounce: do not re-raise the trigger until the window moves on.
  Seconds last_trigger_{Seconds{-1e18}};
};

}  // namespace uniserver::daemons
