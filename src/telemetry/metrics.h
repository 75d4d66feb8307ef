// Cross-layer metrics: the registry every subsystem publishes into.
//
// The paper's ecosystem is built on continuous low-level monitoring
// (HealthLog/StressLog feeding the Predictor and the cloud layer); this
// library is the reproduction's equivalent for observing the *stack
// itself*: every layer registers counters, gauges and histograms under
// a stable dotted namespace (`sim.`, `daemon.*`, `ecc.`, `hv.`,
// `cloud.`) and exporters turn one snapshot into JSON or CSV (see
// export.h, docs/OBSERVABILITY.md for the catalog). Histograms take no
// range: all of them share one log-linear bucket layout whose
// percentiles stay within 1% of the exact value from sub-microsecond
// to day-long quantities, so a tail never reads as its maximum.
//
// Lock-cheap by design: registration (rare) takes a mutex; the hot
// paths — Counter::add, Gauge::set, Histogram::record — are relaxed
// atomics on pre-registered objects whose addresses are stable for the
// registry's lifetime. Metrics are observational only; nothing in the
// models reads them back, so instrumentation can never perturb a
// deterministic run.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.h"

namespace uniserver::telemetry {

enum class MetricType { kCounter, kGauge, kHistogram };

const char* to_string(MetricType type);

/// Identity and documentation of a registered metric.
struct MetricMeta {
  std::string name;  ///< dotted namespace, e.g. "cloud.migrations"
  MetricType type{MetricType::kCounter};
  std::string unit;  ///< "events", "us", "kwh", ... ("" = dimensionless)
  std::string help;  ///< one-line description for the catalog
};

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-linear histogram (HDR-style). Every histogram shares one bucket
/// layout, fixed in metrics.cpp: each power of two in [2^-12, 2^28)
/// (2.4e-4 to 2.7e8: up to 4.5 min in us, 3 days in ms, 8 years in s)
/// splits into 64 equal-width buckets, plus one bucket below the range
/// (zero, mostly) and one above it. A percentile reads within 1% of the
/// exact nearest-rank sample whenever that sample lies in the range;
/// rank 1 and rank n read the observed min and max exactly. Non-finite
/// samples (NaN/±inf — e.g. a rate over a zero-duration interval) are
/// rejected and tallied in `invalid()` instead of poisoning the buckets.
class Histogram {
 public:
  Histogram();

  void record(double x);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  /// Non-finite samples rejected by record().
  std::uint64_t invalid() const {
    return invalid_.load(std::memory_order_relaxed);
  }
  /// True extremes over all recorded finite samples (0 when empty).
  double observed_min() const;
  double observed_max() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;

  /// `q` in [0, 100]. Returns 0 for an empty histogram. Interpolates
  /// inside the bucket that holds the nearest-rank sample, then clamps
  /// to [observed_min(), observed_max()].
  double percentile(double q) const;

  void reset();

 private:
  // CAS loops because std::atomic<double> has no fetch_min/fetch_max.
  void update_min(double x);
  void update_max(double x);

  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> invalid_{0};
  std::atomic<double> sum_{0.0};
  // +inf/-inf sentinels while empty; accessors report 0 for count()==0.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Point-in-time reading of one metric, as produced by
/// MetricsRegistry::snapshot() and consumed by the exporters.
struct MetricSample {
  MetricMeta meta;
  /// Counter/gauge value; histogram mean.
  double value{0.0};
  // Histogram-only fields (zero otherwise).
  std::uint64_t count{0};
  std::uint64_t invalid{0};
  double sum{0.0};
  double p50{0.0};
  double p95{0.0};
  double p99{0.0};
  double p999{0.0};
  double min{0.0};
  double max{0.0};
};

/// Name -> metric table. get-or-create semantics: the first call for a
/// name registers it, later calls return the same object (a type
/// mismatch is a programming error and throws std::logic_error).
/// Returned references stay valid for the registry's lifetime —
/// instrumentation sites cache them so steady-state cost is one relaxed
/// atomic op.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& unit = "",
                   const std::string& help = "");
  Gauge& gauge(const std::string& name, const std::string& unit = "",
               const std::string& help = "");
  Histogram& histogram(const std::string& name, const std::string& unit = "",
                       const std::string& help = "");

  /// Lookup without registering; nullptr if absent or a different type.
  const Counter* find_counter(const std::string& name) const;

  /// All metrics, sorted by name.
  std::vector<MetricSample> snapshot() const;

  /// Counter values only, sorted by name: no histogram percentiles are
  /// computed, so per-step readers stay cheap.
  std::vector<std::pair<std::string, std::uint64_t>> counter_values() const;

  /// Zeroes every metric but keeps all registrations (and therefore
  /// every reference handed out) valid. Registrations are never
  /// removed: cached references must outlive the process.
  void reset_values();

  /// The process-wide registry the stack instruments into.
  static MetricsRegistry& global();

 private:
  struct Slot {
    MetricMeta meta;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Slot> slots_ US_GUARDED_BY(mutex_);
};

// -- convenience over the global registry -----------------------------

inline Counter& counter(const std::string& name, const std::string& unit = "",
                        const std::string& help = "") {
  return MetricsRegistry::global().counter(name, unit, help);
}

inline Gauge& gauge(const std::string& name, const std::string& unit = "",
                    const std::string& help = "") {
  return MetricsRegistry::global().gauge(name, unit, help);
}

inline Histogram& histogram(const std::string& name,
                            const std::string& unit = "",
                            const std::string& help = "") {
  return MetricsRegistry::global().histogram(name, unit, help);
}

}  // namespace uniserver::telemetry
