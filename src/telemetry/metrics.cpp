#include "telemetry/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace uniserver::telemetry {

const char* to_string(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

namespace {

// The one bucket layout every histogram shares (HDR-style log-linear).
// Each power of two in [2^kMinExp, 2^(kMinExp + kOctaves)) splits into
// 2^kSubBits equal-width buckets, so a bucket is at most 1/64 of its
// lower edge wide. Bucket 0 holds everything below the range (zero,
// negatives, denormals) and the last bucket everything above it.
constexpr int kSubBits = 6;
constexpr int kMinExp = -12;  // 2^-12 ~ 2.4e-4
constexpr int kOctaves = 40;  // 2^28 ~ 2.7e8
constexpr std::size_t kInRange = std::size_t{kOctaves} << kSubBits;
constexpr std::size_t kBuckets = kInRange + 2;
/// Widest bucket (the first of an octave), relative to its lower edge.
constexpr double kWidth = 1.0 / (1 << kSubBits);
/// Bound on a percentile's relative error inside the range: 1/129,
/// about 0.78%.
constexpr double kMaxRelError = kWidth / (2.0 + kWidth);

// For x >= 0 the IEEE-754 bit pattern orders like the value, and
// dropping all but the top kSubBits mantissa bits leaves the key
// (exponent, sub-bucket): one log-linear bucket per key.
constexpr int kKeyShift = 52 - kSubBits;
constexpr std::int64_t kFirstKey = std::int64_t{1023 + kMinExp} << kSubBits;

std::size_t bucket_of(double x) {
  // A negative x has the sign bit set, so its key is negative and it
  // lands in bucket 0 with zero. No floor, division or libm call.
  const std::int64_t key =
      (std::bit_cast<std::int64_t>(x) >> kKeyShift) - kFirstKey + 1;
  return static_cast<std::size_t>(
      std::clamp<std::int64_t>(key, 0, std::int64_t{kBuckets} - 1));
}

/// Lower edge of in-range bucket `i` (1 <= i <= kInRange + 1).
double bucket_low(std::size_t i) {
  return std::bit_cast<double>(
      (static_cast<std::int64_t>(i) - 1 + kFirstKey) << kKeyShift);
}

}  // namespace

Histogram::Histogram() : counts_(kBuckets) {}

void Histogram::record(double x) {
  if (!std::isfinite(x)) {
    // NaN/±inf carry no bucket and would poison sum_; reject the
    // sample but keep it visible via the invalid tally.
    invalid_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  counts_[bucket_of(x)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
  update_min(x);
  update_max(x);
}

void Histogram::update_min(double x) {
  double cur = min_.load(std::memory_order_relaxed);
  while (x < cur && !min_.compare_exchange_weak(cur, x,
                                                std::memory_order_relaxed)) {
  }
}

void Histogram::update_max(double x) {
  double cur = max_.load(std::memory_order_relaxed);
  while (x > cur && !max_.compare_exchange_weak(cur, x,
                                                std::memory_order_relaxed)) {
  }
}

double Histogram::observed_min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::observed_max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::percentile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 100.0);
  // Rank of the sample the percentile falls on (1-based, ceil).
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q / 100.0 * static_cast<double>(n))));
  const double min_seen = observed_min();
  const double max_seen = observed_max();
  if (target == 1) return min_seen;
  if (target >= n) return max_seen;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const std::uint64_t in_bucket =
        counts_[i].load(std::memory_order_relaxed);
    if (cumulative + in_bucket < target) {
      cumulative += in_bucket;
      continue;
    }
    // Past either end of the range no bucket edges bound the sample.
    if (i == 0) return min_seen;
    if (i + 1 == counts_.size()) return max_seen;
    const double low = bucket_low(i);
    const double high = bucket_low(i + 1);
    const double fraction = static_cast<double>(target - cumulative) /
                            static_cast<double>(in_bucket);
    double reading = low + fraction * (high - low);
    // The interpolated reading may sit anywhere in a bucket up to 2e
    // wide; [high * (1 - e), low * (1 + e)] is within e of every value
    // the bucket can hold (one point for the widest buckets).
    reading = std::min(std::max(reading, high * (1.0 - kMaxRelError)),
                       low * (1.0 + kMaxRelError));
    return std::min(std::max(reading, min_seen), max_seen);
  }
  return max_seen;  // records raced past count(); the top rank is the max
}

void Histogram::reset() {
  for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  invalid_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

namespace {
[[noreturn]] void type_mismatch(const MetricMeta& meta, MetricType wanted) {
  throw std::logic_error("telemetry: metric '" + meta.name +
                         "' already registered as " + to_string(meta.type) +
                         ", requested as " + to_string(wanted));
}
}  // namespace

Counter& MetricsRegistry::counter(const std::string& name,
                                  const std::string& unit,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    Slot slot;
    slot.meta = MetricMeta{name, MetricType::kCounter, unit, help};
    slot.counter = std::make_unique<Counter>();
    it = slots_.emplace(name, std::move(slot)).first;
  } else if (it->second.meta.type != MetricType::kCounter) {
    type_mismatch(it->second.meta, MetricType::kCounter);
  }
  return *it->second.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name,
                              const std::string& unit,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    Slot slot;
    slot.meta = MetricMeta{name, MetricType::kGauge, unit, help};
    slot.gauge = std::make_unique<Gauge>();
    it = slots_.emplace(name, std::move(slot)).first;
  } else if (it->second.meta.type != MetricType::kGauge) {
    type_mismatch(it->second.meta, MetricType::kGauge);
  }
  return *it->second.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const std::string& unit,
                                      const std::string& help) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  if (it == slots_.end()) {
    Slot slot;
    slot.meta = MetricMeta{name, MetricType::kHistogram, unit, help};
    slot.histogram = std::make_unique<Histogram>();
    it = slots_.emplace(name, std::move(slot)).first;
  } else if (it->second.meta.type != MetricType::kHistogram) {
    type_mismatch(it->second.meta, MetricType::kHistogram);
  }
  return *it->second.histogram;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = slots_.find(name);
  return it != slots_.end() ? it->second.counter.get() : nullptr;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSample> samples;
  samples.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) {
    MetricSample sample;
    sample.meta = slot.meta;
    switch (slot.meta.type) {
      case MetricType::kCounter:
        sample.value = static_cast<double>(slot.counter->value());
        break;
      case MetricType::kGauge:
        sample.value = slot.gauge->value();
        break;
      case MetricType::kHistogram:
        sample.value = slot.histogram->mean();
        sample.count = slot.histogram->count();
        sample.invalid = slot.histogram->invalid();
        sample.sum = slot.histogram->sum();
        sample.p50 = slot.histogram->percentile(50.0);
        sample.p95 = slot.histogram->percentile(95.0);
        sample.p99 = slot.histogram->percentile(99.0);
        sample.p999 = slot.histogram->percentile(99.9);
        sample.min = slot.histogram->observed_min();
        sample.max = slot.histogram->observed_max();
        break;
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

std::vector<std::pair<std::string, std::uint64_t>>
MetricsRegistry::counter_values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::uint64_t>> values;
  for (const auto& [name, slot] : slots_) {
    if (slot.counter) values.emplace_back(name, slot.counter->value());
  }
  return values;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, slot] : slots_) {
    if (slot.counter) slot.counter->reset();
    if (slot.gauge) slot.gauge->reset();
    if (slot.histogram) slot.histogram->reset();
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace uniserver::telemetry
