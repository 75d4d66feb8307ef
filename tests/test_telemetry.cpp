#include "telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"

namespace uniserver {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::MetricsRegistry;
using telemetry::MetricType;
using telemetry::ScopedTimer;
using telemetry::TraceBuffer;
using telemetry::TraceEvent;

// -- registry ---------------------------------------------------------

TEST(MetricsRegistry, GetOrCreateReturnsSameObject) {
  MetricsRegistry registry;
  Counter& a = registry.counter("sim.events", "events", "help");
  a.add(3);
  Counter& b = registry.counter("sim.events");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(registry.snapshot().size(), 1u);
}

TEST(MetricsRegistry, TypeMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x.count");
  registry.gauge("x.level");
  registry.histogram("x.latency");
  EXPECT_THROW(registry.gauge("x.count"), std::logic_error);
  EXPECT_THROW(registry.histogram("x.count"), std::logic_error);
  EXPECT_THROW(registry.counter("x.level"), std::logic_error);
  EXPECT_THROW(registry.counter("x.latency"), std::logic_error);
}

TEST(MetricsRegistry, FindDoesNotRegister) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.find_counter("absent"), nullptr);
  EXPECT_TRUE(registry.snapshot().empty());

  registry.counter("present").add(7);
  ASSERT_NE(registry.find_counter("present"), nullptr);
  EXPECT_EQ(registry.find_counter("present")->value(), 7u);
  // Wrong-type lookup returns null, never throws.
  registry.gauge("level");
  EXPECT_EQ(registry.find_counter("level"), nullptr);
}

TEST(MetricsRegistry, SnapshotSortedAndTyped) {
  MetricsRegistry registry;
  registry.gauge("b.gauge", "w").set(2.5);
  registry.counter("a.counter", "events").add(4);
  registry.histogram("c.hist", "us").record(5.0);

  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].meta.name, "a.counter");
  EXPECT_EQ(snapshot[0].meta.type, MetricType::kCounter);
  EXPECT_DOUBLE_EQ(snapshot[0].value, 4.0);
  EXPECT_EQ(snapshot[1].meta.name, "b.gauge");
  EXPECT_DOUBLE_EQ(snapshot[1].value, 2.5);
  EXPECT_EQ(snapshot[2].meta.name, "c.hist");
  EXPECT_EQ(snapshot[2].count, 1u);
  EXPECT_DOUBLE_EQ(snapshot[2].sum, 5.0);
}

TEST(MetricsRegistry, CounterValuesListCountersOnlyInNameOrder) {
  MetricsRegistry registry;
  registry.counter("z.counter").add(9);
  registry.gauge("b.gauge").set(2.5);
  registry.counter("a.counter").add(4);
  registry.histogram("c.hist").record(5.0);

  const auto values = registry.counter_values();
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0].first, "a.counter");
  EXPECT_EQ(values[0].second, 4u);
  EXPECT_EQ(values[1].first, "z.counter");
  EXPECT_EQ(values[1].second, 9u);
  // The same counters, in the same order, as snapshot() reports.
  std::vector<std::pair<std::string, std::uint64_t>> from_snapshot;
  for (const auto& sample : registry.snapshot()) {
    if (sample.meta.type != MetricType::kCounter) continue;
    from_snapshot.emplace_back(sample.meta.name,
                               static_cast<std::uint64_t>(sample.value));
  }
  EXPECT_EQ(values, from_snapshot);
}

TEST(MetricsRegistry, ResetValuesKeepsRegistrationsValid) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("n.count");
  Histogram& hist = registry.histogram("n.hist");
  counter.add(10);
  hist.record(3.0);

  registry.reset_values();
  EXPECT_EQ(registry.snapshot().size(), 2u);
  EXPECT_EQ(counter.value(), 0u);  // same object, zeroed
  EXPECT_EQ(hist.count(), 0u);
  counter.add(1);
  EXPECT_EQ(registry.find_counter("n.count")->value(), 1u);
}

TEST(MetricsRegistry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
  Counter& via_helper = telemetry::counter("test.telemetry.global_probe");
  EXPECT_EQ(&via_helper,
            &MetricsRegistry::global().counter("test.telemetry.global_probe"));
}

// -- histogram percentiles -------------------------------------------

/// Exact nearest-rank percentile (rank ceil(q/100 * n), 1-based) of
/// the sorted raw samples: the reference every reading is checked
/// against.
double exact_percentile(const std::vector<double>& sorted, double q) {
  const double n = static_cast<double>(sorted.size());
  const auto rank =
      static_cast<std::size_t>(std::max(1.0, std::ceil(q / 100.0 * n)));
  return sorted[rank - 1];
}

/// The layout's advertised bound: 1% of the exact value.
constexpr double kRelBound = 0.01;

TEST(Histogram, PercentilesOfUniformDistribution) {
  // 1..1000: every reading lands within 1% of the exact order
  // statistic (the advertised accuracy bound).
  Histogram hist;
  for (int i = 1; i <= 1000; ++i) hist.record(static_cast<double>(i));
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_NEAR(hist.percentile(50.0), 500.0, 500.0 * kRelBound);
  EXPECT_NEAR(hist.percentile(95.0), 950.0, 950.0 * kRelBound);
  EXPECT_NEAR(hist.percentile(99.0), 990.0, 990.0 * kRelBound);
  EXPECT_NEAR(hist.mean(), 500.5, 1e-9);
}

TEST(Histogram, PercentilesOfPointMass) {
  Histogram hist;
  for (int i = 0; i < 37; ++i) hist.record(42.0);
  // The observed extremes pin every reading to the one value.
  for (double q : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(hist.percentile(q), 42.0) << "q=" << q;
  }
}

TEST(Histogram, LogUniformPercentilesWithinOnePercentOfExact) {
  // Differential check against the sorted raw samples, over ten
  // decades: the span from sub-microsecond timers to day-long
  // latencies that every call site now shares one layout for.
  Rng rng(20261018);
  std::vector<double> samples(200000);
  for (double& x : samples) x = std::pow(10.0, rng.uniform(-3.0, 7.0));
  Histogram hist;
  for (double x : samples) hist.record(x);
  std::sort(samples.begin(), samples.end());

  for (double q : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = exact_percentile(samples, q);
    EXPECT_NEAR(hist.percentile(q), exact, exact * kRelBound) << "q=" << q;
  }
  for (double q = 0.5; q < 100.0; q += 0.5) {
    const double exact = exact_percentile(samples, q);
    ASSERT_NEAR(hist.percentile(q), exact, exact * kRelBound) << "q=" << q;
  }
  EXPECT_EQ(hist.percentile(0.0), samples.front());
  EXPECT_EQ(hist.percentile(100.0), samples.back());
  // The tail is read, not flattened onto the maximum.
  EXPECT_LT(hist.percentile(99.0), 0.95 * samples.back());
}

TEST(Histogram, PointMassAtBucketEdgeStaysWithinBound) {
  // Worst case for interpolation: all of a bucket's mass sits on its
  // lower edge (1.0 starts an octave, where buckets are widest), and
  // the rank falls near the top of it. The reading must still stay
  // within 1% of the exact value.
  Histogram hist;
  hist.record(0.5);
  for (int i = 0; i < 1000; ++i) hist.record(1.0);
  hist.record(4.0);
  for (double q : {0.2, 50.0, 99.0, 99.8}) {
    EXPECT_NEAR(hist.percentile(q), 1.0, kRelBound) << "q=" << q;
  }
}

TEST(Histogram, TailPercentileInOverflowMassReturnsTrueMax) {
  // 2% of the mass sits two decades above the rest: p99 must read the
  // 99th sample, not the observed maximum.
  Histogram hist;
  for (int i = 0; i < 98; ++i) hist.record(50.0);
  hist.record(5000.0);
  hist.record(9000.0);
  // Rank 99 is 5000; rank 100 is the true observed max.
  EXPECT_NEAR(hist.percentile(99.0), 5000.0, 5000.0 * kRelBound);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 9000.0);
  EXPECT_NEAR(hist.percentile(50.0), 50.0, 50.0 * kRelBound);
  EXPECT_NEAR(hist.percentile(90.0), 50.0, 50.0 * kRelBound);
}

TEST(Histogram, HeadPercentileInUnderflowMassReturnsTrueMin) {
  // A sample below the range (here negative) still reads back exactly
  // as the observed min.
  Histogram hist;
  hist.record(-75.0);
  for (int i = 0; i < 99; ++i) hist.record(50.0);
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), -75.0);
  EXPECT_DOUBLE_EQ(hist.percentile(1.0), -75.0);
  EXPECT_NEAR(hist.percentile(50.0), 50.0, 50.0 * kRelBound);
}

TEST(Histogram, InRangeSamplesKeepObservedExtremes) {
  Histogram hist;
  hist.record(12.5);
  hist.record(87.5);
  EXPECT_DOUBLE_EQ(hist.observed_min(), 12.5);
  EXPECT_DOUBLE_EQ(hist.observed_max(), 87.5);
  EXPECT_DOUBLE_EQ(hist.percentile(100.0), 87.5);

  hist.reset();
  EXPECT_DOUBLE_EQ(hist.observed_min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.observed_max(), 0.0);
}

TEST(Histogram, EmptyPercentileIsZero) {
  Histogram hist;
  EXPECT_DOUBLE_EQ(hist.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
}

TEST(Histogram, NonFiniteSamplesAreRejectedAndCounted) {
  // NaN and +/-inf have no bucket. They must not touch buckets, count
  // or sum; they land in the dedicated invalid tally instead.
  Histogram hist;
  hist.record(5.0);
  hist.record(std::numeric_limits<double>::quiet_NaN());
  hist.record(std::numeric_limits<double>::infinity());
  hist.record(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_DOUBLE_EQ(hist.sum(), 5.0);
  EXPECT_EQ(hist.invalid(), 3u);
  EXPECT_DOUBLE_EQ(hist.percentile(50.0), 5.0);

  hist.reset();
  EXPECT_EQ(hist.invalid(), 0u);
}

TEST(Histogram, ParallelRecordMatchesSerial) {
  // record() is relaxed atomics only: recording the same samples from
  // four workers must leave exactly the serial histogram. Integer
  // samples keep the double sum exact in any order. Bucket mass is
  // compared through the percentile at every rank, which reads each
  // bucket's cumulative count.
  constexpr std::size_t kSamples = 20000;
  auto sample = [](std::size_t i) {
    return static_cast<double>((i * 7919) % 100003);
  };
  Histogram serial;
  for (std::size_t i = 0; i < kSamples; ++i) serial.record(sample(i));
  Histogram parallel;
  par::set_default_jobs(4);
  par::parallel_for_each(kSamples,
                         [&](std::size_t i) { parallel.record(sample(i)); });
  par::set_default_jobs(0);

  EXPECT_EQ(parallel.count(), serial.count());
  EXPECT_EQ(parallel.sum(), serial.sum());
  EXPECT_EQ(parallel.observed_min(), serial.observed_min());
  EXPECT_EQ(parallel.observed_max(), serial.observed_max());
  for (std::size_t rank = 0; rank <= kSamples; ++rank) {
    const double q = 100.0 * static_cast<double>(rank) / kSamples;
    ASSERT_EQ(parallel.percentile(q), serial.percentile(q)) << "q=" << q;
  }
}

TEST(Histogram, InvalidCountSurfacesInSnapshotAndJson) {
  MetricsRegistry registry;
  Histogram& hist = registry.histogram("q.lat", "us");
  hist.record(2.0);
  hist.record(std::numeric_limits<double>::quiet_NaN());

  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].count, 1u);
  EXPECT_EQ(snapshot[0].invalid, 1u);

  const std::string json = telemetry::to_json(registry, nullptr);
  EXPECT_NE(json.find("\"invalid\": 1"), std::string::npos) << json;
}

// -- trace ring -------------------------------------------------------

TEST(TraceBuffer, WraparoundKeepsNewestAndCountsDropped) {
  TraceBuffer ring(8);
  for (int i = 0; i < 20; ++i) {
    std::string name = "e";
    ring.record(Seconds{static_cast<double>(i)}, "test",
                name.append(std::to_string(i)));
  }
  EXPECT_EQ(ring.snapshot().size(), 8u);
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().name, "e12");  // oldest survivor
  EXPECT_EQ(events.back().name, "e19");   // newest
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    EXPECT_LE(events[i].sim_time.value, events[i + 1].sim_time.value);
  }
}

TEST(TraceBuffer, PartiallyFilledSnapshotInOrder) {
  TraceBuffer ring(16);
  ring.record(Seconds{1.0}, "cloud", "node_crash", {{"node", "3"}});
  ring.record(Seconds{2.0}, "cloud", "evacuation");
  EXPECT_EQ(ring.snapshot().size(), 2u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "node_crash");
  ASSERT_EQ(events[0].tags.size(), 1u);
  EXPECT_EQ(events[0].tags[0].first, "node");
  EXPECT_EQ(events[0].tags[0].second, "3");
}

TEST(TraceBuffer, ClearEmptiesButKeepsCapacity) {
  TraceBuffer ring(4);
  for (int i = 0; i < 6; ++i) ring.record(Seconds{0.0}, "t", "e");
  ring.clear();
  EXPECT_TRUE(ring.snapshot().empty());
  EXPECT_EQ(ring.capacity(), 4u);
  ring.record(Seconds{9.0}, "t", "after_clear");
  ASSERT_EQ(ring.snapshot().size(), 1u);
  EXPECT_EQ(ring.snapshot()[0].name, "after_clear");
}

TEST(TraceCapture, DivertsThisThreadsTracesAndNests) {
  TraceBuffer& global = TraceBuffer::global();
  global.clear();
  std::vector<TraceEvent> outer;
  std::vector<TraceEvent> inner;
  {
    const telemetry::TraceCapture capture_outer(outer);
    telemetry::trace(Seconds{1.0}, "t", "to_outer");
    {
      const telemetry::TraceCapture capture_inner(inner);
      telemetry::trace(Seconds{2.0}, "t", "to_inner");
    }
    telemetry::trace(Seconds{3.0}, "t", "to_outer_again");
  }
  telemetry::trace(Seconds{4.0}, "t", "to_global");
  ASSERT_EQ(outer.size(), 2u);
  EXPECT_EQ(outer[0].name, "to_outer");
  EXPECT_EQ(outer[1].name, "to_outer_again");
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(inner[0].name, "to_inner");
  ASSERT_EQ(global.snapshot().size(), 1u);
  EXPECT_EQ(global.snapshot()[0].name, "to_global");
  global.clear();
}

// -- scoped timer -----------------------------------------------------

TEST(ScopedTimer, RecordsOneSampleIntoSink) {
  Histogram sink;
  {
    ScopedTimer timer(sink);
    EXPECT_GE(timer.elapsed_us(), 0.0);
  }
  EXPECT_EQ(sink.count(), 1u);
  EXPECT_GE(sink.sum(), 0.0);
}

TEST(ScopedTimer, StopIsIdempotent) {
  Histogram sink;
  {
    ScopedTimer timer(sink);
    timer.stop();
    timer.stop();  // no-op
  }                // destructor must not record again
  EXPECT_EQ(sink.count(), 1u);
}

// -- exporters --------------------------------------------------------

// Minimal structural check: braces/brackets balance outside of string
// literals. Catches broken escaping and truncated output without a
// full JSON parser.
bool json_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(Exporters, JsonContainsMetricsAndTrace) {
  MetricsRegistry registry;
  registry.counter("sim.events_fired", "events").add(12);
  registry.gauge("cloud.energy_kwh", "kwh").set(1.25);
  Histogram& hist = registry.histogram("cloud.placement_wall_us", "us");
  for (int i = 1; i <= 10; ++i) hist.record(static_cast<double>(i) * 10.0);

  TraceBuffer ring(8);
  ring.record(Seconds{60.0}, "cloud", "node_crash",
              {{"node", "2"}, {"vms_lost", "3"}});

  const std::string json = telemetry::to_json(registry, &ring);
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"sim.events_fired\""), std::string::npos);
  EXPECT_NE(json.find("\"cloud.energy_kwh\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 1.25"), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"node_crash\""), std::string::npos);
  EXPECT_NE(json.find("\"vms_lost\": \"3\""), std::string::npos);
}

TEST(Exporters, JsonEscapesSpecialCharacters) {
  TraceBuffer ring(4);
  ring.record(Seconds{0.0}, "test", "weird",
              {{"detail", "quote \" backslash \\ newline \n done"}});
  MetricsRegistry registry;
  const std::string json = telemetry::to_json(registry, &ring);
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("quote \\\" backslash \\\\ newline \\n done"),
            std::string::npos);
}

TEST(Exporters, MetricsCsvRoundTrip) {
  MetricsRegistry registry;
  registry.counter("a.count", "events").add(5);
  Histogram& hist = registry.histogram("b.lat", "us");
  hist.record(25.0);
  hist.record(75.0);

  std::vector<std::vector<std::string>> rows;
  std::istringstream stream(telemetry::metrics_csv(registry).str());
  std::string line;
  while (std::getline(stream, line)) {
    std::vector<std::string> cells;
    std::istringstream cells_in(line);
    std::string cell;
    while (std::getline(cells_in, cell, ',')) cells.push_back(cell);
    rows.push_back(cells);
  }

  ASSERT_EQ(rows.size(), 3u);  // header + 2 metrics
  ASSERT_GE(rows[0].size(), 9u);
  EXPECT_EQ(rows[0][0], "metric");
  EXPECT_EQ(rows[1][0], "a.count");
  EXPECT_EQ(rows[1][1], "counter");
  EXPECT_DOUBLE_EQ(std::stod(rows[1][3]), 5.0);
  EXPECT_EQ(rows[2][0], "b.lat");
  EXPECT_EQ(rows[2][1], "histogram");
  EXPECT_DOUBLE_EQ(std::stod(rows[2][4]), 2.0);    // count
  EXPECT_DOUBLE_EQ(std::stod(rows[2][5]), 100.0);  // sum
}

TEST(Exporters, ClampFieldsSurfaceInJsonAndCsv) {
  // Every percentile is clamped to the observed [min, max], and both
  // bounds are exported next to the percentiles, as is the tally of
  // rejected non-finite samples.
  MetricsRegistry registry;
  registry.counter("c.count", "events").add(1);
  Histogram& hist = registry.histogram("c.lat", "us");
  hist.record(-2.0);
  hist.record(50.0);
  hist.record(700.0);
  hist.record(std::nan(""));

  const std::string json = telemetry::to_json(registry, nullptr);
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"min\": -2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"max\": 700"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p999\": 700"), std::string::npos) << json;
  EXPECT_NE(json.find("\"invalid\": 1"), std::string::npos) << json;

  std::vector<std::vector<std::string>> rows;
  std::istringstream stream(telemetry::metrics_csv(registry).str());
  std::string line;
  while (std::getline(stream, line)) {
    std::vector<std::string> cells;
    std::istringstream cells_in(line);
    std::string cell;
    while (std::getline(cells_in, cell, ',')) cells.push_back(cell);
    rows.push_back(cells);
  }
  ASSERT_EQ(rows.size(), 3u);  // header + counter + histogram
  // The original nine columns keep their positions; min/max/invalid
  // follow.
  ASSERT_EQ(rows[0].size(), 13u);
  EXPECT_EQ(rows[0][9], "p999");
  EXPECT_EQ(rows[0][10], "min");
  EXPECT_EQ(rows[0][11], "max");
  EXPECT_EQ(rows[0][12], "invalid");
  ASSERT_EQ(rows[2].size(), 13u);
  EXPECT_EQ(rows[2][0], "c.lat");
  EXPECT_EQ(rows[2][4], "3");                       // finite samples
  EXPECT_DOUBLE_EQ(std::stod(rows[2][10]), -2.0);   // observed min
  EXPECT_DOUBLE_EQ(std::stod(rows[2][11]), 700.0);  // observed max
  EXPECT_EQ(rows[2][12], "1");                      // the NaN
  // Non-histogram rows pad the appended columns too. The trailing
  // empties collapse under this simple split, so count separators.
  ASSERT_GE(rows[1].size(), 4u);
  EXPECT_EQ(rows[1][0], "c.count");
  std::istringstream raw(telemetry::metrics_csv(registry).str());
  while (std::getline(raw, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 12) << line;
  }
}

TEST(Exporters, TraceCsvHasOneRowPerEvent) {
  TraceBuffer ring(8);
  ring.record(Seconds{1.5}, "hv", "core_retired", {{"core", "0"}});
  ring.record(Seconds{2.5}, "hv", "channel_isolated", {{"channel", "1"}});
  const std::string csv = telemetry::trace_csv(ring).str();
  std::istringstream stream(csv);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(stream, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + 2 events
  EXPECT_NE(lines[1].find("core_retired"), std::string::npos);
  EXPECT_NE(lines[1].find("core=0"), std::string::npos);
  EXPECT_NE(lines[2].find("channel_isolated"), std::string::npos);
}

TEST(Exporters, WriteJsonSnapshotCreatesParseableFile) {
  MetricsRegistry registry;
  registry.counter("file.test").add(1);
  const std::string path = ::testing::TempDir() + "telemetry_snapshot.json";
  ASSERT_TRUE(telemetry::write_json_snapshot(path, registry));

  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(file);
  std::remove(path.c_str());

  EXPECT_TRUE(json_balanced(contents)) << contents;
  EXPECT_NE(contents.find("\"file.test\""), std::string::npos);
}

TEST(Exporters, SaveSeriesCsvWritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "telemetry_series.csv";
  ASSERT_TRUE(telemetry::save_series_csv(path, {"x", "y"},
                                         {{1.0, 2.0}, {3.0, 4.5}}, 3));

  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buffer[1024];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(file);
  std::remove(path.c_str());

  EXPECT_NE(contents.find("x,y"), std::string::npos);
  EXPECT_NE(contents.find("3,4.5"), std::string::npos);
}

}  // namespace
}  // namespace uniserver
