// Structured event tracing: a bounded ring of TraceEvent records.
//
// Where metrics answer "how many / how long", trace events answer "what
// happened, when, to whom": a node crash, an evacuation, a StressLog
// re-characterization. Components append `{sim_time, component, name,
// key=value tags}` records; the ring keeps the most recent `capacity`
// events and counts what it dropped, so tracing is safe to leave on in
// year-long simulations. Exporters (export.h) serialize the ring next
// to the metric snapshot.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/units.h"

namespace uniserver::telemetry {

/// One structured event. Tags are ordered key/value pairs so a record
/// renders deterministically.
struct TraceEvent {
  Seconds sim_time{Seconds{0.0}};
  std::string component;  ///< emitting layer, e.g. "cloud", "healthlog"
  std::string name;       ///< event name, e.g. "node_crash"
  std::vector<std::pair<std::string, std::string>> tags;
};

/// Fixed-capacity ring buffer of trace events.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 4096);

  void record(TraceEvent event);
  void record(Seconds sim_time, std::string component, std::string name,
              std::vector<std::pair<std::string, std::string>> tags = {});

  /// Resident events, oldest first.
  std::vector<TraceEvent> snapshot() const;

  /// Events ever recorded (including those the ring has overwritten).
  std::uint64_t recorded() const;
  /// Events overwritten by wraparound.
  std::uint64_t dropped() const;
  std::size_t capacity() const { return capacity_; }

  void clear();

  /// The process-wide trace ring the stack emits into.
  static TraceBuffer& global();

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_ US_NOT_GUARDED("immutable after construction");
  std::vector<TraceEvent> ring_ US_GUARDED_BY(mutex_);
  /// Next write slot once the ring is full.
  std::size_t head_ US_GUARDED_BY(mutex_){0};
  std::uint64_t recorded_ US_GUARDED_BY(mutex_){0};
};

/// Convenience: append to the global ring — or, while a TraceCapture
/// is live on the calling thread, to that capture's sink.
void trace(Seconds sim_time, std::string component, std::string name,
           std::vector<std::pair<std::string, std::string>> tags = {});

/// Diverts this thread's `trace()` calls into `sink` for the guard's
/// lifetime (captures nest). A forked region body records through one
/// so that the serial fold can replay the events into the global ring
/// in a fixed order, never in the order workers reach its mutex.
class TraceCapture {
 public:
  explicit TraceCapture(std::vector<TraceEvent>& sink);
  ~TraceCapture();
  TraceCapture(const TraceCapture&) = delete;
  TraceCapture& operator=(const TraceCapture&) = delete;

 private:
  std::vector<TraceEvent>* previous_;
};

}  // namespace uniserver::telemetry
