#include "telemetry/trace.h"

#include <algorithm>

namespace uniserver::telemetry {

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void TraceBuffer::record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[head_] = std::move(event);
    head_ = (head_ + 1) % capacity_;
  }
  ++recorded_;
}

void TraceBuffer::record(
    Seconds sim_time, std::string component, std::string name,
    std::vector<std::pair<std::string, std::string>> tags) {
  record(TraceEvent{sim_time, std::move(component), std::move(name),
                    std::move(tags)});
}

std::vector<TraceEvent> TraceBuffer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TraceEvent> events;
  events.reserve(ring_.size());
  // head_ is the oldest slot once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    events.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return events;
}

std::uint64_t TraceBuffer::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t TraceBuffer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_ - ring_.size();
}

void TraceBuffer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  head_ = 0;
  recorded_ = 0;
}

TraceBuffer& TraceBuffer::global() {
  static TraceBuffer buffer;
  return buffer;
}

namespace {
// The innermost live TraceCapture's sink on this thread, if any.
thread_local std::vector<TraceEvent>* tls_capture = nullptr;
}  // namespace

void trace(Seconds sim_time, std::string component, std::string name,
           std::vector<std::pair<std::string, std::string>> tags) {
  TraceEvent event{sim_time, std::move(component), std::move(name),
                   std::move(tags)};
  if (tls_capture != nullptr) {
    tls_capture->push_back(std::move(event));
  } else {
    TraceBuffer::global().record(std::move(event));
  }
}

TraceCapture::TraceCapture(std::vector<TraceEvent>& sink)
    : previous_(tls_capture) {
  tls_capture = &sink;
}

TraceCapture::~TraceCapture() { tls_capture = previous_; }

}  // namespace uniserver::telemetry
