// In-memory span recorder for the fleet benchmark's traced run.
//
// Spans are taken from outside the simulator, around each call the
// harness makes into a layer (fleet build, commissioning, trace
// generation, one control-loop tick, one injected storm). Each span
// has a parent and carries the workload id; counts measured at the
// same boundary ride along as attributes. Nothing is written until
// `write_jsonl` runs at the end of the benchmark.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::uint32_t id{0};
  std::uint32_t parent{0};  ///< 0 = root
  std::string name;
  double start_us{0.0};  ///< from the recorder's epoch
  double end_us{0.0};
  std::vector<std::pair<std::string, double>> attrs;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(std::string workload);

  /// Opens a span and returns its id (ids start at 1).
  std::uint32_t open(const std::string& name, std::uint32_t parent);
  void close(std::uint32_t id);
  void attr(std::uint32_t id, const std::string& key, double value);

  /// One JSON object per line. Returns false if the file cannot be
  /// written.
  bool write_jsonl(const std::string& path) const;

 private:
  double now_us() const;

  std::string workload_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
