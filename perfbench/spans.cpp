#include "spans.h"

#include <cstdio>

namespace perfbench {

SpanRecorder::SpanRecorder(std::string workload)
    : workload_(std::move(workload)), epoch_(Clock::now()) {}

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

std::uint32_t SpanRecorder::open(const std::string& name,
                                 std::uint32_t parent) {
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.name = name;
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanRecorder::close(std::uint32_t id) {
  spans_[id - 1].end_us = now_us();
}

void SpanRecorder::attr(std::uint32_t id, const std::string& key,
                        double value) {
  spans_[id - 1].attrs.emplace_back(key, value);
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"workload\":"
                 "\"%s\",\"start_us\":%.3f,\"end_us\":%.3f",
                 span.id, span.parent, span.name.c_str(), workload_.c_str(),
                 span.start_us, span.end_us);
    for (const auto& [key, value] : span.attrs) {
      std::fprintf(out, ",\"%s\":%.17g", key.c_str(), value);
    }
    std::fprintf(out, "}\n");
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
