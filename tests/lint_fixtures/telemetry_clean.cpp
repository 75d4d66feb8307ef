// Fixture: telemetry registrations that exactly match catalog.md —
// zero findings when checked against it.
#include <string>

namespace fixture {

struct Metric {
  void add() {}
  void set(double) {}
};

namespace telemetry {
inline Metric& counter(const std::string&, const char* = "",
                       const char* = "") {
  static Metric m;
  return m;
}
inline Metric& gauge(const std::string&, const char* = "", const char* = "") {
  static Metric m;
  return m;
}
inline Metric& histogram(const std::string&, const char* = "",
                         const char* = "") {
  static Metric m;
  return m;
}
inline void trace(double, const char*, const char*) {}
}  // namespace telemetry

inline void instrumented(int key) {
  telemetry::counter("demo.requests", "requests").add();
  telemetry::gauge("demo.depth").set(1.0);
  telemetry::histogram("demo.latency_us").add();
  telemetry::counter(std::string("demo.by_key.") + std::to_string(key)).add();
  telemetry::trace(0.0, "demo", "started");
}

}  // namespace fixture
