// uniserver-race fixture: every sanctioned way to touch state from a
// parallel body. Expected findings with --rules parallel,rng: none.
#include <atomic>
#include <cstddef>
#include <mutex>
#include <vector>

#include "common/parallel.h"
#include "telemetry/metrics.h"

namespace demo {

double measure(std::size_t i);

double campaign(std::size_t n) {
  std::vector<double> results(n);           // per-item slots
  std::atomic<std::uint64_t> flips{0};      // atomic accumulator
  std::mutex mu;
  std::vector<double> outliers;             // lock-protected
  auto& hist = uniserver::telemetry::histogram("demo.sample");

  uniserver::par::parallel_for_each(n, [&](std::size_t i) {
    double local = measure(i);              // body-local scratch
    local *= 2.0;
    results[i] = local;                     // per-item indexed write
    flips.fetch_add(1);                     // atomic RMW
    flips = flips + 1;                      // assignment to atomic decl
    hist.record(local);                     // telemetry handles are atomic
    if (local > 0.99) {
      std::lock_guard<std::mutex> lock(mu);
      outliers.push_back(local);            // mutex-protected write
    }
    const std::size_t j = i / 2;
    results[j] = results[j];                // body-local-derived index
  });

  // The fold lambda of parallel_reduce runs serially in index order
  // (src/common/parallel.h) — its accumulator mutation is NOT a race
  // and must not be analyzed.
  return uniserver::par::parallel_reduce<double, double>(
      n, 0.0, [&](std::size_t i) { return results[i]; },
      [](double& acc, const double& r) { acc += r; });
}

}  // namespace demo
