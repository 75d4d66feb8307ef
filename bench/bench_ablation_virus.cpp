// Ablation: GA stress viruses vs real workloads (paper §3.B).
//
// The claim: evolved diagnostic viruses represent a pathogenic worst
// case — they crash the part at a *higher* voltage (smaller margin)
// than any real workload, so margins characterized from viruses are
// safe for every benchmark, and real workloads would in fact tolerate
// even deeper undervolts.
#include <cstdio>
#include <string>

#include "common/rng.h"
#include "common/table.h"
#include "hwmodel/chip.h"
#include "hwmodel/eop.h"
#include "hwmodel/chip_spec.h"
#include "stress/genetic.h"
#include "stress/kernels.h"
#include "stress/profiles.h"

using namespace uniserver;

namespace {

/// A crash offset below nominal, "-x.y%". Built with append: GCC 12
/// raises a false -Wrestrict on `"-" + std::string&&` once inlined.
std::string below_nominal(double margin) {
  std::string text = "-";
  return text.append(TextTable::pct(margin));
}

}  // namespace

int main() {
  const hw::ChipSpec spec = hw::arm_soc_spec();
  hw::Chip chip(spec, 77);

  stress::GaConfig config;
  config.population = 32;
  config.generations = 40;
  stress::GeneticVirusSearch search(chip, config);
  Rng rng(77);
  const stress::GaResult result = search.run(rng);

  const double virus_margin = hw::undervolt_percent(
      spec.vdd_nominal,
      chip.system_crash_voltage(result.best, spec.freq_nominal));

  TextTable table("GA virus vs real workloads (ARM SoC, first-core crash)");
  table.set_header(
      {"workload", "crash offset", "headroom beyond virus margin"});
  double min_bench_margin = 1e9;
  for (const auto& w : stress::spec2006_profiles()) {
    const double margin = hw::undervolt_percent(
        spec.vdd_nominal, chip.system_crash_voltage(w, spec.freq_nominal));
    min_bench_margin = std::min(min_bench_margin, margin);
    table.add_row({w.name, below_nominal(margin),
                   TextTable::pct(margin - virus_margin)});
  }
  for (const auto& kernel : stress::builtin_kernels()) {
    const double margin = hw::undervolt_percent(
        spec.vdd_nominal,
        chip.system_crash_voltage(kernel.signature, spec.freq_nominal));
    table.add_row({kernel.name + " (hand-coded)", below_nominal(margin),
                   TextTable::pct(margin - virus_margin)});
  }
  table.add_row({"GA-evolved virus", below_nominal(virus_margin),
                 "0.0% (reference)"});
  table.print();

  std::printf("\nGA fitness (crash voltage) progress: gen0 %.4f V -> final "
              "%.4f V over %zu generations\n",
              result.history.front(), result.best_fitness,
              result.history.size());
  std::printf(
      "virus margin %.1f%% < every real workload's margin (min %.1f%%): "
      "virus-derived safe margins upper-bound real workloads %s\n",
      virus_margin, min_bench_margin,
      virus_margin <= min_bench_margin ? "[OK]" : "[VIOLATED]");
  return 0;
}
