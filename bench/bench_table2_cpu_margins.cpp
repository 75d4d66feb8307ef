// Reproduces Table 2: "Initial results for two Intel microprocessors".
//
// Protocol (paper §6.A): two x86-64 parts — a low-end i5-4200U
// (0.844 V, 2.6 GHz) and a high-end i7-3970X (1.365 V, 4.0 GHz) — run 8
// SPEC CPU2006 benchmarks, 3 consecutive runs each, stepping the
// voltage offset below nominal VID until the system crashes. Reported:
//   - min/max crash offset across benchmarks (first core to die),
//   - min/max core-to-core variation across benchmarks,
//   - min/max correctable cache ECC error counts (low-end part only),
//   - the average gap between ECC-error onset and the crash point.
#include <cstdio>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "hwmodel/chip.h"
#include "hwmodel/chip_spec.h"
#include "stress/profiles.h"
#include "stress/shmoo.h"

using namespace uniserver;

namespace {

struct ChipRow {
  double crash_min{std::numeric_limits<double>::infinity()};
  double crash_max{0.0};
  double c2c_min{std::numeric_limits<double>::infinity()};
  double c2c_max{0.0};
  std::uint64_t ecc_min{std::numeric_limits<std::uint64_t>::max()};
  std::uint64_t ecc_max{0};
  bool ecc_seen{false};
  double onset_gap_mv_sum{0.0};
  int onset_gap_count{0};
};

ChipRow characterize(const hw::ChipSpec& spec, std::uint64_t seed) {
  hw::Chip chip(spec, seed);
  stress::ShmooConfig config;
  config.step_percent = 0.2;
  config.runs = 3;
  config.step_duration = Seconds{10.0};
  stress::ShmooCharacterizer characterizer(config);
  Rng rng(seed ^ 0x7AB1E2ULL);

  ChipRow row;
  for (const auto& w : stress::spec2006_profiles()) {
    const auto summary =
        characterizer.characterize_chip(chip, w, spec.freq_nominal, rng);
    row.crash_min = std::min(row.crash_min, summary.system_crash_offset);
    row.crash_max = std::max(row.crash_max, summary.system_crash_offset);
    row.c2c_min = std::min(row.c2c_min, summary.core_to_core_variation);
    row.c2c_max = std::max(row.c2c_max, summary.core_to_core_variation);
    for (const auto& core : summary.per_core) {
      for (const auto& run : core.runs) {
        if (run.ecc_errors > 0) {
          row.ecc_seen = true;
          row.ecc_min = std::min(row.ecc_min, run.ecc_errors);
          row.ecc_max = std::max(row.ecc_max, run.ecc_errors);
        }
        if (run.ecc_onset_offset_percent >= 0.0) {
          const double gap_pct =
              run.crash_offset_percent - run.ecc_onset_offset_percent;
          row.onset_gap_mv_sum +=
              gap_pct / 100.0 * spec.vdd_nominal.millivolts();
          ++row.onset_gap_count;
        }
      }
    }
  }
  return row;
}

std::string range(double lo, double hi, int precision = 1) {
  // Built with append: GCC 12 raises a false -Wrestrict on
  // `"-" + std::string&&` once inlined.
  std::string text = "-";
  return text.append(TextTable::num(lo, precision))
      .append("% / -")
      .append(TextTable::num(hi, precision))
      .append("%");
}

}  // namespace

int main() {
  const ChipRow i5 = characterize(hw::i5_4200u_spec(), 42);
  const ChipRow i7 = characterize(hw::i7_3970x_spec(), 42);

  TextTable table("Table 2: Initial results for two Intel microprocessors");
  table.set_header({"metric", "i5-4200U (min/max)", "i7-3970X (min/max)",
                    "paper i5", "paper i7"});
  table.add_row({"crash points below nominal VID",
                 range(i5.crash_min, i5.crash_max),
                 range(i7.crash_min, i7.crash_max), "-10% / -11.2%",
                 "-8.4% / -15.4%"});
  table.add_row({"core-to-core variation",
                 TextTable::pct(i5.c2c_min) + " / " + TextTable::pct(i5.c2c_max),
                 TextTable::pct(i7.c2c_min) + " / " + TextTable::pct(i7.c2c_max),
                 "0% / 2.7%", "3.7% / 8%"});
  table.add_row({"number of cache ECC errors",
                 i5.ecc_seen ? std::to_string(i5.ecc_min) + " / " +
                                   std::to_string(i5.ecc_max)
                             : "-",
                 i7.ecc_seen ? std::to_string(i7.ecc_min) + " / " +
                                   std::to_string(i7.ecc_max)
                             : "-",
                 "1 / 17", "-"});
  table.print();

  if (i5.onset_gap_count > 0) {
    std::printf(
        "\nECC errors begin on average %.1f mV above the crash point "
        "(paper: ~15 mV)\n",
        i5.onset_gap_mv_sum / i5.onset_gap_count);
  }
  return 0;
}
