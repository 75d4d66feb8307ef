// Golden-trace regression tests (ctest label `golden`).
//
// Each test recomputes a small, fixed-seed slice of a paper-facing
// pipeline — shmoo characterization (§6.A / Table 2), the DRAM
// retention/BER model (§6.B), and the TCO design-space sweep (§6.D) —
// and compares it cell-by-cell against a CSV checked in under
// tests/golden/. A refactor that silently shifts these numbers fails
// here with a pointer to the exact cell.
//
// Every run also writes the freshly computed table into the build tree
// (UNISERVER_GOLDEN_ACTUAL_DIR). To regenerate a golden after an
// *intentional* model change, copy that file over the checked-in one —
// the failure message prints the exact `cp` command — and re-run.
//
// Comparator: text cells match exactly; numeric cells match within
// a relative tolerance of 1e-6 (abs 1e-12), so cosmetic formatting
// or last-ulp libm differences don't flake the suite.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/rng.h"
#include "common/units.h"
#include "hwmodel/chip.h"
#include "hwmodel/chip_spec.h"
#include "hwmodel/dram_model.h"
#include "hwmodel/platform.h"
#include "serve/serve.h"
#include "stress/profiles.h"
#include "stress/shmoo.h"
#include "tco/explorer.h"
#include "tco/tco.h"
#include "trace/arrivals.h"

namespace uniserver {
namespace {

constexpr double kRelTolerance = 1e-6;
constexpr double kAbsTolerance = 1e-12;

struct Table {
  std::vector<std::vector<std::string>> rows;  // header is rows[0]
};

std::vector<std::string> split_csv_line(const std::string& line) {
  // The golden tables use only unquoted cells (no commas in names).
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream in(line);
  while (std::getline(in, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.push_back("");
  return cells;
}

Table parse_table(const std::string& text) {
  Table table;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    table.rows.push_back(split_csv_line(line));
  }
  return table;
}

bool parse_double(const std::string& cell, double& out) {
  if (cell.empty()) return false;
  char* end = nullptr;
  out = std::strtod(cell.c_str(), &end);
  return end != nullptr && *end == '\0';
}

bool cells_match(const std::string& expected, const std::string& actual,
                 std::string& why) {
  double e = 0.0;
  double a = 0.0;
  const bool e_num = parse_double(expected, e);
  const bool a_num = parse_double(actual, a);
  if (e_num != a_num) {
    why = "numeric/text kind mismatch";
    return false;
  }
  if (!e_num) {
    if (expected == actual) return true;
    why = "text differs";
    return false;
  }
  const double diff = std::abs(e - a);
  const double scale = std::max(std::abs(e), std::abs(a));
  if (diff <= kAbsTolerance + kRelTolerance * scale) return true;
  std::ostringstream os;
  os << "numeric drift: |" << e << " - " << a << "| = " << diff
     << " exceeds tolerance " << (kAbsTolerance + kRelTolerance * scale);
  why = os.str();
  return false;
}

/// Writes `actual` into the build tree, loads the checked-in golden,
/// and compares cell-by-cell. Regeneration is a `cp` away.
void expect_matches_golden(const std::string& file, const CsvWriter& actual) {
  namespace fs = std::filesystem;
  const std::string actual_dir = UNISERVER_GOLDEN_ACTUAL_DIR;
  const std::string golden_path =
      std::string(UNISERVER_GOLDEN_DIR) + "/" + file;
  const std::string actual_path = actual_dir + "/" + file;
  fs::create_directories(actual_dir);
  ASSERT_TRUE(actual.save(actual_path)) << "cannot write " << actual_path;

  const std::string regen_hint =
      "to accept the new numbers: cp " + actual_path + " " + golden_path;
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "golden file missing: " << golden_path << "\n  "
                         << regen_hint;
  std::ostringstream blob;
  blob << in.rdbuf();

  const Table golden = parse_table(blob.str());
  const Table fresh = parse_table(actual.str());
  ASSERT_EQ(golden.rows.size(), fresh.rows.size())
      << file << ": row count changed\n  " << regen_hint;
  for (std::size_t r = 0; r < golden.rows.size(); ++r) {
    ASSERT_EQ(golden.rows[r].size(), fresh.rows[r].size())
        << file << " row " << r << ": column count changed\n  "
        << regen_hint;
    for (std::size_t c = 0; c < golden.rows[r].size(); ++c) {
      std::string why;
      EXPECT_TRUE(cells_match(golden.rows[r][c], fresh.rows[r][c], why))
          << file << " row " << r << " col " << c << " ("
          << golden.rows[0][std::min(c, golden.rows[0].size() - 1)]
          << "): expected '" << golden.rows[r][c] << "' got '"
          << fresh.rows[r][c] << "' — " << why << "\n  " << regen_hint;
    }
  }
}

std::string fmt(double value, int precision = 9) {
  std::ostringstream os;
  os.precision(precision);
  os << value;
  return os.str();
}

TEST(GoldenTraces, ShmooCharacterization) {
  // Per-core crash offsets and ECC counts for the i5-like part under
  // mcf — the Table 2 pipeline with a small fixed budget (2 runs).
  const hw::Chip chip(hw::i5_4200u_spec(), 42);
  const auto w = *stress::spec_profile("mcf");
  stress::ShmooCharacterizer characterizer({.runs = 2});
  Rng rng(7);
  const auto summary = characterizer.characterize_chip(
      chip, w, chip.spec().freq_nominal, rng);

  CsvWriter csv({"core", "crash_offset_min", "crash_offset_max",
                 "crash_offset_mean", "ecc_errors_min", "ecc_errors_max"});
  for (const auto& core : summary.per_core) {
    csv.add_row({std::to_string(core.core), fmt(core.crash_offset_min),
                 fmt(core.crash_offset_max), fmt(core.crash_offset_mean),
                 std::to_string(core.ecc_errors_min),
                 std::to_string(core.ecc_errors_max)});
  }
  csv.add_row({"summary", fmt(summary.system_crash_offset),
               fmt(summary.core_to_core_variation), "", "", ""});
  expect_matches_golden("shmoo_characterization.csv", csv);
}

TEST(GoldenTraces, DramBerSweep) {
  // Bit-error probability of one sampled DIMM over the relaxed-refresh
  // grid the RAIDR/§6.B experiments sweep, at three temperatures.
  hw::DimmSpec spec;
  const hw::DimmModel dimm(spec, 7);
  const double refresh_s[] = {0.064, 0.256, 1.0, 2.0, 5.0, 10.0};
  const double temps_c[] = {30.0, 50.0, 70.0};

  CsvWriter csv({"refresh_s", "temp_c", "bit_error_probability"});
  for (const double refresh : refresh_s) {
    for (const double temp : temps_c) {
      const double ber =
          dimm.bit_error_probability(Seconds{refresh}, Celsius{temp});
      csv.add_row({fmt(refresh), fmt(temp), fmt(ber, 12)});
    }
  }
  expect_matches_golden("dram_ber_sweep.csv", csv);
}

TEST(GoldenTraces, TcoSweep) {
  // Full-factorial TCO sweep around the cloud profile (§6.D) at the
  // margins-only EE factor of Table 3.
  const tco::DatacenterSpec base = tco::cloud_datacenter_spec();
  const std::vector<tco::SweepDimension> dims = {
      tco::TcoExplorer::electricity_price_usd({0.08, 0.12, 0.16}),
      tco::TcoExplorer::pue({1.2, 1.5}),
      tco::TcoExplorer::server_power_w({100.0, 150.0}),
  };
  const tco::TcoExplorer explorer;
  const auto points = explorer.sweep(base, dims, 1.5);

  CsvWriter csv({"electricity_per_kwh", "pue", "server_power_w",
                 "server_capex", "infra_capex", "energy_opex",
                 "maintenance_opex", "total", "cost_per_server_year"});
  for (const auto& p : points) {
    csv.add_row({fmt(p.spec.electricity_per_kwh.value), fmt(p.spec.pue),
                 fmt(p.spec.server_avg_power.value),
                 fmt(p.breakdown.server_capex.value),
                 fmt(p.breakdown.infra_capex.value),
                 fmt(p.breakdown.energy_opex.value),
                 fmt(p.breakdown.maintenance_opex.value),
                 fmt(p.breakdown.total().value),
                 fmt(p.cost_per_server_year.value)});
  }
  const auto& cheapest = tco::TcoExplorer::cheapest(points);
  csv.add_row({"cheapest", fmt(cheapest.spec.electricity_per_kwh.value),
               fmt(cheapest.spec.pue), fmt(cheapest.spec.server_avg_power.value),
               fmt(cheapest.breakdown.total().value), "", "", "", ""});
  expect_matches_golden("tco_sweep.csv", csv);
}

TEST(GoldenTraces, ServeCounters) {
  // A fixed-seed serving-layer day: three VMs across two services, a
  // flash crowd, one restore stall and a mid-run VM loss. Pins every
  // serve.* counter the layer publishes plus the latency tail, so a
  // refactor that shifts the Rng consumption order or the queue
  // arithmetic fails here with the exact counter named.
  const hw::ServerNode node(hw::NodeSpec{}, 77);
  serve::ServeConfig config;
  config.enabled = true;
  config.seed = 4242;
  config.requests_per_vcpu_hz = 1.5;
  config.replica_groups = 2;
  serve::ServeLayer layer(config);

  auto make_vm = [](std::uint64_t id, int vcpus, trace::SlaClass sla) {
    trace::VmRequest vm;
    vm.id = id;
    vm.vcpus = vcpus;
    vm.sla = sla;
    vm.workload = *stress::spec_profile("mcf");
    return vm;
  };
  layer.on_vm_placed(make_vm(1, 2, trace::SlaClass::kStandard), &node);
  layer.on_vm_placed(make_vm(2, 1, trace::SlaClass::kCritical), &node);
  layer.on_vm_placed(make_vm(3, 2, trace::SlaClass::kBestEffort), &node);
  layer.inject_burst(Seconds{300.0}, 200);
  for (int tick = 1; tick <= 20; ++tick) {
    if (tick == 5) layer.add_stall(1, Seconds{5 * 60.0}, Seconds{8.0});
    if (tick == 12) layer.on_vm_removed(2);
    layer.advance(Seconds{tick * 60.0}, Seconds{60.0});
  }

  const serve::ServeStats& s = layer.stats();
  CsvWriter csv({"metric", "value"});
  csv.add_row({"generated", std::to_string(s.generated)});
  csv.add_row({"admitted", std::to_string(s.admitted)});
  csv.add_row({"completed", std::to_string(s.completed)});
  csv.add_row({"dropped_overload", std::to_string(s.dropped_overload)});
  csv.add_row({"dropped_unroutable", std::to_string(s.dropped_unroutable)});
  csv.add_row({"dropped_lost", std::to_string(s.dropped_lost)});
  csv.add_row({"slo_violations", std::to_string(s.slo_violations)});
  csv.add_row({"slo_violations_critical",
               std::to_string(s.slo_violations_critical)});
  csv.add_row({"stalls", std::to_string(s.stalls)});
  csv.add_row({"outstanding", std::to_string(layer.outstanding())});
  csv.add_row({"latency_sum_s", fmt(s.latency_sum_s)});
  csv.add_row({"max_latency_s", fmt(s.max_latency_s)});
  csv.add_row({"p50_ms", fmt(layer.latency_percentile_ms(50.0))});
  csv.add_row({"p99_ms", fmt(layer.latency_percentile_ms(99.0))});
  csv.add_row({"p999_ms", fmt(layer.latency_percentile_ms(99.9))});
  expect_matches_golden("serve_counters.csv", csv);

  // The pinned tail is the tail, not the maximum: each reading stays
  // within 1% of the exact nearest-rank value, rank ceil(q/100 * n) of
  // this day's 2,593 sorted raw latencies. The layer keeps no raw
  // samples, so the exact values were computed once from them and are
  // pinned here. Rank n reads the exact maximum.
  for (const auto& [q, exact_ms] : {std::pair{50.0, 44.118507758185},
                                    std::pair{99.0, 51752.515014276752},
                                    std::pair{99.9, 60264.964700236676}}) {
    EXPECT_NEAR(layer.latency_percentile_ms(q), exact_ms, 0.01 * exact_ms)
        << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(layer.latency_percentile_ms(100.0),
                   s.max_latency_s * 1000.0);
}

}  // namespace
}  // namespace uniserver
