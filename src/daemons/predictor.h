// Predictor daemon (paper §3.E).
//
// A machine-learning model that interacts with the HealthLog and
// StressLog to advise the Hypervisor on the best V-F-R mode for the
// current workload: a logistic-regression crash-probability model
// trained on shmoo outcomes (offline) and refreshed from runtime
// observations (online SGD), plus a mode-selection routine that picks
// the most energy-efficient candidate EOP whose predicted crash risk
// stays inside the SLA's risk budget.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "hwmodel/chip.h"
#include "hwmodel/eop.h"
#include "hwmodel/workload_signature.h"
#include "stress/shmoo.h"

namespace uniserver::daemons {

/// Feature vector of an operating condition.
struct PredictorFeatures {
  double undervolt_percent{0.0};  ///< % below nominal VID
  double freq_ratio{1.0};         ///< f / f_nominal
  double didt_stress{0.0};
  double activity{0.0};
  double temp_c{25.0};

  static constexpr std::size_t kDim = 5;
  std::array<double, kDim> normalized() const;
};

/// One labelled observation (condition -> crashed or survived).
struct PredictorSample {
  PredictorFeatures features;
  bool crashed{false};
};

/// Execution modes the Predictor advises (paper §3: "possible execution
/// modes (e.g. high-performance or low-power)").
enum class ExecutionMode { kNominal, kHighPerformance, kLowPower };

const char* to_string(ExecutionMode mode);

class Predictor {
 public:
  Predictor();

  /// Mini-batch SGD training with L2 regularization.
  void train(const std::vector<PredictorSample>& samples, int epochs,
             double learning_rate, Rng& rng);

  /// P(crash) for a condition.
  double crash_probability(const PredictorFeatures& features) const;

  /// Classification accuracy on a labelled set.
  double accuracy(const std::vector<PredictorSample>& samples) const;

  /// Online update from a single runtime observation.
  void observe(const PredictorSample& sample, double learning_rate);

  /// Builds a labelled training set from a shmoo campaign: every
  /// (workload, core, offset) grid point below/above the measured crash
  /// offset becomes a survive/crash sample.
  static std::vector<PredictorSample> samples_from_campaign(
      const std::vector<stress::WorkloadSummary>& campaign,
      MegaHertz freq, MegaHertz freq_nominal,
      const std::vector<hw::WorkloadSignature>& suite,
      double grid_step_percent = 0.5);

  /// Picks the candidate EOP with the lowest predicted energy whose
  /// crash probability stays below `risk_budget`. Falls back to the
  /// nominal point when nothing qualifies.
  struct Advice {
    hw::Eop eop;
    ExecutionMode mode{ExecutionMode::kNominal};
    double predicted_crash_probability{0.0};
    double predicted_power_w{0.0};
  };
  Advice advise(const hw::Chip& chip, const hw::WorkloadSignature& w,
                const std::vector<hw::Eop>& candidates,
                double risk_budget) const;

 private:
  /// weights_[0] is the bias.
  std::array<double, PredictorFeatures::kDim + 1> weights_{};
  double l2_{1e-4};
};

}  // namespace uniserver::daemons
