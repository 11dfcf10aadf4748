// Drift detection over served probabilities (ROADMAP item 4).
//
// The fleet serves calibrated class probabilities; when the data drifts, the
// first observable casualty is probability quality, not accuracy (Zeng &
// Zhang — monitor class-probability estimates, not raw labels). The detector
// keeps a rolling window of (served probabilities, delayed true label) pairs,
// maintains the windowed Brier score and log loss incrementally, publishes
// them as gmpsvm_drift_* gauges, and arms a retrain when the windowed Brier
// score crosses its threshold.
//
// Everything is a pure function of the observation sequence: the same served
// responses in the same order produce the same windowed metrics, armed
// transitions, and counters on any topology, which is what lets the retrain
// daemon claim end-to-end determinism.

#ifndef GMPSVM_ONLINE_DRIFT_H_
#define GMPSVM_ONLINE_DRIFT_H_

#include <cstdint>
#include <deque>
#include <span>

#include "common/status.h"
#include "obs/metrics.h"

namespace gmpsvm::online {

struct DriftOptions {
  // Rolling window size in labeled responses; older observations slide out.
  int64_t window = 256;

  // Observations required before the detector may arm (a near-empty window
  // is noise, not signal).
  int64_t min_observations = 64;

  // Arm when the windowed Brier score reaches this value. Brier ranges
  // [0, 2]; a k-class uniform predictor scores (k-1)/k.
  double brier_threshold = 0.5;

  // Optional registry for the gmpsvm_drift_* series; nullptr disables.
  obs::MetricsRegistry* metrics = nullptr;

  // kInvalidArgument naming the offending field, or OK.
  Status Validate() const;
};

class DriftDetector {
 public:
  DriftDetector(int num_classes, const DriftOptions& options);

  DriftDetector(const DriftDetector&) = delete;
  DriftDetector& operator=(const DriftDetector&) = delete;

  // Records one served response against its delayed true label.
  // `probabilities` holds the k coupled class probabilities the fleet
  // answered with. Updates the windowed metrics and the armed state.
  void Observe(std::span<const double> probabilities, int32_t truth);

  // Windowed metrics (0 while the window is empty).
  double WindowBrier() const;
  double WindowLogLoss() const;
  int64_t window_size() const { return static_cast<int64_t>(window_.size()); }
  int64_t total_observed() const { return total_observed_; }

  // Whether a threshold crossing has armed a retrain. Stays armed until
  // Disarm() (called by the daemon once a retrain round resolves).
  bool armed() const { return armed_; }
  int64_t times_armed() const { return times_armed_; }

  // Clears the armed flag and the window: after a hot-swap the old model's
  // served responses say nothing about the new one.
  void Disarm();

 private:
  struct Observation {
    double brier = 0.0;
    double log_loss = 0.0;
  };

  void PublishLocked();

  int num_classes_;
  DriftOptions options_;

  std::deque<Observation> window_;
  double brier_sum_ = 0.0;
  double log_loss_sum_ = 0.0;
  int64_t total_observed_ = 0;
  bool armed_ = false;
  int64_t times_armed_ = 0;

  obs::Gauge* brier_gauge_ = nullptr;
  obs::Gauge* log_loss_gauge_ = nullptr;
  obs::Gauge* window_gauge_ = nullptr;
  obs::Gauge* armed_gauge_ = nullptr;
  obs::Counter* armed_counter_ = nullptr;
};

}  // namespace gmpsvm::online

#endif  // GMPSVM_ONLINE_DRIFT_H_
