#include "online/drift.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace gmpsvm::online {

Status DriftOptions::Validate() const {
  if (window < 1) {
    return Status::InvalidArgument(
        StrPrintf("window must be >= 1, got %lld",
                  static_cast<long long>(window)));
  }
  if (min_observations < 1 || min_observations > window) {
    return Status::InvalidArgument(StrPrintf(
        "min_observations must be in [1, window], got %lld",
        static_cast<long long>(min_observations)));
  }
  if (!(brier_threshold >= 0.0)) {
    return Status::InvalidArgument(StrPrintf(
        "brier_threshold must be >= 0, got %g", brier_threshold));
  }
  return Status::OK();
}

DriftDetector::DriftDetector(int num_classes, const DriftOptions& options)
    : num_classes_(num_classes), options_(options) {
  if (options_.metrics != nullptr) {
    brier_gauge_ = options_.metrics->GetGauge(
        "gmpsvm_drift_brier", "Windowed Brier score of served responses "
        "against delayed labels.");
    log_loss_gauge_ = options_.metrics->GetGauge(
        "gmpsvm_drift_log_loss", "Windowed log loss of served responses "
        "against delayed labels.");
    window_gauge_ = options_.metrics->GetGauge(
        "gmpsvm_drift_window", "Labeled responses currently in the drift "
        "window.");
    armed_gauge_ = options_.metrics->GetGauge(
        "gmpsvm_drift_armed", "1 while a drift-triggered retrain is armed.");
    armed_counter_ = options_.metrics->GetCounter(
        "gmpsvm_drift_armed_total", "Drift threshold crossings that armed a "
        "retrain.");
    PublishLocked();
  }
}

void DriftDetector::Observe(std::span<const double> probabilities,
                            int32_t truth) {
  // Clamp mirrors metrics/calibration.cc so the windowed log loss agrees
  // with LogLoss() over the same responses.
  constexpr double kEps = 1e-15;
  Observation obs;
  for (int c = 0; c < num_classes_; ++c) {
    const double p = probabilities[static_cast<size_t>(c)];
    const double target = (c == truth) ? 1.0 : 0.0;
    obs.brier += (p - target) * (p - target);
  }
  const double p_truth =
      truth >= 0 && truth < num_classes_
          ? std::max(probabilities[static_cast<size_t>(truth)], kEps)
          : kEps;
  obs.log_loss = -std::log(p_truth);

  window_.push_back(obs);
  brier_sum_ += obs.brier;
  log_loss_sum_ += obs.log_loss;
  ++total_observed_;
  while (static_cast<int64_t>(window_.size()) > options_.window) {
    brier_sum_ -= window_.front().brier;
    log_loss_sum_ -= window_.front().log_loss;
    window_.pop_front();
  }

  if (!armed_ &&
      static_cast<int64_t>(window_.size()) >= options_.min_observations &&
      WindowBrier() >= options_.brier_threshold) {
    armed_ = true;
    ++times_armed_;
    if (armed_counter_ != nullptr) armed_counter_->Increment();
  }
  PublishLocked();
}

double DriftDetector::WindowBrier() const {
  return window_.empty() ? 0.0
                         : brier_sum_ / static_cast<double>(window_.size());
}

double DriftDetector::WindowLogLoss() const {
  return window_.empty() ? 0.0
                         : log_loss_sum_ / static_cast<double>(window_.size());
}

void DriftDetector::Disarm() {
  armed_ = false;
  window_.clear();
  brier_sum_ = 0.0;
  log_loss_sum_ = 0.0;
  PublishLocked();
}

void DriftDetector::PublishLocked() {
  if (brier_gauge_ != nullptr) brier_gauge_->Set(WindowBrier());
  if (log_loss_gauge_ != nullptr) log_loss_gauge_->Set(WindowLogLoss());
  if (window_gauge_ != nullptr) {
    window_gauge_->Set(static_cast<double>(window_.size()));
  }
  if (armed_gauge_ != nullptr) armed_gauge_->Set(armed_ ? 1.0 : 0.0);
}

}  // namespace gmpsvm::online
