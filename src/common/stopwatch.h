// Wall-clock stopwatch and a phase-accumulating timer used by the trainers
// and predictors to attribute elapsed time to pipeline components (kernel
// values / subproblem / rest, etc. — Figures 11 and 12 of the paper).

#ifndef GMPSVM_COMMON_STOPWATCH_H_
#define GMPSVM_COMMON_STOPWATCH_H_

#include <chrono>
#include <map>
#include <string>

namespace gmpsvm {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Accumulates named durations. Not thread-safe; intended for a single
// pipeline driver thread.
class PhaseTimer {
 public:
  // Adds `seconds` to the named phase.
  void Add(const std::string& phase, double seconds) { phases_[phase] += seconds; }

  double Get(const std::string& phase) const {
    auto it = phases_.find(phase);
    return it == phases_.end() ? 0.0 : it->second;
  }

  double Total() const {
    double t = 0.0;
    for (const auto& [name, secs] : phases_) t += secs;
    return t;
  }

  const std::map<std::string, double>& phases() const { return phases_; }

  void Clear() { phases_.clear(); }

  // Merges another timer's phases into this one.
  void Merge(const PhaseTimer& other) {
    for (const auto& [name, secs] : other.phases_) phases_[name] += secs;
  }

 private:
  std::map<std::string, double> phases_;
};

}  // namespace gmpsvm

#endif  // GMPSVM_COMMON_STOPWATCH_H_
