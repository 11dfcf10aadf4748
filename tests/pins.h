// Exact-value pins for the byte-identity tests: a run reduces to named
// values, each formatted exactly (doubles as %a, counts as integers, byte
// strings as their FNV-1a hash), and ExpectPins compares them against a
// recorded list. A mismatch prints each differing value plus the run's full
// value list, ready to paste if a change is meant to move it.

#ifndef GMPSVM_TESTS_PINS_H_
#define GMPSVM_TESTS_PINS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/mp_trainer.h"
#include "solver/solver_stats.h"

namespace gmpsvm::testing {

inline uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

class Pins {
 public:
  void Count(const std::string& key, int64_t value) {
    values_[key] = StrPrintf("%lld", static_cast<long long>(value));
  }
  void Real(const std::string& key, double value) {
    values_[key] = StrPrintf("%a", value);
  }
  void Bytes(const std::string& key, const std::string& bytes) {
    values_[key] =
        StrPrintf("%016llx", static_cast<unsigned long long>(Fnv1a(bytes)));
  }
  // The raw bytes of a double array, hashed.
  void Doubles(const std::string& key, const std::vector<double>& values) {
    std::string bytes(values.size() * sizeof(double), '\0');
    if (!values.empty()) std::memcpy(bytes.data(), values.data(), bytes.size());
    Bytes(key, bytes);
  }
  void Phases(const std::string& prefix, const PhaseTimer& phases) {
    for (const auto& [name, seconds] : phases.phases()) {
      Real(prefix + name, seconds);
    }
  }
  void Solver(const std::string& prefix, const SolverStats& stats) {
    Count(prefix + "iterations", stats.iterations);
    Count(prefix + "outer_rounds", stats.outer_rounds);
    Count(prefix + "kernel_rows_computed", stats.kernel_rows_computed);
    Count(prefix + "kernel_rows_reused", stats.kernel_rows_reused);
    Count(prefix + "kernel_row_retries", stats.kernel_row_retries);
    Count(prefix + "alloc_retries", stats.alloc_retries);
    Count(prefix + "rows_poisoned", stats.rows_poisoned);
    Phases(prefix + "phase.", stats.phases);
  }
  void Report(const MpTrainReport& report) {
    Real("sim_seconds", report.sim_seconds);
    Solver("solver.", report.solver);
    Phases("phase.", report.phases);
    Count("kernel_values_computed", report.kernel_values_computed);
    Count("kernel_values_reused", report.kernel_values_reused);
    Count("peak_device_bytes", static_cast<int64_t>(report.peak_device_bytes));
    Count("pair_retries", report.pair_retries);
    Count("pairs_degraded", report.pairs_degraded);
    Count("pairs_resumed", report.pairs_resumed);
  }

  const std::map<std::string, std::string>& values() const { return values_; }

  std::string ToString() const {
    std::string out;
    for (const auto& [key, value] : values_) {
      out += "\"" + key + "=" + value + " \"\n";
    }
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
};

inline void ExpectPins(const std::string& expected, const Pins& actual) {
  std::map<std::string, std::string> want;
  std::istringstream in(expected);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    ASSERT_NE(eq, std::string::npos) << token;
    want[token.substr(0, eq)] = token.substr(eq + 1);
  }
  bool same = true;
  for (const auto& [key, value] : want) {
    const auto it = actual.values().find(key);
    if (it == actual.values().end()) {
      ADD_FAILURE() << key << ": expected " << value << ", missing";
      same = false;
    } else if (it->second != value) {
      ADD_FAILURE() << key << ": expected " << value << ", got " << it->second;
      same = false;
    }
  }
  for (const auto& [key, value] : actual.values()) {
    if (want.count(key) == 0) {
      ADD_FAILURE() << key << ": unexpected, got " << value;
      same = false;
    }
  }
  if (!same) ADD_FAILURE() << "actual values:\n" << actual.ToString();
}

}  // namespace gmpsvm::testing

#endif  // GMPSVM_TESTS_PINS_H_
