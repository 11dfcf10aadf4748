// Deterministic random number generation. Every stochastic component in the
// library takes an explicit seed and derives its streams from this class, so
// all experiments are reproducible bit-for-bit across runs.

#ifndef GMPSVM_COMMON_RNG_H_
#define GMPSVM_COMMON_RNG_H_

#include <cstdint>
#include <random>
#include <vector>

namespace gmpsvm {

// One SplitMix64 step: spreads `x` into a well-mixed 64-bit value, so
// adjacent inputs give unrelated seeds.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// A seeded PRNG wrapper (xoshiro-quality via std::mt19937_64) with the
// sampling helpers the data generators need.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  // Uniform in [0, 1).
  double Uniform() { return uniform_(engine_); }

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

  // Uniform integer in [0, n). Precondition: n > 0.
  uint64_t UniformInt(uint64_t n) {
    return std::uniform_int_distribution<uint64_t>(0, n - 1)(engine_);
  }

  // Standard normal.
  double Normal() { return normal_(engine_); }

  // Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) { return mean + stddev * Normal(); }

  // Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  // Derives an independent child generator; `stream` distinguishes children
  // created from the same parent.
  Rng Fork(uint64_t stream) {
    // SplitMix64 finalizer over (state sample, stream id) decorrelates
    // children even for adjacent stream ids.
    uint64_t x = engine_() ^ (stream * 0x9E3779B97F4A7C15ull);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return Rng(x);
  }

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(i));
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace gmpsvm

#endif  // GMPSVM_COMMON_RNG_H_
