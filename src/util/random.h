// Deterministic random number generation for data generation and sampling.
//
// All randomized components of the library take an explicit Rng so that
// experiments are reproducible from a seed.

#ifndef PDD_UTIL_RANDOM_H_
#define PDD_UTIL_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

namespace pdd {

/// Seedable pseudo-random generator wrapping a fixed engine
/// (mt19937_64) so sequences are stable across platforms.
class Rng {
 public:
  /// Constructs with the given seed; equal seeds yield equal sequences.
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double Uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n). n must be > 0.
  size_t Index(size_t n) {
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Normally distributed double.
  double Gaussian(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Zipf-distributed index in [0, n) with skew `s` (s=0 is uniform).
  /// Uses inverse-CDF over precomputed weights; intended for modest n.
  size_t Zipf(size_t n, double s);

  /// Samples an index from unnormalized non-negative weights.
  /// Returns 0 when all weights are zero.
  size_t Discrete(const std::vector<double>& weights);

  /// Geometric number of trials until first success (>= 0 failures).
  int Geometric(double p) {
    return std::geometric_distribution<int>(p)(engine_);
  }

  /// Poisson-distributed count with the given mean; 0 when the mean is
  /// not positive. std::poisson_distribution requires mean > 0. Given
  /// mean 0, libstdc++'s small-mean loop returns 0 after exactly one
  /// engine draw; this path keeps that draw, so the random stream (and
  /// every generated dataset) stays the same.
  int Poisson(double mean) {
    if (!(mean > 0.0)) {
      engine_.discard(1);
      return 0;
    }
    return std::poisson_distribution<int>(mean)(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[Index(i)]);
    }
  }

  /// Access to the underlying engine for standard distributions.
  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace pdd

#endif  // PDD_UTIL_RANDOM_H_
