#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace fdb {

Rng::Rng(uint64_t seed) {
  // splitmix64 expansion of the seed into two non-zero state words.
  auto splitmix = [](uint64_t& x) {
    x += 0x9E3779B97f4A7C15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  uint64_t x = seed;
  s0_ = splitmix(x);
  s1_ = splitmix(x);
  if (s0_ == 0 && s1_ == 0) s1_ = 1;
}

uint64_t Rng::Next() {
  uint64_t x = s0_;
  const uint64_t y = s1_;
  s0_ = y;
  x ^= x << 23;
  s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
  return s1_ + y;
}

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  FDB_CHECK(lo <= hi);
  // Both the span and the offset are computed in uint64_t: in int64_t,
  // hi - lo overflows for ranges wider than INT64_MAX, and so does lo plus
  // an offset past it. Wrapping arithmetic gives the same draws for every
  // range that does not overflow.
  const uint64_t base = static_cast<uint64_t>(lo);
  const uint64_t span = static_cast<uint64_t>(hi) - base + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  // Rejection sampling to avoid modulo bias.
  uint64_t limit = ~uint64_t{0} - (~uint64_t{0} % span);
  uint64_t r;
  do {
    r = Next();
  } while (r >= limit);
  return static_cast<int64_t>(base + r % span);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

ZipfSampler::ZipfSampler(int64_t n, double alpha) : n_(n), alpha_(alpha) {
  FDB_CHECK(n >= 1);
  FDB_CHECK(alpha > 0.0);
  cdf_.resize(static_cast<size_t>(n));
  double sum = 0.0;
  for (int64_t k = 1; k <= n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k), alpha);
    cdf_[static_cast<size_t>(k - 1)] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

int64_t ZipfSampler::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<int64_t>(it - cdf_.begin()) + 1;
}

}  // namespace fdb
