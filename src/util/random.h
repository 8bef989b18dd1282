// Deterministic pseudo-random number generation for deepcrawl.
//
// All experiment randomness flows through Pcg32 generators seeded
// explicitly by the harness, so every run is reproducible bit-for-bit.
// PCG32 (O'Neill, 2014) is small, fast, and has good statistical quality.

#ifndef DEEPCRAWL_UTIL_RANDOM_H_
#define DEEPCRAWL_UTIL_RANDOM_H_

#include <cstdint>

#include "src/util/logging.h"

namespace deepcrawl {

// 32-bit permuted congruential generator.
class Pcg32 {
 public:
  // Seeds the generator. Distinct (seed, stream) pairs give independent
  // sequences.
  explicit Pcg32(uint64_t seed = 0x853c49e6748fea9bULL,
                 uint64_t stream = 0xda3e39cb94b95bdbULL) {
    state_ = 0;
    inc_ = (stream << 1u) | 1u;
    NextU32();
    state_ += seed;
    NextU32();
  }

  // Uniform 32-bit value.
  uint32_t NextU32() {
    uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    uint32_t xorshifted =
        static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
    uint32_t rot = static_cast<uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  // Uniform 64-bit value.
  uint64_t NextU64() {
    return (static_cast<uint64_t>(NextU32()) << 32) | NextU32();
  }

  // Uniform integer in [0, bound). `bound` must be positive. Uses
  // rejection sampling to avoid modulo bias.
  uint32_t NextBounded(uint32_t bound) {
    DEEPCRAWL_DCHECK(bound > 0) << "NextBounded requires positive bound";
    uint32_t threshold = (0u - bound) % bound;
    for (;;) {
      uint32_t r = NextU32();
      if (r >= threshold) return r % bound;
    }
  }

  // Uniform double in [0, 1), with full 53-bit mantissa resolution.
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  // Bernoulli trial with success probability p.
  bool NextBool(double p) { return NextDouble() < p; }

 private:
  uint64_t state_;
  uint64_t inc_;
};

}  // namespace deepcrawl

#endif  // DEEPCRAWL_UTIL_RANDOM_H_
