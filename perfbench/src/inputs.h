#pragma once
// Seeded input generation: everything a workload feeds the library
// (keys, messages, targets, arrival times) derives from --seed through
// these helpers, so the same seed gives the same inputs. Inputs are made
// before any timed region.

#include <cstdint>
#include <string>
#include <vector>

#include "falcon/keygen.h"
#include "prng/splitmix.h"

namespace perfbench {

/// An independent stream for one purpose (`stream`) under the run seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Uniform double in [0, 1).
inline double uniform01(cgs::prng::SplitMix64Source& rng) {
  return static_cast<double>(rng.next_word() >> 11) * 0x1.0p-53;
}

/// `count` Falcon key pairs at degree `n`, generated on up to `threads`
/// threads. keygen_ms[i] is key i's generation time.
struct Keys {
  std::vector<cgs::falcon::KeyPair> pairs;
  std::vector<double> keygen_ms;
};
Keys make_keys(std::uint64_t seed, std::size_t count, std::size_t n,
               int threads);

/// A message of 16 to 200 printable bytes.
std::string make_message(cgs::prng::SplitMix64Source& rng);

/// The same message with one byte changed: a valid signature over the
/// original must not verify over it.
std::string tamper(std::string message, cgs::prng::SplitMix64Source& rng);

/// Open-loop Poisson arrival offsets in seconds, at `rate` per second,
/// covering [0, seconds).
std::vector<double> poisson_arrivals(cgs::prng::SplitMix64Source& rng,
                                     double rate, double seconds);

}  // namespace perfbench
