#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "harness.h"
#include "prng/chacha20.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  cgs::prng::SplitMix64Source mix(seed ^ (stream * 0x9e3779b97f4a7c15ull));
  mix.next_word();
  return mix.next_word();
}

Keys make_keys(std::uint64_t seed, std::size_t count, std::size_t n,
               int threads) {
  Keys keys;
  keys.pairs.resize(count);
  keys.keygen_ms.resize(count);
  const auto params = cgs::falcon::FalconParams::for_degree(n);
  std::vector<std::thread> pool;
  const std::size_t t = std::max<std::size_t>(
      1, std::min<std::size_t>(count, static_cast<std::size_t>(threads)));
  for (std::size_t w = 0; w < t; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t i = w; i < count; i += t) {
        cgs::prng::ChaCha20Source rng(derive_seed(seed, 0x4B45590000ull + i));
        const auto t0 = Clock::now();
        keys.pairs[i] = cgs::falcon::keygen(params, rng);
        keys.keygen_ms[i] = ms_between(t0, Clock::now());
      }
    });
  }
  for (auto& th : pool) th.join();
  return keys;
}

std::string make_message(cgs::prng::SplitMix64Source& rng) {
  const std::size_t len = 16 + rng.next_word() % 185;
  std::string m(len, ' ');
  for (char& c : m) c = static_cast<char>(' ' + rng.next_word() % 95);
  return m;
}

std::string tamper(std::string message, cgs::prng::SplitMix64Source& rng) {
  const std::size_t i = rng.next_word() % message.size();
  message[i] = static_cast<char>(message[i] == 'x' ? 'y' : 'x');
  return message;
}

std::vector<double> poisson_arrivals(cgs::prng::SplitMix64Source& rng,
                                     double rate, double seconds) {
  std::vector<double> at;
  double t = 0;
  for (;;) {
    t += -std::log1p(-uniform01(rng)) / rate;
    if (t >= seconds) return at;
    at.push_back(t);
  }
}

}  // namespace perfbench
