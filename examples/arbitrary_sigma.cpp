// Sampling at arbitrary (sigma, c): plan a convolution recipe for targets
// no synthesized configuration covers, serve them in batch through
// GaussianService, and verify each batch against the design distribution
// (chi-square) and the ideal Gaussian (Renyi).
//
// Run it twice: the first run synthesizes the chosen base samplers and
// compiles their kernels (both cached on disk), the second starts warm.
// With --require-warm the run fails unless it compiled no kernel and
// started no child process (a warm start never runs the host compiler).

#include <sys/resource.h>

#include <cstdio>
#include <cstring>

#include "ct/compiled_sampler.h"
#include "engine/service.h"
#include "gauss/probmatrix.h"
#include "stats/acceptance.h"

int main(int argc, char** argv) {
  using namespace cgs;
  const bool require_warm =
      argc > 1 && std::strcmp(argv[1], "--require-warm") == 0;

  engine::GaussianService service(engine::SamplerRegistry::global(),
                                  {.num_threads = 2, .root_seed = 2019});

  // Targets chosen to resolve to small bases (sub-second synthesis) so the
  // demo stays snappy; bigger targets work the same way, they just pay a
  // longer one-time synthesis for their ladder rung (cached afterwards).
  struct Target {
    double sigma, center;
  };
  const Target targets[] = {{271.4, 0.5}, {42.0, -3.25}, {7.3, 0.25}};

  for (const Target& t : targets) {
    const gauss::ConvolutionRecipe recipe = service.plan(t.sigma, t.center);
    std::printf("%s\n", recipe.describe().c_str());

    const auto samples = service.sample(t.sigma, t.center, 200000);
    double mean = 0;
    for (auto x : samples) mean += x;
    mean /= static_cast<double>(samples.size());

    const gauss::ProbMatrix base(recipe.base);
    const auto acc = stats::accept_convolution(samples, base, recipe);
    std::printf("  200000 samples: mean %.3f (target %.3f) -> %s\n\n", mean,
                t.center, acc.describe().c_str());
    if (!acc.accepted()) return 1;
  }
  const ct::KernelCacheStats kernels = ct::kernel_cache_stats();
  std::printf("kernel cache: hits=%llu compiles=%llu\n",
              static_cast<unsigned long long>(kernels.hits),
              static_cast<unsigned long long>(kernels.compiles));
  // Any child process this run waited for leaves a non-zero peak RSS here.
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  std::printf("child processes: %s\n", children.ru_maxrss ? "some" : "none");
  if (require_warm && (kernels.compiles != 0 || children.ru_maxrss != 0)) {
    std::printf("FAIL: a warm run must compile nothing and start no child "
                "process\n");
    return 1;
  }
  return 0;
}
