// Compiled-kernel sampler: bit-exact equivalence with the interpreted
// netlist on identical randomness, across parameter sets; and the private
// content-addressed kernel cache (warm loads, trust checks, single-flight).

#include <glob.h>
#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/stat.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "ct/bitsliced_sampler.h"
#include "ct/compiled_sampler.h"
#include "prng/chacha20.h"

namespace cgs::ct {
namespace {

class CompiledVsInterpreted : public ::testing::TestWithParam<int> {};

TEST_P(CompiledVsInterpreted, IdenticalBatches) {
  if (!CompiledKernel::is_available())
    GTEST_SKIP() << "no host compiler on this machine";
  const auto params = GetParam() == 0 ? gauss::GaussianParams::sigma_2(128)
                     : GetParam() == 1
                         ? gauss::GaussianParams::sigma_1(64)
                         : gauss::GaussianParams::sigma_6_15543(128);
  const gauss::ProbMatrix m(params);
  BitslicedSampler interp(synthesize(m, {}));
  CompiledBitslicedSampler comp(synthesize(m, {}));
  prng::ChaCha20Source rng_a(9), rng_b(9);
  std::int32_t a[64], b[64];
  for (int batch = 0; batch < 30; ++batch) {
    const auto va = interp.sample_batch(rng_a, a);
    const auto vb = comp.sample_batch(rng_b, b);
    ASSERT_EQ(va, vb);
    for (int i = 0; i < 64; ++i) ASSERT_EQ(a[i], b[i]) << batch << ":" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Params, CompiledVsInterpreted,
                         ::testing::Values(0, 1, 2));

TEST(BufferedCompiled, ServesSamples) {
  if (!CompiledKernel::is_available()) GTEST_SKIP();
  const gauss::ProbMatrix m(gauss::GaussianParams::sigma_2(128));
  BufferedCompiledSampler s(synthesize(m, {}));
  prng::ChaCha20Source rng(4);
  double sum_sq = 0;
  const int k = 20000;
  for (int i = 0; i < k; ++i) {
    const double v = s.sample(rng);
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum_sq / k, 4.0, 0.2);
}

namespace fs = std::filesystem;

// A kernel cache private to one test, under the working directory.
class PrivateCache {
 public:
  PrivateCache() {
    std::string templ = (fs::current_path() / "kernel-cache-XXXXXX").string();
    EXPECT_NE(::mkdtemp(templ.data()), nullptr);
    dir_ = templ;
  }
  ~PrivateCache() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const std::string& dir() const { return dir_; }
  fs::path kernels() const { return fs::path(dir_) / "kernels"; }

  /// Published entries (the content-addressed directories).
  std::vector<fs::path> entries() const {
    std::vector<fs::path> out;
    std::error_code ec;
    for (const auto& e : fs::directory_iterator(kernels(), ec))
      if (e.path().filename().string()[0] != '.') out.push_back(e.path());
    return out;
  }
  fs::path only_entry() const {
    const auto all = entries();
    EXPECT_EQ(all.size(), 1u);
    return all.empty() ? fs::path() : all.front();
  }

 private:
  std::string dir_;
};

SynthesizedSampler small_synth() {
  return synthesize(gauss::ProbMatrix(gauss::GaussianParams::sigma_2(64)), {});
}

// 30 batches from the compiled kernel, asserted equal to the interpreter's
// on identical randomness.
std::vector<std::int32_t> batches_matching_interpreter(
    const SynthesizedSampler& synth,
    std::shared_ptr<const CompiledKernel> kernel) {
  BitslicedSampler interp(synth);
  CompiledBitslicedSampler comp(synth, std::move(kernel));
  prng::ChaCha20Source rng_a(11), rng_b(11);
  std::vector<std::int32_t> all;
  std::int32_t a[64], b[64];
  for (int batch = 0; batch < 30; ++batch) {
    EXPECT_EQ(interp.sample_batch(rng_a, a), comp.sample_batch(rng_b, b));
    for (int i = 0; i < 64; ++i) EXPECT_EQ(a[i], b[i]) << batch << ":" << i;
    all.insert(all.end(), b, b + 64);
  }
  return all;
}

struct Delta {
  KernelCacheStats before = kernel_cache_stats();
  std::uint64_t hits() const { return kernel_cache_stats().hits - before.hits; }
  std::uint64_t compiles() const {
    return kernel_cache_stats().compiles - before.compiles;
  }
};

class KernelCache : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!CompiledKernel::is_available())
      GTEST_SKIP() << "no host compiler on this machine";
  }
  PrivateCache cache_;
  SynthesizedSampler synth_ = small_synth();

  /// Cold-build the kernel, check it, and drop every reference to it.
  std::vector<std::int32_t> build_cold() {
    Delta d;
    auto out = batches_matching_interpreter(
        synth_, CompiledKernel::load(synth_, cache_.dir()));
    EXPECT_EQ(d.compiles(), 1u);
    return out;
  }
  /// Load again after tampering: it must rebuild exactly once and match.
  void expect_rebuilt() {
    Delta d;
    batches_matching_interpreter(synth_,
                                 CompiledKernel::load(synth_, cache_.dir()));
    EXPECT_EQ(d.compiles(), 1u);
    EXPECT_EQ(d.hits(), 0u);
    const fs::path so = cache_.only_entry() / "kernel.so";
    EXPECT_TRUE(fs::is_regular_file(fs::symlink_status(so)));
    EXPECT_EQ(fs::status(so).permissions() &
                  (fs::perms::group_write | fs::perms::others_write),
              fs::perms::none);
  }
};

TEST_F(KernelCache, WarmLoadIsBitIdenticalToColdBuildAndInterpreter) {
  const auto cold = build_cold();
  EXPECT_EQ(fs::status(cache_.kernels()).permissions() & fs::perms::all,
            fs::perms::owner_all);
  Delta d;
  const auto warm = batches_matching_interpreter(
      synth_, CompiledKernel::load(synth_, cache_.dir()));
  EXPECT_EQ(d.compiles(), 0u);
  EXPECT_EQ(d.hits(), 1u);
  EXPECT_EQ(warm, cold);
}

TEST_F(KernelCache, FlippedSoByteIsRejectedAndRebuilt) {
  build_cold();
  const fs::path so = cache_.only_entry() / "kernel.so";
  {
    std::fstream f(so, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(fs::file_size(so) / 2));
    const char c = static_cast<char>(f.get());
    f.seekp(static_cast<std::streamoff>(fs::file_size(so) / 2));
    f.put(static_cast<char>(c ^ 0x40));
  }
  expect_rebuilt();
}

TEST_F(KernelCache, StaleSidecarIsRejectedAndRebuilt) {
  build_cold();
  const fs::path sum = cache_.only_entry() / "kernel.sum";
  std::string text;
  std::getline(std::ifstream(sum), text);
  text[0] = text[0] == '0' ? '1' : '0';  // the .so hash no longer matches
  fs::remove(sum);
  std::ofstream(sum) << text << "\n";
  fs::permissions(sum, fs::perms::owner_read | fs::perms::owner_write);
  expect_rebuilt();
}

TEST_F(KernelCache, GroupWritableSoIsRefused) {
  build_cold();
  fs::permissions(cache_.only_entry() / "kernel.so", fs::perms::group_write,
                  fs::perm_options::add);
  expect_rebuilt();
}

TEST_F(KernelCache, SymlinkedSoIsRefused) {
  build_cold();
  const fs::path so = cache_.only_entry() / "kernel.so";
  // A byte-identical copy behind a symlink: the content would verify, the
  // link itself must not be followed.
  const fs::path elsewhere = fs::path(cache_.dir()) / "elsewhere.so";
  fs::copy_file(so, elsewhere);
  fs::remove(so);
  fs::create_symlink(elsewhere, so);
  expect_rebuilt();
}

TEST_F(KernelCache, NonPrivateKernelDirIsRefused) {
  fs::create_directory(cache_.kernels());
  fs::permissions(cache_.kernels(), fs::perms::owner_all |
                                        fs::perms::group_read |
                                        fs::perms::group_exec |
                                        fs::perms::others_read |
                                        fs::perms::others_exec);
  // The uncached build goes to a private directory under $TMPDIR and is
  // gone once loaded.
  const fs::path tmp = fs::path(cache_.dir()) / "tmp";
  fs::create_directory(tmp);
  const char* old_tmp = std::getenv("TMPDIR");
  const std::string saved = old_tmp ? old_tmp : "";
  ::setenv("TMPDIR", tmp.c_str(), 1);
  for (int round = 0; round < 2; ++round) {
    Delta d;
    batches_matching_interpreter(synth_,
                                 CompiledKernel::load(synth_, cache_.dir()));
    EXPECT_EQ(d.compiles(), 1u) << "round " << round;
  }
  if (old_tmp) ::setenv("TMPDIR", saved.c_str(), 1); else ::unsetenv("TMPDIR");
  EXPECT_TRUE(cache_.entries().empty());
  EXPECT_TRUE(fs::is_empty(tmp));
}

// Two different kernels live in one process, each loaded warm from its
// own cache entry: each must run its own code (a loader deduplicating by
// name would hand the second the first one's handle).
TEST_F(KernelCache, TwoKernelsInOneProcessEachMatchTheirInterpreter) {
  const SynthesizedSampler wide_synth = synthesize(
      gauss::ProbMatrix(gauss::GaussianParams::sigma_6_15543(64)), {});
  for (int round = 0; round < 2; ++round) {
    Delta d;
    auto k2 = CompiledKernel::load(synth_, cache_.dir());
    auto k6 = CompiledKernel::load(wide_synth, cache_.dir());
    EXPECT_NE(k2, k6);
    batches_matching_interpreter(synth_, k2);
    batches_matching_interpreter(wide_synth, k6);
    EXPECT_EQ(d.compiles(), round == 0 ? 2u : 0u);
  }
  EXPECT_EQ(cache_.entries().size(), 2u);
}

TEST_F(KernelCache, ConcurrentColdLoadsCompileOnce) {
  Delta d;
  std::vector<std::shared_ptr<const CompiledKernel>> got(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] { got[t] = CompiledKernel::load(synth_, cache_.dir()); });
  for (auto& th : threads) th.join();
  EXPECT_EQ(d.compiles(), 1u);
  EXPECT_EQ(d.hits(), got.size() - 1);
  for (const auto& k : got) EXPECT_EQ(k, got.front());
  batches_matching_interpreter(synth_, got.front());
}

std::set<std::string> tmp_kernel_files() {
  std::set<std::string> out;
  glob_t g{};
  if (::glob("/tmp/cgs_kernel_*", 0, nullptr, &g) == 0)
    for (std::size_t i = 0; i < g.gl_pathc; ++i) out.insert(g.gl_pathv[i]);
  ::globfree(&g);
  return out;
}

TEST_F(KernelCache, ColdBuildWritesNoTmpKernelFiles) {
  const auto before = tmp_kernel_files();
  build_cold();
  EXPECT_EQ(tmp_kernel_files(), before);
}

}  // namespace
}  // namespace cgs::ct
