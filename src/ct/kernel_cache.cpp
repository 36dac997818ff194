#include "ct/kernel_cache.h"

#include <dlfcn.h>
#include <fcntl.h>
#include <spawn.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#else
#include <sys/auxv.h>
#endif

#include "common/check.h"
#include "serial/serial.h"

extern char** environ;

namespace cgs::ct::kernel_cache {

namespace {

// The kernel is compiled on the host it runs on — exactly the case
// -march=native exists for (the wide form roughly doubles on AVX2).
// Fallback ladder: native with the 256-lane form -> generic with it ->
// scalar-only source (a host compiler without GCC vector extensions
// rejects the wide function; the 64-lane kernel must still serve).
// "{so}" and "{c}" stand for the build directory's output and source.
struct Rung {
  bool wide;
  std::vector<std::string> args;
};
const std::vector<Rung>& ladder() {
  static const std::vector<Rung> rungs = {
      {true, {"-march=native", "-O2", "-shared", "-fPIC", "-w", "-o", "{so}", "{c}"}},
      {true, {"-O2", "-shared", "-fPIC", "-w", "-o", "{so}", "{c}"}},
      {false, {"-O2", "-shared", "-fPIC", "-w", "-o", "{so}", "{c}"}},
  };
  return rungs;
}

constexpr const char* kSo = "kernel.so";
constexpr const char* kSum = "kernel.sum";
constexpr const char* kSrc = "kernel.c";

struct Fd {
  int fd = -1;
  explicit Fd(int f) : fd(f) {}
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t hash_of(std::string_view s) {
  return serial::hash64(std::span(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

// Feature bits -march=native reads. Leaf 1's EBX is left out: it carries
// the APIC id of whichever core ran this thread.
std::string cpu_features() {
  std::string out;
  const auto put = [&out](unsigned v) { out += hex64(v) + " "; };
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(0, &a, &b, &c, &d)) {
    put(a), put(b), put(c), put(d);
    bool osxsave = false;
    if (__get_cpuid(1, &a, &b, &c, &d)) {
      put(a), put(c), put(d);
      osxsave = (c >> 27) & 1u;
    }
    if (__get_cpuid_count(7, 0, &a, &b, &c, &d)) put(b), put(c), put(d);
    if (__get_cpuid_count(7, 1, &a, &b, &c, &d)) put(a);
    if (__get_cpuid(0x80000001u, &a, &b, &c, &d)) put(c), put(d);
    if (osxsave) {
      unsigned lo = 0, hi = 0;
      __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
      put(lo), put(hi);
    }
  }
#else
  put(static_cast<unsigned>(getauxval(AT_HWCAP)));
  put(static_cast<unsigned>(getauxval(AT_HWCAP) >> 32));
#ifdef AT_HWCAP2
  put(static_cast<unsigned>(getauxval(AT_HWCAP2)));
#endif
#endif
  return out;
}

std::string ladder_text() {
  std::string out;
  for (const Rung& r : ladder()) {
    out += r.wide ? "wide:" : "scalar:";
    for (const std::string& a : r.args) out += " " + a;
    out += "\n";
  }
  return out;
}

// Trusted = nobody but the effective uid can have changed it.
bool trusted(const struct stat& st) {
  return st.st_uid == ::geteuid() && (st.st_mode & (S_IWGRP | S_IWOTH)) == 0;
}

/// kernels/ under `cache_dir`, created 0700 on first use; empty when the
/// directory is not private to this uid (a symlink, someone else's, or
/// open to group/other).
std::string private_kernel_dir(const std::string& cache_dir) {
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  const std::string dir = cache_dir + "/kernels";
  if (::mkdir(dir.c_str(), 0700) != 0 && errno != EEXIST) return {};
  struct stat st;
  if (::lstat(dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode) ||
      st.st_uid != ::geteuid() || (st.st_mode & 077) != 0)
    return {};
  return dir;
}

// Runs the compiler without a shell, with TMPDIR pointing into the build
// directory so its intermediate files never land in a shared /tmp.
bool run_compiler(const HostCompiler& cc, const std::vector<std::string>& args,
                  const std::string& tmpdir, bool quiet) {
  std::vector<std::string> env_strings;
  for (char** e = environ; e && *e; ++e)
    if (std::strncmp(*e, "TMPDIR=", 7) != 0) env_strings.emplace_back(*e);
  env_strings.push_back("TMPDIR=" + tmpdir);
  std::vector<char*> envp;
  for (auto& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);

  std::vector<std::string> argv_strings{cc.path};
  argv_strings.insert(argv_strings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& s : argv_strings) argv.push_back(s.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  if (quiet)
    posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, cc.path.c_str(), &actions, nullptr,
                               argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return false;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void write_private(const std::string& path,
                   std::initializer_list<std::string_view> parts) {
  const Fd fd(::open(path.c_str(),
                     O_WRONLY | O_CREAT | O_EXCL | O_NOFOLLOW | O_CLOEXEC,
                     0600));
  CGS_CHECK_MSG(fd.fd >= 0, "kernel cache: cannot create " << path);
  for (std::string_view bytes : parts) {
    while (!bytes.empty()) {
      const ssize_t n = ::write(fd.fd, bytes.data(), bytes.size());
      if (n < 0 && errno == EINTR) continue;
      CGS_CHECK_MSG(n > 0, "kernel cache: cannot write " << path);
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
  }
}

/// hash64 of a file's bytes, read through a private read-only mapping.
std::optional<std::uint64_t> hash_mapped(int fd, std::size_t size) {
  void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (p == MAP_FAILED) return std::nullopt;
  const std::uint64_t h =
      serial::hash64(std::span(static_cast<const std::uint8_t*>(p), size));
  ::munmap(p, size);
  return h;
}

/// Compiles `source` into `dir`/kernel.so down the ladder, leaving only
/// kernel.so (0700) and, when `sum_key` is set, the kernel.sum sidecar.
/// Returns the compile wall time in ms; throws if every rung fails.
double compile_into(const std::string& dir, const Source& source,
                    const HostCompiler& cc, const Key* sum_key) {
  const std::string c_path = dir + "/" + kSrc;
  const std::string so_path = dir + "/" + kSo;
  const auto t0 = std::chrono::steady_clock::now();
  bool ok = false;
  const auto& rungs = ladder();
  for (std::size_t i = 0; i < rungs.size() && !ok; ++i) {
    if (i == 0 || rungs[i].wide != rungs[i - 1].wide) {
      ::unlink(c_path.c_str());
      if (rungs[i].wide)
        write_private(c_path, {source.scalar, "\n", source.wide});
      else
        write_private(c_path, {source.scalar});
    }
    std::vector<std::string> args = rungs[i].args;
    for (std::string& a : args) {
      if (a == "{so}") a = so_path;
      if (a == "{c}") a = c_path;
    }
    // The last rung is the one whose diagnostics are worth seeing.
    ok = run_compiler(cc, args, dir, /*quiet=*/i + 1 < rungs.size());
  }
  ::unlink(c_path.c_str());
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  CGS_CHECK_MSG(ok, "kernel compilation failed");
  CGS_CHECK_MSG(::chmod(so_path.c_str(), 0700) == 0,
                "kernel cache: cannot chmod " << so_path);
  if (sum_key) {
    const Fd fd(::open(so_path.c_str(), O_RDONLY | O_NOFOLLOW | O_CLOEXEC));
    struct stat st;
    CGS_CHECK_MSG(fd.fd >= 0 && ::fstat(fd.fd, &st) == 0 && st.st_size > 0,
                  "kernel cache: compiled kernel unreadable");
    const auto h = hash_mapped(fd.fd, static_cast<std::size_t>(st.st_size));
    CGS_CHECK_MSG(h.has_value(), "kernel cache: cannot map compiled kernel");
    write_private(dir + "/" + kSum,
                  {hex64(*h) + " " + hex64(sum_key->check) + "\n"});
  }
  return ms;
}

enum class Verdict { kLoaded, kMissing, kRejected, kUnloadable };

/// Opens the entry at `entry` only if every trust check passes.
Verdict load_entry(const std::string& entry, const Key& key, void** handle) {
  const Fd dir(::open(entry.c_str(),
                      O_RDONLY | O_DIRECTORY | O_NOFOLLOW | O_CLOEXEC));
  if (dir.fd < 0) return errno == ENOENT ? Verdict::kMissing : Verdict::kRejected;
  struct stat st;
  if (::fstat(dir.fd, &st) != 0 || !trusted(st)) return Verdict::kRejected;

  char sum[64] = {};
  {
    const Fd fd(::openat(dir.fd, kSum, O_RDONLY | O_NOFOLLOW | O_CLOEXEC));
    if (fd.fd < 0 || ::fstat(fd.fd, &st) != 0 || !S_ISREG(st.st_mode) ||
        !trusted(st) || ::read(fd.fd, sum, sizeof sum - 1) <= 0)
      return Verdict::kRejected;
  }
  unsigned long long want_so = 0, want_check = 0;
  if (std::sscanf(sum, "%16llx %16llx", &want_so, &want_check) != 2 ||
      want_check != key.check)
    return Verdict::kRejected;

  const Fd so(::openat(dir.fd, kSo, O_RDONLY | O_NOFOLLOW | O_CLOEXEC));
  if (so.fd < 0 || ::fstat(so.fd, &st) != 0 || !S_ISREG(st.st_mode) ||
      !trusted(st) || st.st_size <= 0 ||
      hash_mapped(so.fd, static_cast<std::size_t>(st.st_size)) !=
          std::optional<std::uint64_t>(want_so))
    return Verdict::kRejected;

  // dlopen by the content-addressed name (never /proc/self/fd/N: the loader
  // deduplicates by name, which would hand a second kernel the first one's
  // handle), then make sure the name still denotes the file just checked.
  const std::string so_path = entry + "/" + kSo;
  void* h = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (h == nullptr) return Verdict::kUnloadable;
  struct stat after;
  if (::stat(so_path.c_str(), &after) != 0 || after.st_dev != st.st_dev ||
      after.st_ino != st.st_ino) {
    ::dlclose(h);
    return Verdict::kRejected;
  }
  *handle = h;
  return Verdict::kLoaded;
}

/// dlopen()s `dir`/kernel.so, then deletes `dir`: the mapping outlives
/// the file, and nothing is left behind for anyone to swap.
void* load_and_remove(const std::string& dir) {
  void* h = ::dlopen((dir + "/" + kSo).c_str(), RTLD_NOW | RTLD_LOCAL);
  const char* why = h ? nullptr : ::dlerror();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  CGS_CHECK_MSG(h != nullptr, "dlopen failed: " << (why ? why : "?"));
  return h;
}

Loaded build_uncached(const Source& source, const HostCompiler& cc) {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp && *tmp ? tmp : "/tmp") +
                    "/cgs-kernel-XXXXXX";
  CGS_CHECK_MSG(::mkdtemp(dir.data()) != nullptr,
                "kernel cache: cannot create a private build directory");
  Loaded out;
  try {
    out.compile_ms = compile_into(dir, source, cc, /*sum_key=*/nullptr);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    throw;
  }
  out.compiles = 1;
  out.handle = load_and_remove(dir);
  return out;
}

}  // namespace

std::optional<HostCompiler> find_host_compiler() {
  const auto probe = [](const std::string& candidate)
      -> std::optional<HostCompiler> {
    char resolved[PATH_MAX];
    struct stat st;
    if (::access(candidate.c_str(), X_OK) != 0 ||
        ::realpath(candidate.c_str(), resolved) == nullptr ||
        ::stat(resolved, &st) != 0 || !S_ISREG(st.st_mode))
      return std::nullopt;
    return HostCompiler{
        candidate, std::string(resolved) + " " + std::to_string(st.st_size) +
                       " " + std::to_string(st.st_mtim.tv_sec) + "." +
                       std::to_string(st.st_mtim.tv_nsec)};
  };
  const char* path_env = std::getenv("PATH");
  const std::string_view path = path_env ? path_env : "/usr/bin:/bin";
  for (const char* name : {"cc", "gcc"}) {
    for (std::size_t begin = 0; begin <= path.size();) {
      std::size_t end = path.find(':', begin);
      if (end == std::string_view::npos) end = path.size();
      const std::string_view dir = path.substr(begin, end - begin);
      begin = end + 1;
      if (auto cc = probe(std::string(dir.empty() ? "." : dir) + "/" + name))
        return cc;
    }
  }
  return std::nullopt;
}

Key make_key(const Source& source, const HostCompiler& cc) {
  // The source parts are hashed in place (no copy: they can be hundreds of
  // KB), and their digests are folded into the small header.
  const auto fnv = [](std::string_view v) {
    return serial::fnv1a64(std::span(
        reinterpret_cast<const std::uint8_t*>(v.data()), v.size()));
  };
  const std::string header = "cgs-kernel-v1\n" + cc.identity + "\n" +
                             ladder_text() + cpu_features() + "\n";
  Key key;
  key.hex = hex64(hash_of(header + hex64(hash_of(source.scalar)) +
                          hex64(hash_of(source.wide))));
  key.check = fnv(header + hex64(fnv(source.scalar)) + hex64(fnv(source.wide)));
  return key;
}

Loaded load_or_build(const std::string& cache_dir, const Key& key,
                     const std::function<Source()>& emit,
                     const HostCompiler& cc) {
  const std::string dir = private_kernel_dir(cache_dir);
  if (dir.empty()) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
      std::fprintf(stderr,
                   "cgs: kernel cache %s/kernels is not private to this user "
                   "or not writable; compiling kernels uncached\n",
                   cache_dir.c_str());
    return build_uncached(emit(), cc);
  }
  const std::string entry = dir + "/" + key.hex;
  Loaded out;
  // Three rounds cover: a rejected entry, a race lost to another process
  // publishing first, and one more check of whatever got published.
  for (int round = 0; round < 3; ++round) {
    void* handle = nullptr;
    const Verdict v = load_entry(entry, key, &handle);
    if (v == Verdict::kLoaded) {
      out.handle = handle;
      return out;
    }
    if (v == Verdict::kUnloadable) break;  // e.g. a noexec mount
    if (v == Verdict::kRejected) {
      std::error_code ec;
      std::filesystem::remove_all(entry, ec);
    }
    std::string staging = dir + "/.build-XXXXXX";
    if (::mkdtemp(staging.data()) == nullptr) break;  // not writable
    try {
      out.compile_ms += compile_into(staging, emit(), cc, &key);
      ++out.compiles;
    } catch (...) {
      std::error_code ec;
      std::filesystem::remove_all(staging, ec);
      throw;
    }
    // A directory rename never replaces a non-empty directory, so where
    // RENAME_NOREPLACE is unsupported a plain rename is still no-replace.
    int rc = ::renameat2(AT_FDCWD, staging.c_str(), AT_FDCWD, entry.c_str(),
                         RENAME_NOREPLACE);
    if (rc != 0 && (errno == EINVAL || errno == ENOSYS))
      rc = ::rename(staging.c_str(), entry.c_str());
    if (rc != 0 && errno != EEXIST && errno != ENOTEMPTY) {
      out.handle = load_and_remove(staging);  // cannot publish: use as is
      return out;
    }
    if (rc != 0) {  // another process published first: load its entry
      std::error_code ec;
      std::filesystem::remove_all(staging, ec);
    }
  }
  Loaded fallback = build_uncached(emit(), cc);
  fallback.compiles += out.compiles;
  fallback.compile_ms += out.compile_ms;
  return fallback;
}

}  // namespace cgs::ct::kernel_cache
