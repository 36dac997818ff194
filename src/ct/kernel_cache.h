#pragma once
// The on-disk half of CompiledKernel: a private, content-addressed store of
// host-compiled sampler kernels, so a netlist's C is compiled once per
// machine rather than once per process.
//
//   <cache_dir>/kernels/                 0700, owned by the effective uid
//   <cache_dir>/kernels/<key>/kernel.so  the compiled kernel
//   <cache_dir>/kernels/<key>/kernel.sum hash64 of kernel.so + key check
//
// <key> is hash64 over the emitted C (both lane forms), the compile ladder,
// the compiler binary's identity (resolved path, size, mtime) and the host
// CPU's feature bits (the kernel is built with -march=native). Computing it
// starts no process. A miss compiles in a mkdtemp directory inside
// kernels/ and publishes the whole directory with one no-replace rename, so
// a published entry is never swapped under a reader and the loser of a
// race loads the winner's entry. A hit is trusted only after checks on the
// entry (no symlinks, owned by us, writable by nobody else, bytes hash to
// the sidecar, same inode after dlopen); any failure deletes the entry and
// rebuilds. When kernels/ is not private or cannot be written, the kernel
// is compiled uncached in a mkdtemp directory under $TMPDIR and removed
// right after dlopen.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

namespace cgs::ct::kernel_cache {

/// The kernel's C source in its two parts. The first two rungs of the
/// compile ladder build both (`scalar`, a newline, `wide`); the last builds
/// `scalar` alone. Kept apart so a load never holds a concatenated copy.
struct Source {
  std::string scalar;  // 64-lane form
  std::string wide;    // 256-lane form
};

/// The host C compiler found on PATH (cc, else gcc) — a lookup, no process.
struct HostCompiler {
  std::string path;      // as found on PATH; what gets executed
  std::string identity;  // resolved path, size and mtime
};
std::optional<HostCompiler> find_host_compiler();

/// The content key: 16 hex digits of hash64 over every input that can
/// change the compiled bytes, plus an independent (FNV-1a) hash of the
/// same material recorded in the sidecar, so a 64-bit key collision alone
/// cannot load the wrong kernel.
struct Key {
  std::string hex;
  std::uint64_t check = 0;
};
Key make_key(const Source& source, const HostCompiler& cc);

/// A dlopen()ed kernel object. `compiles` counts the host compiles this
/// load ran (0 on a verified cache hit); `compile_ms` is their total.
struct Loaded {
  void* handle = nullptr;
  int compiles = 0;
  double compile_ms = 0;
};

/// Load the kernel for `key` from `cache_dir`/kernels, compiling and
/// publishing it on a miss. `emit` produces the source and runs only on a
/// miss, so a hit never holds the source while it maps the kernel. Throws
/// cgs::Error if the compiler fails on every rung or the object cannot be
/// loaded.
Loaded load_or_build(const std::string& cache_dir, const Key& key,
                     const std::function<Source()>& emit,
                     const HostCompiler& cc);

}  // namespace cgs::ct::kernel_cache
