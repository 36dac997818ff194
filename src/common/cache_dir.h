#pragma once
// Where the library keeps what it derives once per machine: synthesized
// netlists and recipes (engine::SamplerRegistry) and compiled sampler
// kernels (ct::CompiledKernel, under <dir>/kernels/).

#include <string>

namespace cgs {

/// Cache directory resolution: $CGS_CACHE_DIR if set, else
/// $XDG_CACHE_HOME/cgs-samplers, else $HOME/.cache/cgs-samplers, else
/// ./.cgs-cache. Reads the environment on every call.
std::string default_cache_dir();

}  // namespace cgs
