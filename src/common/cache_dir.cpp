#include "common/cache_dir.h"

#include <cstdlib>

namespace cgs {

std::string default_cache_dir() {
  if (const char* env = std::getenv("CGS_CACHE_DIR"); env && *env) return env;
  if (const char* xdg = std::getenv("XDG_CACHE_HOME"); xdg && *xdg)
    return std::string(xdg) + "/cgs-samplers";
  if (const char* home = std::getenv("HOME"); home && *home)
    return std::string(home) + "/.cache/cgs-samplers";
  return ".cgs-cache";
}

}  // namespace cgs
