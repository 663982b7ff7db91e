// Runtime dispatch for the SIMD kernel table: SWAPGAME_SIMD env override
// plus CPUID feature detection, resolved lazily and overridable by the
// force_level()/reset_level() test hooks.
#include "simd.hpp"

#if defined(SWAPGAME_SIMD_X86)
#include <cpuid.h>
#endif

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace swapgame::math::simd {

// Tables defined in the per-level translation units (each compiled with
// exactly the ISA flags its pack needs; see src/math/CMakeLists.txt).
extern const KernelTable kScalarTable;
#if defined(SWAPGAME_SIMD_X86)
extern const KernelTable kAvx2Table;
extern const KernelTable kAvx512Table;
#endif

namespace {

bool cpu_supports(SimdLevel level) noexcept {
#if defined(SWAPGAME_SIMD_X86)
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case SimdLevel::kAvx512:
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512dq") != 0;
  }
#endif
  return level == SimdLevel::kScalar;
}

const KernelTable* table_for(SimdLevel level) noexcept {
#if defined(SWAPGAME_SIMD_X86)
  switch (level) {
    case SimdLevel::kScalar:
      return &kScalarTable;
    case SimdLevel::kAvx2:
      return &kAvx2Table;
    case SimdLevel::kAvx512:
      return &kAvx512Table;
  }
#endif
  return &kScalarTable;
}

/// Best supported level at or below `cap`.
SimdLevel best_supported(SimdLevel cap) noexcept {
  if (cap == SimdLevel::kAvx512 && cpu_supports(SimdLevel::kAvx512)) {
    return SimdLevel::kAvx512;
  }
  if (cap >= SimdLevel::kAvx2 && cpu_supports(SimdLevel::kAvx2)) {
    return SimdLevel::kAvx2;
  }
  return SimdLevel::kScalar;
}

SimdLevel resolve_from_env() noexcept {
  const char* env = std::getenv("SWAPGAME_SIMD");
  if (env == nullptr || std::strcmp(env, "auto") == 0 || env[0] == '\0') {
    return best_supported(SimdLevel::kAvx512);
  }
  if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0) {
    return SimdLevel::kScalar;
  }
  if (std::strcmp(env, "avx2") == 0) return best_supported(SimdLevel::kAvx2);
  if (std::strcmp(env, "avx512") == 0) {
    return best_supported(SimdLevel::kAvx512);
  }
  return best_supported(SimdLevel::kAvx512);  // unrecognized -> auto
}

std::atomic<int> g_active_level{-1};

SimdLevel active_or_resolve() noexcept {
  int lvl = g_active_level.load(std::memory_order_relaxed);
  if (lvl < 0) {
    // Benign race: resolution is deterministic, every thread stores the
    // same value.
    lvl = static_cast<int>(resolve_from_env());
    g_active_level.store(lvl, std::memory_order_relaxed);
  }
  return static_cast<SimdLevel>(lvl);
}

}  // namespace

const char* to_string(SimdLevel level) noexcept {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "scalar";
}

const KernelTable& kernels() noexcept {
  return *table_for(active_or_resolve());
}

SimdLevel active_level() noexcept { return active_or_resolve(); }

bool level_supported(SimdLevel level) noexcept { return cpu_supports(level); }

const KernelTable* kernels(SimdLevel level) noexcept {
  return cpu_supports(level) ? table_for(level) : nullptr;
}

bool force_level(SimdLevel level) noexcept {
  if (!cpu_supports(level)) return false;
  g_active_level.store(static_cast<int>(level), std::memory_order_relaxed);
  return true;
}

void reset_level() noexcept {
  g_active_level.store(static_cast<int>(resolve_from_env()),
                       std::memory_order_relaxed);
}

bool sha_supported() noexcept {
#if defined(SWAPGAME_SIMD_X86)
  static const bool supported = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_max(0, nullptr) < 7) return false;
    __cpuid(1, eax, ebx, ecx, edx);
    const bool sse41 = (ecx >> 19) & 1;
    __cpuid_count(7, 0, eax, ebx, ecx, edx);
    return sse41 && ((ebx >> 29) & 1) != 0;  // CPUID.(7,0):EBX.SHA
  }();
  return supported;
#else
  return false;
#endif
}

}  // namespace swapgame::math::simd
