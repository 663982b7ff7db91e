// AVX-512 (W = 8) instantiation of the deterministic kernel graph.  This
// TU alone is compiled with -mavx512f -mavx512dq (see
// src/math/CMakeLists.txt); dispatch guards execution behind CPUID.
#include "simd_dag.hpp"

#if !defined(__AVX512F__) || !defined(__AVX512DQ__)
#error "simd_avx512.cpp must be compiled with -mavx512f -mavx512dq"
#endif

namespace swapgame::math::simd {

extern const KernelTable kAvx512Table;
const KernelTable kAvx512Table = {
    &fill_uniform01_t<PackAvx512>,
    &normal_quantile_transform_t<PackAvx512>,
    &zkernel_eval_t<PackAvx512>,
    &welford_block_t<PackAvx512>,
};

}  // namespace swapgame::math::simd
