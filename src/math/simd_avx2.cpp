// AVX2 (W = 4) instantiation of the deterministic kernel graph.  This TU
// alone is compiled with -mavx2 (see src/math/CMakeLists.txt); the rest of
// the binary stays baseline-ISA portable and only calls in through the
// dispatch table after a CPUID check.
#include "simd_dag.hpp"

#if !defined(__AVX2__)
#error "simd_avx2.cpp must be compiled with -mavx2"
#endif

namespace swapgame::math::simd {

extern const KernelTable kAvx2Table;
const KernelTable kAvx2Table = {
    &fill_uniform01_t<PackAvx2>,
    &normal_quantile_transform_t<PackAvx2>,
    &zkernel_eval_t<PackAvx2>,
    &welford_block_t<PackAvx2>,
};

}  // namespace swapgame::math::simd
