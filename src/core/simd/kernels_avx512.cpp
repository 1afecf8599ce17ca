// AVX-512 kernel tier (8 double lanes; one W row group per register).
// Compiled with -mavx512f -mavx512dq -ffp-contract=off (see
// src/CMakeLists.txt); elsewhere this TU degenerates to a null table.
#include "core/simd/kernels.h"

#if defined(__x86_64__) && defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

#include "core/simd/kernels_vec_impl.h"

namespace sfqpart::simd {
namespace {

struct Avx512Ops {
  using V = __m512d;
  static constexpr std::size_t kLanes = 8;

  static V zero() { return _mm512_setzero_pd(); }
  static V set1(double x) { return _mm512_set1_pd(x); }
  static V load(const double* p) { return _mm512_load_pd(p); }
  static V loadu(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, V v) { _mm512_store_pd(p, v); }
  static void storeu(double* p, V v) { _mm512_storeu_pd(p, v); }
  static V add(V a, V b) { return _mm512_add_pd(a, b); }
  static V sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V div(V a, V b) { return _mm512_div_pd(a, b); }
  static V neg(V a) { return _mm512_xor_pd(a, _mm512_set1_pd(-0.0)); }
  static V abs(V a) { return _mm512_andnot_pd(_mm512_set1_pd(-0.0), a); }

  // See Avx2Ops: x stays in the NaN/-0-deciding second operand slot.
  static V clamp01(V x) {
    return _mm512_min_pd(set1(1.0), _mm512_max_pd(_mm512_setzero_pd(), x));
  }
  static V max_second(V x, V acc) { return _mm512_max_pd(x, acc); }

  static V select_ge0(V delta, V a, V b) {
    const __mmask8 ge =
        _mm512_cmp_pd_mask(delta, _mm512_setzero_pd(), _CMP_GE_OQ);
    return _mm512_mask_blend_pd(ge, b, a);  // mask set -> a
  }

  // In-place 8x8 transpose via unpack + 128-bit lane shuffles.
  static void transpose(V (&r)[kLanes]) {
    const V t0 = _mm512_unpacklo_pd(r[0], r[1]);
    const V t1 = _mm512_unpackhi_pd(r[0], r[1]);
    const V t2 = _mm512_unpacklo_pd(r[2], r[3]);
    const V t3 = _mm512_unpackhi_pd(r[2], r[3]);
    const V t4 = _mm512_unpacklo_pd(r[4], r[5]);
    const V t5 = _mm512_unpackhi_pd(r[4], r[5]);
    const V t6 = _mm512_unpacklo_pd(r[6], r[7]);
    const V t7 = _mm512_unpackhi_pd(r[6], r[7]);

    const V u0 = _mm512_shuffle_f64x2(t0, t2, 0x88);
    const V u1 = _mm512_shuffle_f64x2(t1, t3, 0x88);
    const V u2 = _mm512_shuffle_f64x2(t0, t2, 0xDD);
    const V u3 = _mm512_shuffle_f64x2(t1, t3, 0xDD);
    const V u4 = _mm512_shuffle_f64x2(t4, t6, 0x88);
    const V u5 = _mm512_shuffle_f64x2(t5, t7, 0x88);
    const V u6 = _mm512_shuffle_f64x2(t4, t6, 0xDD);
    const V u7 = _mm512_shuffle_f64x2(t5, t7, 0xDD);

    r[0] = _mm512_shuffle_f64x2(u0, u4, 0x88);
    r[1] = _mm512_shuffle_f64x2(u1, u5, 0x88);
    r[2] = _mm512_shuffle_f64x2(u2, u6, 0x88);
    r[3] = _mm512_shuffle_f64x2(u3, u7, 0x88);
    r[4] = _mm512_shuffle_f64x2(u0, u4, 0xDD);
    r[5] = _mm512_shuffle_f64x2(u1, u5, 0xDD);
    r[6] = _mm512_shuffle_f64x2(u2, u6, 0xDD);
    r[7] = _mm512_shuffle_f64x2(u3, u7, 0xDD);
  }
};

}  // namespace

const KernelTable* avx512_kernels() {
  static const KernelTable table = VecKernels<Avx512Ops>::table("avx512");
  return &table;
}

}  // namespace sfqpart::simd

#else  // unsupported target/compiler

namespace sfqpart::simd {
const KernelTable* avx512_kernels() { return nullptr; }
}  // namespace sfqpart::simd

#endif
