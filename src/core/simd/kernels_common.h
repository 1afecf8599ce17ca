// The one integer-power chain of the cost model. ipow/pow_chain are the
// multiply chains CostModel has always used; every kernel tier (the vector
// ones' scalar tails included), CostModel's normalization and scatter
// reference path, and MoveEvaluator's delta all call these, so they all
// reproduce the same left-to-right association. (core/certify.cpp keeps
// its own copy on purpose: the certifier shares no code with CostModel.)
//
// Internal linkage: the vector-tier TUs compile this header with
// -mavx2/-mavx512*, so an inline function with external linkage would emit
// a VEX-encoded weak definition there that the linker may hand to
// base-ISA callers (visible as a `W` symbol in `nm -C` at -O0). The
// unnamed namespace gives each TU its own copy built with its own flags.
#pragma once

#include <cassert>
#include <cstddef>

namespace sfqpart::simd {
namespace {

inline double ipow(double base, int exponent) {
  // Negative exponents would silently evaluate to 1.0 and zero F1's
  // contribution; the Solver facade rejects them with a Status before any
  // CostModel exists, direct users fail here.
  assert(exponent >= 0 && "ipow: negative exponents are not supported");
  double result = 1.0;
  for (int i = 0; i < exponent; ++i) result *= base;
  return result;
}

// ipow with the small exponents unrolled for the hot edge pass. Every
// branch reproduces ipow's left-to-right multiply chain exactly
// (1.0 * b == b in IEEE), so the bits never depend on which is called.
inline double pow_chain(double base, int exponent) {
  switch (exponent) {
    case 0: return 1.0;
    case 1: return base;
    case 2: return base * base;
    case 3: return (base * base) * base;
    default: return ipow(base, exponent);
  }
}

}  // namespace
}  // namespace sfqpart::simd
