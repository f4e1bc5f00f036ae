// Branch-free lower bound over an ascending double array.
//
// The one search behind the pooled engine's offer-time dominance filter
// (frontier_dominates), FrontierView::deliver_at and the two grid
// searches of MeasureCdfAccumulator::add_segment. Its keys land anywhere
// inside the array and fall left or right about as often as a coin flip,
// so a branchy halving search mispredicts on most steps; this loop runs a
// fixed ceil(log2 n) steps with no data-dependent branch (GCC emits
// cmov).
#pragma once

#include <cstddef>

namespace odtn {

/// First index in v[0, n) whose value is >= x (v ascending): exactly the
/// index std::lower_bound returns, for every key including +/-infinity
/// and keys equal to array values.
inline std::size_t branchless_lower_bound(const double* v, std::size_t n,
                                          double x) noexcept {
  if (n == 0) return 0;
  const double* base = v;
  // Invariant: the answer lies in [base, base + n], and base[0] < x
  // whenever base has moved.
  while (n > 1) {
    const std::size_t half = n / 2;
    base = (base[half] < x) ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - v) + (*base < x);
}

}  // namespace odtn
