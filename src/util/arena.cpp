#include "util/arena.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>

namespace odtn {

namespace {

double* alloc_lane(std::size_t cap) {
  return static_cast<double*>(::operator new(
      cap * sizeof(double), std::align_val_t{PairArena::kLaneAlignment}));
}

void free_lane(double* lane) noexcept {
  ::operator delete(lane, std::align_val_t{PairArena::kLaneAlignment});
}

}  // namespace

std::size_t PairArena::grown_capacity(std::size_t cap,
                                      std::size_t needed) noexcept {
  // Geometric growth keeps the amortized allocate() cost constant; the
  // floor avoids a flurry of tiny reallocations while the first source
  // warms the slab up.
  constexpr std::size_t kMinCapacity = 256;
  const std::size_t grown = std::max({needed, cap * 2, kMinCapacity});
  return std::min((grown + kSpanAlignPairs - 1) & ~(kSpanAlignPairs - 1),
                  kMaxPairs);
}

void PairArena::grow(std::size_t needed) {
  if (needed > kMaxPairs)
    throw std::length_error("PairArena: allocation exceeds 32-bit spans");
  if (needed > fresh_cap_) fresh_cap_ = grown_capacity(fresh_cap_, needed);
  if (needed <= cap_) return;
  // std::vector is no longer usable here: its buffer is only
  // alignof(double)-aligned, while the layout contract puts every lane
  // base on a 32-byte boundary.
  const std::size_t cap = grown_capacity(cap_, needed);
  const auto regrow = [&](double*& lane) {
    double* next = alloc_lane(cap);
    if (lane != nullptr) {
      std::memcpy(next, lane, cap_ * sizeof(double));
      free_lane(lane);
    }
    std::memset(next + cap_, 0, (cap - cap_) * sizeof(double));
    lane = next;
  };
  regrow(ld_);
  regrow(ea_);
  if (with_aux_) regrow(aux_);
  cap_ = cap;
}

void PairArena::release() noexcept {
  free_lane(ld_);
  free_lane(ea_);
  free_lane(aux_);
  ld_ = ea_ = aux_ = nullptr;
  cap_ = 0;
}

void PairArena::move_from(PairArena& other) noexcept {
  ld_ = other.ld_;
  ea_ = other.ea_;
  aux_ = other.aux_;
  cap_ = other.cap_;
  fresh_cap_ = other.fresh_cap_;
  size_ = other.size_;
  peak_pairs_ = other.peak_pairs_;
  with_aux_ = other.with_aux_;
  other.ld_ = other.ea_ = other.aux_ = nullptr;
  other.cap_ = other.fresh_cap_ = other.size_ = other.peak_pairs_ = 0;
}

}  // namespace odtn
