// PairArena alignment and recycling contract (util/arena.hpp): every
// span start must land on a 32-byte boundary in every lane -- the
// rounding fixes the arena layout that the pairs_peak / arena_bytes_peak
// counters report -- and the guarantee must survive growth, truncate()
// rollbacks, reset() recycling and moves.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/arena.hpp"
#include "util/rng.hpp"

namespace odtn {
namespace {

bool aligned32(const double* p) {
  return reinterpret_cast<std::uintptr_t>(p) % PairArena::kLaneAlignment == 0;
}

void expect_span_aligned(const PairArena& arena, std::size_t offset) {
  EXPECT_EQ(offset % PairArena::kSpanAlignPairs, 0u);
  EXPECT_TRUE(aligned32(arena.ld() + offset));
  EXPECT_TRUE(aligned32(arena.ea() + offset));
}

TEST(PairArena, SpanStartsStay32ByteAlignedAcrossRecycleCycles) {
  PairArena arena(/*with_aux=*/true);
  Rng rng = Rng::keyed(0xA11A, 0);
  for (int cycle = 0; cycle < 6; ++cycle) {
    std::vector<std::size_t> offsets;
    // Odd sizes force padding between spans; big ones force growth.
    for (int i = 0; i < 40; ++i) {
      const std::size_t n = 1 + rng.below(97);
      const std::size_t off = arena.allocate(n);
      expect_span_aligned(arena, off);
      EXPECT_TRUE(aligned32(arena.aux() + off));
      offsets.push_back(off);
      if (rng.bernoulli(0.2)) {
        // Speculative allocation rolled back: the bump pointer returns
        // to a previously returned (hence aligned) offset.
        arena.truncate(off);
        offsets.pop_back();
      }
    }
    // Lane bases themselves are aligned.
    EXPECT_TRUE(aligned32(arena.ld()));
    EXPECT_TRUE(aligned32(arena.ea()));
    EXPECT_TRUE(aligned32(arena.aux()));
    arena.reset();
    EXPECT_EQ(arena.size(), 0u);
  }
}

TEST(PairArena, GrowthPreservesContentsAndAlignment) {
  PairArena arena;
  const std::size_t first = arena.allocate(10);
  for (std::size_t i = 0; i < 10; ++i) {
    arena.ld()[first + i] = 100.0 + static_cast<double>(i);
    arena.ea()[first + i] = 200.0 + static_cast<double>(i);
  }
  // Blow far past the current capacity so the lanes must move.
  const std::size_t big = arena.allocate(8192);
  expect_span_aligned(arena, big);
  expect_span_aligned(arena, first);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(arena.ld()[first + i], 100.0 + static_cast<double>(i));
    EXPECT_EQ(arena.ea()[first + i], 200.0 + static_cast<double>(i));
  }
}

TEST(PairArena, RecycledCapacityDoesNotRegrow) {
  PairArena arena;
  for (int i = 0; i < 20; ++i) arena.allocate(50);
  const std::size_t cap = arena.capacity();
  const std::size_t bytes = arena.capacity_bytes();
  for (int cycle = 0; cycle < 4; ++cycle) {
    arena.reset();
    for (int i = 0; i < 20; ++i) {
      const std::size_t off = arena.allocate(50);
      expect_span_aligned(arena, off);
    }
  }
  EXPECT_EQ(arena.capacity(), cap);
  EXPECT_EQ(arena.capacity_bytes(), bytes);
}

TEST(PairArena, PeakTracksPaddedHighWater) {
  PairArena arena;
  const std::size_t a = arena.allocate(5);
  EXPECT_EQ(a, 0u);
  const std::size_t b = arena.allocate(3);
  // 5 rounds up to 8: one padded gap between the spans.
  EXPECT_EQ(b, 8u);
  EXPECT_EQ(arena.size(), 11u);
  EXPECT_EQ(arena.peak_pairs(), 11u);
  arena.reset();
  EXPECT_EQ(arena.peak_pairs(), 11u);
}

TEST(PairArena, AllocationPastSpanRangeThrowsUnchanged) {
  // PairSpan stores offsets and lengths in 32 bits; the growth path
  // refuses rather than letting them wrap, before the bump pointer moves.
  PairArena arena;
  arena.allocate(5);
  const std::size_t size = arena.size();
  const std::size_t cap = arena.capacity();
  EXPECT_THROW(arena.allocate(std::size_t{1} << 32), std::length_error);
  EXPECT_EQ(arena.size(), size);
  EXPECT_EQ(arena.capacity(), cap);
  // The arena stays usable.
  EXPECT_EQ(arena.allocate(3), 8u);
}

TEST(PairArena, MoveTransfersLanesAndEmptiesSource) {
  PairArena src;
  const std::size_t off = src.allocate(16);
  src.ld()[off] = 42.0;
  const double* lanes = src.ld();
  PairArena dst = std::move(src);
  EXPECT_EQ(dst.ld(), lanes);
  EXPECT_EQ(dst.ld()[off], 42.0);
  EXPECT_EQ(dst.size(), 16u);
  EXPECT_EQ(src.capacity(), 0u);  // NOLINT(bugprone-use-after-move)
  // And the moved-to arena still honors the alignment contract.
  const std::size_t next = dst.allocate(7);
  expect_span_aligned(dst, next);
}

}  // namespace
}  // namespace odtn
