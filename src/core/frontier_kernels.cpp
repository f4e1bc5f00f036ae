#include "core/frontier_kernels.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

namespace odtn {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// (ld, ea) lexicographic order, evaluated without a branch.
inline bool pair_before(const PathPair& a, const PathPair& b) noexcept {
  return (a.ld < b.ld) | ((a.ld == b.ld) & (a.ea < b.ea));
}

void insertion_sort(PathPair* batch, std::size_t m) {
  for (std::size_t i = 1; i < m; ++i) {
    const PathPair key = batch[i];
    std::size_t k = i;
    for (; k > 0 && pair_before(key, batch[k - 1]); --k)
      batch[k] = batch[k - 1];
    batch[k] = key;
  }
}

// Merges sorted a[0, na) and b[0, nb) into out. Each step is a
// conditional pointer select, not a jump.
void merge_sorted(const PathPair* a, std::size_t na, const PathPair* b,
                  std::size_t nb, PathPair* out) {
  const PathPair* const ae = a + na;
  const PathPair* const be = b + nb;
  while (a != ae && b != be) {
    const bool take_b = pair_before(*b, *a);
    *out++ = *(take_b ? b : a);
    b += take_b;
    a += !take_b;
  }
  out = std::copy(a, ae, out);
  std::copy(b, be, out);
}

void sort_candidate_batch(PathPair* batch, std::size_t m,
                          std::vector<PathPair>& scratch) {
  constexpr std::size_t kBlock = 8;
  if (m <= 24) {
    // Typical batches hold a handful of candidates; insertion sort beats
    // any merge setup by a wide margin there.
    insertion_sort(batch, m);
    return;
  }
  // Larger batches (about a hundred candidates in a few dozen ascending
  // runs on the conference traces) would pay a mispredicted jump on most
  // of std::sort's comparisons. Instead: insertion-sorted blocks, then
  // bottom-up select merges ping-ponging between batch and scratch.
  if (scratch.size() < m) scratch.resize(m);
  for (std::size_t i = 0; i < m; i += kBlock)
    insertion_sort(batch + i, std::min(kBlock, m - i));
  PathPair* src = batch;
  PathPair* dst = scratch.data();
  for (std::size_t w = kBlock; w < m; w *= 2) {
    for (std::size_t i = 0; i < m; i += 2 * w) {
      const std::size_t na = std::min(w, m - i);
      const std::size_t nb = std::min(w, m - i - na);
      merge_sorted(src + i, na, src + i + na, nb, dst + i);
    }
    std::swap(src, dst);
  }
  if (src != batch) std::copy(src, src + m, batch);
}

// `batch[0, m)` sorted by (ld, ea) collapses in place to its Pareto
// front. One ascending pass: at equal ld only the first (minimal-ea)
// entry is considered, and a kept entry evicts every earlier survivor it
// dominates (smaller-or-equal ld with larger-or-equal ea) -- a classic
// monotone stack, O(m) after the sort.
std::size_t collapse_sorted_batch(PathPair* batch, std::size_t m) {
  std::size_t out = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (i > 0 && batch[i].ld == batch[i - 1].ld) continue;
    while (out > 0 && batch[out - 1].ea >= batch[i].ea) --out;
    batch[out++] = batch[i];
  }
  return out;
}

}  // namespace

std::size_t prune_candidate_batch(PathPair* batch, std::size_t m,
                                  std::vector<PathPair>& scratch) {
  if (m <= 1) return m;
  sort_candidate_batch(batch, m, scratch);
  return collapse_sorted_batch(batch, m);
}

FrontierMerge merge_frontier(const double* f_ld, const double* f_ea,
                             std::size_t fn, const PathPair* cand,
                             std::size_t m, double* out_ld, double* out_ea,
                             double* delta_ld, double* delta_ea,
                             double* delta_succ) noexcept {
  // Descending-LD walk over both inputs with a running minimum EA: an
  // element survives iff its ea is strictly below every ea seen at a
  // larger (or tied) ld. At an LD tie the smaller-ea element goes first
  // so it evicts the other; at a full tie the frontier's copy goes first
  // so an exact-duplicate candidate is dropped and NOT reported as new
  // (matching DeliveryFunction::insert returning false).
  std::ptrdiff_t i = static_cast<std::ptrdiff_t>(fn) - 1;
  std::ptrdiff_t j = static_cast<std::ptrdiff_t>(m) - 1;
  std::size_t wr = fn + m;   // merged output write cursor (exclusive)
  std::size_t dwr = m;       // delta output write cursor (exclusive)
  double min_ea = kInf;      // min ea among kept elements so far
  while (i >= 0 || j >= 0) {
    bool take_f;
    if (j < 0) {
      // Candidates exhausted. Old pairs still above the running minimum
      // are dominated; the first survivor ends the walk, because every
      // pair below it has strictly smaller ea yet (both lanes of a
      // Pareto frontier co-ascend) and survives verbatim -- the rest of
      // the frontier is bulk-copied after the loop.
      if (f_ea[i] >= min_ea) {
        --i;
        continue;
      }
      break;
    } else if (i < 0) {
      take_f = false;
    } else if (f_ld[i] != cand[j].ld) {
      take_f = f_ld[i] > cand[j].ld;
    } else {
      take_f = f_ea[i] <= cand[j].ea;
    }
    double ld, ea;
    if (take_f) {
      ld = f_ld[i];
      ea = f_ea[i];
      --i;
    } else {
      ld = cand[j].ld;
      ea = cand[j].ea;
      --j;
    }
    if (ea < min_ea) {
      // Kept. The element kept just before this one (one step up the
      // descending walk) is its successor in the ascending frontier;
      // its ea is exactly the wait-candidate suppression bound.
      if (!take_f) {
        --dwr;
        delta_ld[dwr] = ld;
        delta_ea[dwr] = ea;
        delta_succ[dwr] = min_ea;
      }
      min_ea = ea;
      --wr;
      out_ld[wr] = ld;
      out_ea[wr] = ea;
    }
  }
  if (i >= 0) {
    // Untouched survivor prefix f[0 .. i]: one copy instead of the
    // element-wise walk. This is the publish fast path -- candidates
    // mostly land near the top of the frontier (later paths depart and
    // arrive later), leaving the bulk of it byte-identical.
    const std::size_t blk = static_cast<std::size_t>(i) + 1;
    wr -= blk;
    std::memcpy(out_ld + wr, f_ld, blk * sizeof(double));
    std::memcpy(out_ea + wr, f_ea, blk * sizeof(double));
  }
  return {fn + m - wr, m - dwr};
}

}  // namespace odtn
