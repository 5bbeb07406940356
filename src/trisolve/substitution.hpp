// The row kernel shared by the exact triangular-solve engines, plus level-set
// computation utilities and the sequential and level-scheduled sweeps (rows
// within a level concurrently, levels in sequence -- the execution structure
// the level-set engines' OpProfiles have always modeled).
//
// Every sweep works on a row-major INTERLEAVED block of w right-hand sides:
// entry (i, c) sits at x[i*w + c].  One pass over a factor row updates all w
// columns, so a block solve streams each factor once instead of once per
// column; a solo solve is the w = 1 block.
#pragma once

#include "common/op_profile.hpp"
#include "direct/factorization.hpp"
#include "exec/exec.hpp"

namespace frosch::trisolve {

/// Dependency levels of a lower-triangular CSR matrix:
/// level[i] = 1 + max(level[j] : j < i, L(i,j) != 0), leaves at level 1.
/// Returns levels (1-based) and writes the count into *nlevels.
template <class Scalar>
IndexVector lower_levels(const la::CsrMatrix<Scalar>& L, index_t* nlevels) {
  const index_t n = L.num_rows();
  IndexVector level(static_cast<size_t>(n), 1);
  index_t maxl = n > 0 ? 1 : 0;
  for (index_t i = 0; i < n; ++i) {
    index_t lv = 1;
    for (index_t k = L.row_begin(i); k < L.row_end(i); ++k) {
      const index_t j = L.col(k);
      if (j < i) lv = std::max(lv, level[j] + 1);
    }
    level[i] = lv;
    maxl = std::max(maxl, lv);
  }
  if (nlevels) *nlevels = maxl;
  return level;
}

/// Dependency levels of an upper-triangular CSR matrix (deps are j > i).
template <class Scalar>
IndexVector upper_levels(const la::CsrMatrix<Scalar>& U, index_t* nlevels) {
  const index_t n = U.num_rows();
  IndexVector level(static_cast<size_t>(n), 1);
  index_t maxl = n > 0 ? 1 : 0;
  for (index_t i = n - 1; i >= 0; --i) {
    index_t lv = 1;
    for (index_t k = U.row_begin(i); k < U.row_end(i); ++k) {
      const index_t j = U.col(k);
      if (j > i) lv = std::max(lv, level[j] + 1);
    }
    level[i] = lv;
    maxl = std::max(maxl, lv);
  }
  if (nlevels) *nlevels = maxl;
  return level;
}

/// Groups rows by dependency level: `order` lists the rows level-by-level
/// (stable within a level, i.e. ascending row index) and `ptr` holds the
/// level offsets (`ptr[l]..ptr[l+1]` are the rows of 1-based level l+1).
inline void build_level_schedule(const IndexVector& level, index_t nlevels,
                                 IndexVector& order, IndexVector& ptr) {
  const index_t n = static_cast<index_t>(level.size());
  ptr.assign(static_cast<size_t>(nlevels) + 1, 0);
  for (index_t i = 0; i < n; ++i) ptr[level[i]] += 1;  // levels are 1-based
  for (index_t l = 0; l < nlevels; ++l) ptr[l + 1] += ptr[l];
  order.resize(static_cast<size_t>(n));
  IndexVector next(ptr.begin(), ptr.end() - 1);
  for (index_t i = 0; i < n; ++i) order[next[level[i] - 1]++] = i;
}

/// One row update of a triangular sweep over a W-wide tile of a row-major
/// interleaved block: entry (j, t) of the tile sits at x[j*ld + t].  One
/// pass over the CSR row subtracts every off-diagonal contribution from W
/// running sums and divides by the diagonal unless the factor has an
/// implicit unit diagonal.  Each column's sum runs in CSR order, so every
/// column is bitwise identical to its solo (W = 1) solve.  All rows the row
/// reads must already be final -- the sweep schedules guarantee it.
template <int W, class Scalar>
inline void solve_row_tile(const la::CsrMatrix<Scalar>& T, bool unit_diag,
                           index_t i, Scalar* x, index_t ld) {
  Scalar* xi = x + static_cast<size_t>(i) * ld;
  Scalar sum[W];
  for (int t = 0; t < W; ++t) sum[t] = xi[t];
  Scalar diag = unit_diag ? Scalar(1) : Scalar(0);
  for (index_t k = T.row_begin(i); k < T.row_end(i); ++k) {
    const index_t j = T.col(k);
    const Scalar v = T.val(k);
    if (j == i) {
      diag = v;
    } else {
      const Scalar* xj = x + static_cast<size_t>(j) * ld;
      for (int t = 0; t < W; ++t) sum[t] -= v * xj[t];
    }
  }
  FROSCH_ASSERT(diag != Scalar(0), "solve_row: zero diagonal");
  for (int t = 0; t < W; ++t)
    xi[t] = unit_diag ? sum[t] : Scalar(sum[t] / diag);
}

/// Row i of a triangular sweep for all w columns of the interleaved block x
/// ((j, c) at x[j*w + c]): compile-time tiles of 8 columns, the remainder
/// covered by at most one tile each of 4, 2 and 1.  The factor row is read
/// from memory once for the whole block.
template <class Scalar>
inline void solve_row(const la::CsrMatrix<Scalar>& T, bool unit_diag,
                      index_t i, Scalar* x, index_t w) {
  index_t c = 0;
  for (; w - c >= 8; c += 8) solve_row_tile<8>(T, unit_diag, i, x + c, w);
  if (w - c >= 4) {
    solve_row_tile<4>(T, unit_diag, i, x + c, w);
    c += 4;
  }
  if (w - c >= 2) {
    solve_row_tile<2>(T, unit_diag, i, x + c, w);
    c += 2;
  }
  if (w - c >= 1) solve_row_tile<1>(T, unit_diag, i, x + c, w);
}

/// Runs sweep(row), where row(i) updates row i of the interleaved block x
/// (w columns).  A solo solve (w = 1) gets the compile-time width-1 tile
/// with unit stride and no per-row tile dispatch.
template <class Scalar, class Sweep>
void with_row_update(const la::CsrMatrix<Scalar>& T, bool unit_diag,
                     Scalar* x, index_t w, Sweep&& sweep) {
  if (w == 1) {
    sweep([&](index_t i) { solve_row_tile<1>(T, unit_diag, i, x, 1); });
  } else {
    sweep([&](index_t i) { solve_row(T, unit_diag, i, x, w); });
  }
}

/// Sequential substitution sweep of the interleaved block x (w columns), in
/// place: rows ascending for a lower factor, descending for an upper one.
template <class Scalar>
void substitution_sweep(const la::CsrMatrix<Scalar>& T, bool unit_diag,
                        bool forward, Scalar* x, index_t w) {
  const index_t n = T.num_rows();
  with_row_update(T, unit_diag, x, w, [&](auto row) {
    for (index_t r = 0; r < n; ++r) row(forward ? r : n - 1 - r);
  });
}

/// One level-scheduled triangular sweep of the interleaved block x (w
/// columns), in place: rows within a level run through exec::parallel_for
/// (they only read rows finalized by earlier levels), levels are a
/// sequential dependency chain.  Every column accumulates in CSR order
/// exactly like the substitution sweep, so the result is bitwise identical
/// to it at EVERY thread count and block width.  Works for lower and upper
/// factors alike; `unit_diag` only for L.
template <class Scalar>
void level_scheduled_solve(const la::CsrMatrix<Scalar>& T, bool unit_diag,
                           const IndexVector& order, const IndexVector& ptr,
                           Scalar* x, index_t w,
                           const exec::ExecPolicy& policy) {
  const index_t nlevels = static_cast<index_t>(ptr.size()) - 1;
  with_row_update(T, unit_diag, x, w, [&](auto row) {
    for (index_t l = 0; l < nlevels; ++l) {
      const index_t begin = ptr[l], width = ptr[l + 1] - ptr[l];
      exec::parallel_for(
          policy, width, [&](index_t q) { row(order[begin + q]); },
          /*grain=*/256);
    }
  });
}

/// Profile helper: records one triangular sweep executed as a level-set
/// schedule with `nlevels` kernel launches over n rows and nnz entries.
template <class Scalar>
void record_levelset_sweep(const la::CsrMatrix<Scalar>& T, index_t nlevels,
                           OpProfile* prof) {
  if (!prof) return;
  prof->flops += 2.0 * static_cast<double>(T.num_entries());
  prof->bytes += T.storage_bytes() +
                 2.0 * static_cast<double>(T.num_rows()) * sizeof(Scalar);
  prof->launches += nlevels;
  prof->critical_path += nlevels;
  prof->work_items += static_cast<double>(T.num_rows());
}

}  // namespace frosch::trisolve
