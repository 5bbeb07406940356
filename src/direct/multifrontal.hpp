// Supernodal multifrontal sparse Cholesky: the Tacho stand-in (see DESIGN.md).
//
// Structure mirrors what matters for the paper's GPU study:
//   * the SYMBOLIC phase (elimination tree, factor pattern, its supernode
//     partition and the supernodal etree, postorder, level-set schedule of
//     fronts) depends only on the sparsity pattern and is fully REUSABLE
//     across numeric factorizations -- Tacho's decisive advantage over
//     SuperLU in Fig. 4 / Table III;
//   * the NUMERIC phase processes one dense frontal matrix per SUPERNODE in
//     supernodal-etree postorder: assemble the supernode's columns of A,
//     extend-add the children's update (Schur) matrices, eliminate all of
//     the supernode's pivots with one partial Cholesky, and hand the
//     trailing block to the parent.  A GPU implementation launches one
//     batched kernel per etree LEVEL -- so its profile records
//     `launches = tree height` with per-level widths, which is exactly why
//     nested-dissection ordering (wide shallow tree) helps on GPUs.
#pragma once

#include <algorithm>

#include "common/op_profile.hpp"
#include "direct/elimination_tree.hpp"
#include "direct/factorization.hpp"
#include "la/dense.hpp"
#include "la/ops.hpp"

namespace frosch::direct {

template <class Scalar>
class MultifrontalCholesky {
 public:
  /// Pattern-only analysis; reusable for any matrix with this pattern.
  void symbolic(const la::CsrMatrix<Scalar>& A, OpProfile* prof = nullptr) {
    FROSCH_CHECK(A.num_rows() == A.num_cols(),
                 "MultifrontalCholesky: square matrices only");
    n_ = A.num_rows();
    parent_ = elimination_tree(A);
    tree_levels(parent_, &tree_height_);
    Lpattern_ = symbolic_cholesky(A, parent_);
    sn_ptr_ = detect_supernodes(Lpattern_);

    // Supernodal etree: a supernode's parent is the supernode holding the
    // etree parent of its last column.
    const index_t nsn = static_cast<index_t>(sn_ptr_.size()) - 1;
    IndexVector sn_parent(static_cast<size_t>(nsn), -1);
    sn_children_.assign(static_cast<size_t>(nsn), IndexVector());
    for (index_t s = 0; s < nsn; ++s) {
      const index_t p = parent_[sn_ptr_[s + 1] - 1];
      if (p == -1) continue;
      sn_parent[s] = static_cast<index_t>(
          std::upper_bound(sn_ptr_.begin(), sn_ptr_.end(), p) - sn_ptr_.begin() - 1);
      sn_children_[sn_parent[s]].push_back(s);
    }
    sn_post_ = tree_postorder(sn_parent);

    // Model charges of the numeric phase depend only on the pattern: 2 s^2
    // flops per column of s rows, summed in column postorder so the totals
    // do not depend on how columns are grouped into fronts.
    flops_ = bytes_ = front_area_ = 0.0;
    for (index_t j : tree_postorder(parent_)) {
      const double s = Lpattern_.row_end(j) - Lpattern_.row_begin(j);
      flops_ += 2.0 * s * s;
      bytes_ += s * s * sizeof(Scalar);
      front_area_ += s * s;
    }
    if (prof) {
      prof->bytes += A.storage_bytes() +
                     static_cast<double>(Lpattern_.num_entries()) * sizeof(index_t);
      prof->launches += 1;  // symbolic analysis is a host-side pass
      prof->critical_path += 1;
      prof->work_items += static_cast<double>(n_);
    }
  }

  bool has_symbolic() const { return n_ > 0; }
  static constexpr bool symbolic_reusable() { return true; }
  index_t tree_height() const { return tree_height_; }
  const IndexVector& etree_parent() const { return parent_; }

  /// Numeric factorization A = L L^T using the cached symbolic data.
  void numeric(const la::CsrMatrix<Scalar>& A, OpProfile* prof = nullptr) {
    FROSCH_CHECK(has_symbolic(), "MultifrontalCholesky: symbolic() first");
    FROSCH_CHECK(A.num_rows() == n_, "MultifrontalCholesky: dimension changed");
    const index_t nsn = static_cast<index_t>(sn_ptr_.size()) - 1;
    const index_t* rows = Lpattern_.colind().data();

    // Update (Schur) matrices pending consumption by parents, lower triangle
    // only.  Their rows are the pattern of the child's first column past its
    // own pivots.
    std::vector<la::DenseMatrix<Scalar>> pending(static_cast<size_t>(nsn));
    std::vector<Scalar> Lx(static_cast<size_t>(Lpattern_.num_entries()),
                           Scalar(0));
    IndexVector pos(static_cast<size_t>(n_), -1);  // global row -> front row

    for (index_t s : sn_post_) {
      // Front rows = pattern of the supernode's first column (diagonal
      // first, ascending); column j0+t of L holds front rows t..m-1.
      const index_t j0 = sn_ptr_[s], k = sn_ptr_[s + 1] - j0;
      const index_t fb = Lpattern_.row_begin(j0);
      const index_t m = Lpattern_.row_end(j0) - fb;
      for (index_t r = 0; r < m; ++r) pos[rows[fb + r]] = r;

      la::DenseMatrix<Scalar> F(m, m);
      // Assemble the lower entries of the supernode's columns (via the
      // symmetric rows).
      for (index_t t = 0; t < k; ++t) {
        const index_t j = j0 + t;
        for (index_t p = A.row_begin(j); p < A.row_end(j); ++p) {
          const index_t i = A.col(p);
          if (i < j) continue;
          FROSCH_ASSERT(pos[i] >= 0, "multifrontal: entry outside front");
          F(pos[i], t) += A.val(p);
        }
      }
      // Extend-add children updates.
      for (index_t c : sn_children_[s]) {
        la::DenseMatrix<Scalar>& u = pending[c];
        const index_t* urows = rows + Lpattern_.row_begin(sn_ptr_[c]) +
                               (sn_ptr_[c + 1] - sn_ptr_[c]);
        const index_t us = u.num_rows();
        for (index_t cc = 0; cc < us; ++cc) {
          const index_t gc = pos[urows[cc]];
          FROSCH_ASSERT(gc >= 0, "multifrontal: child row outside parent front");
          for (index_t rr = cc; rr < us; ++rr) F(pos[urows[rr]], gc) += u(rr, cc);
        }
        u = la::DenseMatrix<Scalar>();  // release child storage
      }
      // Eliminate the k pivots; Schur complement in the trailing
      // (m-k)x(m-k) lower triangle.
      try {
        la::partial_cholesky(F, k);
      } catch (const Error&) {
        // The pivots before the failing one already hold positive roots.
        index_t t = 0;
        while (t + 1 < k && F(t, t) > Scalar(0)) ++t;
        FROSCH_CHECK(false, "MultifrontalCholesky: non-positive pivot at column "
                                << j0 + t << " (" << F(t, t) << ")");
      }
      // Store the k columns of L.
      for (index_t t = 0; t < k; ++t) {
        Scalar* col = Lx.data() + Lpattern_.row_begin(j0 + t) - t;
        for (index_t r = t; r < m; ++r) col[r] = F(r, t);
      }
      // Hand the update matrix to the parent.
      if (m > k) {
        la::DenseMatrix<Scalar>& u = pending[s];
        u = la::DenseMatrix<Scalar>(m - k, m - k);
        for (index_t cc = k; cc < m; ++cc)
          for (index_t rr = cc; rr < m; ++rr) u(rr - k, cc - k) = F(rr, cc);
      }
      for (index_t r = 0; r < m; ++r) pos[rows[fb + r]] = -1;
    }

    // Pack:  Lpattern_ rows are CSC columns of L -> that IS the CSR of L^T
    // (upper factor U); transpose for the CSR of L.
    la::CsrMatrix<Scalar> Lt(
        n_, n_, Lpattern_.rowptr(), Lpattern_.colind(), std::move(Lx));
    fact_.U = Lt;
    fact_.L = la::transpose(Lt);
    fact_.unit_diag_L = false;
    fact_.row_perm_old2new.clear();
    fact_.sn_ptr = sn_ptr_;

    if (prof) {
      prof->flops += flops_;
      prof->bytes += bytes_ + 2.0 * fact_.L.storage_bytes();
      // Level-set schedule: one batched launch of all fronts in a level;
      // within a launch, team kernels parallelize over the dense front
      // entries (Tacho's team-level BLAS), so the exposed width is the
      // total front area, not the front count.
      prof->launches += tree_height_;
      prof->critical_path += tree_height_;
      prof->work_items += front_area_;
    }
  }

  const Factorization<Scalar>& factorization() const { return fact_; }
  Factorization<Scalar>& factorization() { return fact_; }

 private:
  index_t n_ = 0;
  index_t tree_height_ = 0;
  IndexVector parent_;
  la::CsrMatrix<char> Lpattern_;
  // Supernode partition of Lpattern_, and the supernodal etree's postorder
  // and children lists.
  IndexVector sn_ptr_, sn_post_;
  std::vector<IndexVector> sn_children_;
  // Pattern-only OpProfile charges of one numeric factorization.
  double flops_ = 0.0, bytes_ = 0.0, front_area_ = 0.0;
  Factorization<Scalar> fact_;
};

}  // namespace frosch::direct
