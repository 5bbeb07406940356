#include "support/compare.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "la/ops.hpp"
#include "la/vector_ops.hpp"
#include "support/matrices.hpp"

namespace frosch::test {

void expect_matrices_near(const la::CsrMatrix<double>& A,
                          const la::CsrMatrix<double>& B, double tol) {
  ASSERT_EQ(A.num_rows(), B.num_rows());
  ASSERT_EQ(A.num_cols(), B.num_cols());
  const auto DA = to_dense(A);
  const auto DB = to_dense(B);
  for (index_t i = 0; i < A.num_rows(); ++i)
    for (index_t j = 0; j < A.num_cols(); ++j)
      EXPECT_NEAR(DA(i, j), DB(i, j), tol) << "entry (" << i << "," << j << ")";
}

void expect_matches_dense(const la::CsrMatrix<double>& A,
                          const la::DenseMatrix<double>& D, double tol) {
  ASSERT_EQ(A.num_rows(), D.num_rows());
  ASSERT_EQ(A.num_cols(), D.num_cols());
  const auto DA = to_dense(A);
  for (index_t i = 0; i < A.num_rows(); ++i)
    for (index_t j = 0; j < A.num_cols(); ++j)
      EXPECT_NEAR(DA(i, j), D(i, j), tol) << "entry (" << i << "," << j << ")";
}

void expect_vectors_near(const std::vector<double>& a,
                         const std::vector<double>& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], tol) << "element " << i;
}

void expect_symmetric(const la::CsrMatrix<double>& A, double tol) {
  ASSERT_EQ(A.num_rows(), A.num_cols());
  for (index_t i = 0; i < A.num_rows(); ++i)
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k)
      EXPECT_NEAR(A.val(k), A.at(A.col(k), i), tol)
          << "entry (" << i << "," << A.col(k) << ")";
}

void expect_residual_below(const la::CsrMatrix<double>& A,
                           const std::vector<double>& x,
                           const std::vector<double>& b, double rel_tol) {
  const double bnorm = la::norm2(b);
  EXPECT_LE(la::residual_norm(A, x, b), rel_tol * bnorm)
      << "relative residual above " << rel_tol;
}

bool is_permutation(const IndexVector& p, index_t n) {
  if (index_t(p.size()) != n) return false;
  std::vector<char> seen(size_t(n), 0);
  for (index_t v : p) {
    if (v < 0 || v >= n || seen[v]) return false;
    seen[v] = 1;
  }
  return true;
}

void expect_profiles_equal(const OpProfile& a, const OpProfile& b,
                           const std::string& what) {
  EXPECT_EQ(a.flops, b.flops) << what;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.launches, b.launches) << what;
  EXPECT_EQ(a.critical_path, b.critical_path) << what;
  EXPECT_EQ(a.work_items, b.work_items) << what;
  EXPECT_EQ(a.reductions, b.reductions) << what;
  EXPECT_EQ(a.neighbor_msgs, b.neighbor_msgs) << what;
  EXPECT_EQ(a.msg_bytes, b.msg_bytes) << what;
  EXPECT_EQ(a.sub_reductions, b.sub_reductions) << what;
  EXPECT_EQ(a.sub_red_log2, b.sub_red_log2) << what;
  EXPECT_EQ(a.ov_reductions, b.ov_reductions) << what;
  EXPECT_EQ(a.ov_neighbor_msgs, b.ov_neighbor_msgs) << what;
  EXPECT_EQ(a.ov_msg_bytes, b.ov_msg_bytes) << what;
  EXPECT_EQ(a.overlap_windows, b.overlap_windows) << what;
  EXPECT_EQ(a.overlap_s, b.overlap_s) << what;
}

void expect_ledgers_equal(const device::TransferLedger& a,
                          const device::TransferLedger& b,
                          const std::string& what) {
  EXPECT_EQ(a.launches, b.launches) << what;
  auto same = [&](const device::TransferStats& x,
                  const device::TransferStats& y, const std::string& fam) {
    EXPECT_EQ(x.h2d_count, y.h2d_count) << what << " " << fam;
    EXPECT_EQ(x.h2d_bytes, y.h2d_bytes) << what << " " << fam;
    EXPECT_EQ(x.d2h_count, y.d2h_count) << what << " " << fam;
    EXPECT_EQ(x.d2h_bytes, y.d2h_bytes) << what << " " << fam;
  };
  same(a.total, b.total, "total");
  for (size_t k = 0; k < a.by_op.size(); ++k)
    same(a.by_op[k], b.by_op[k],
         device::to_string(static_cast<device::Xfer>(k)));
}

}  // namespace frosch::test
