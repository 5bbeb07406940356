// Unit tests for the sparse direct solvers (src/direct): elimination tree,
// symbolic Cholesky, Gilbert-Peierls LU, multifrontal Cholesky, supernodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <type_traits>

#include "common/half.hpp"
#include "direct/elimination_tree.hpp"
#include "direct/gp_lu.hpp"
#include "direct/multifrontal.hpp"
#include "graph/nested_dissection.hpp"
#include "la/ops.hpp"
#include "la/spmv.hpp"
#include "support/matrices.hpp"
#include "support/problems.hpp"
#include "trisolve/engines.hpp"

namespace frosch::direct {
namespace {

using test::laplace2d;
using test::random_nonsym;
using test::random_vector;

/// x = U^{-1} L^{-1} P b by sequential substitution.
template <class Scalar>
std::vector<Scalar> solve_with(const Factorization<Scalar>& f,
                               const std::vector<Scalar>& b) {
  trisolve::SubstitutionEngine<Scalar> engine;
  engine.setup(f, nullptr);
  std::vector<Scalar> x;
  engine.solve(b, x, nullptr);
  return x;
}

TEST(EliminationTree, TridiagonalIsAPath) {
  la::TripletBuilder<double> b(5, 5);
  for (index_t i = 0; i < 5; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < 5) b.add(i, i + 1, -1.0);
  }
  auto parent = elimination_tree(b.build());
  for (index_t i = 0; i + 1 < 5; ++i) EXPECT_EQ(parent[i], i + 1);
  EXPECT_EQ(parent[4], -1);
}

TEST(EliminationTree, PostorderVisitsChildrenFirst) {
  auto A = laplace2d(6, 6);
  auto parent = elimination_tree(A);
  auto post = tree_postorder(parent);
  IndexVector seen(post.size(), 0);
  std::vector<char> done(post.size(), 0);
  for (index_t v : post) {
    if (parent[v] != -1) {
      EXPECT_FALSE(done[parent[v]]) << "parent before child";
    }
    done[v] = 1;
  }
}

TEST(EliminationTree, LevelsBoundedByHeight) {
  auto A = laplace2d(8, 8);
  auto parent = elimination_tree(A);
  index_t h = 0;
  auto level = tree_levels(parent, &h);
  for (index_t v = 0; v < 64; ++v) {
    EXPECT_GE(level[v], 1);
    EXPECT_LE(level[v], h);
    if (parent[v] != -1) {
      EXPECT_GT(level[parent[v]], level[v]);
    }
  }
}

TEST(EliminationTree, NdOrderingShrinksTreeHeight) {
  // The GPU-relevant property: nested dissection makes the etree shallower
  // than the natural (banded) ordering, exposing level parallelism.
  auto A = laplace2d(16, 16);
  auto parent_nat = elimination_tree(A);
  index_t h_nat = 0;
  tree_levels(parent_nat, &h_nat);

  auto g = graph::build_graph(A);
  auto perm = graph::nested_dissection(g);
  auto And = la::permute_symmetric(A, perm);
  auto parent_nd = elimination_tree(And);
  index_t h_nd = 0;
  tree_levels(parent_nd, &h_nd);
  EXPECT_LT(h_nd, h_nat);
}

TEST(SymbolicCholesky, PatternContainsMatrixLowerTriangle) {
  auto A = laplace2d(5, 5);
  auto parent = elimination_tree(A);
  auto Lpat = symbolic_cholesky(A, parent);
  // Every lower-triangle entry of A must appear in L's pattern:
  // column j of L (row j of Lpat) contains row index i for A(i,j)!=0, i>=j.
  for (index_t i = 0; i < A.num_rows(); ++i) {
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k) {
      const index_t j = A.col(k);
      if (j > i) continue;
      EXPECT_GE(Lpat.find(j, i), 0) << "missing L(" << i << "," << j << ")";
    }
  }
}

TEST(GpLu, SolvesRandomNonsymmetricSystem) {
  auto A = random_nonsym(60, 0.15, 7);
  auto xref = random_vector(60, 8);
  std::vector<double> b;
  la::spmv(A, xref, b);
  GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  lu.numeric(A);
  auto x = solve_with(lu.factorization(), b);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], xref[i], 1e-8);
}

TEST(GpLu, PivotsOnIndefiniteMatrix) {
  // A matrix that breaks no-pivot LU: zero leading diagonal entry.
  la::TripletBuilder<double> b(3, 3);
  b.add(0, 0, 0.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 3.0);
  b.add(1, 2, 1.0);
  b.add(2, 1, 1.0);
  b.add(2, 2, 1.0);
  auto A = b.build();
  GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  lu.numeric(A);
  std::vector<double> rhs{2, 4, 2};
  auto x = solve_with(lu.factorization(), rhs);
  std::vector<double> Ax;
  la::spmv(A, x, Ax);
  for (index_t i = 0; i < 3; ++i) EXPECT_NEAR(Ax[i], rhs[i], 1e-12);
}

TEST(GpLu, ThrowsOnSingularMatrix) {
  la::TripletBuilder<double> b(2, 2);
  b.add(0, 0, 1.0);
  b.add(1, 0, 2.0);  // column 1 empty => structurally singular
  auto A = b.build();
  GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  EXPECT_THROW(lu.numeric(A), Error);
}

TEST(GpLu, ProfileMarksSequentialCriticalPath) {
  auto A = random_nonsym(40, 0.2, 3);
  GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  OpProfile prof;
  lu.numeric(A, &prof);
  EXPECT_EQ(prof.critical_path, 40);  // left-looking: one column at a time
  EXPECT_FALSE(lu.symbolic_reusable());
}

TEST(Multifrontal, SolvesLaplaceSystem) {
  auto A = laplace2d(9, 7);
  auto xref = random_vector(A.num_rows(), 21);
  std::vector<double> b;
  la::spmv(A, xref, b);
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  auto x = solve_with(chol.factorization(), b);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], xref[i], 1e-9);
}

TEST(Multifrontal, FactorIsCholesky) {
  // L * L^T must reproduce A.
  auto A = laplace2d(4, 4);
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& f = chol.factorization();
  auto LLt = la::spgemm(f.L, f.U);
  for (index_t i = 0; i < A.num_rows(); ++i)
    for (index_t j = 0; j < A.num_cols(); ++j)
      EXPECT_NEAR(LLt.at(i, j), A.at(i, j), 1e-12);
}

TEST(Multifrontal, SymbolicReusedAcrossNumericCalls) {
  auto A = laplace2d(6, 6);
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  auto x1 = chol.factorization().L.values();
  // Scale the matrix values (same pattern), refactor without new symbolic.
  auto A2 = A;
  for (auto& v : A2.values()) v *= 4.0;
  chol.numeric(A2);
  auto x2 = chol.factorization().L.values();
  ASSERT_EQ(x1.size(), x2.size());
  for (size_t k = 0; k < x1.size(); ++k) EXPECT_NEAR(x2[k], 2.0 * x1[k], 1e-10);
  EXPECT_TRUE(chol.symbolic_reusable());
}

/// The message MultifrontalCholesky::numeric throws on A ("" if none).
std::string numeric_error(const la::CsrMatrix<double>& A) {
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  try {
    chol.numeric(A);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Multifrontal, ThrowsOnIndefiniteMatrix) {
  la::TripletBuilder<double> b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 3.0);
  b.add(1, 0, 3.0);
  b.add(1, 1, 1.0);  // eigenvalues 4, -2: not SPD
  auto A = b.build();
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  EXPECT_THROW(chol.numeric(A), Error);
  // One front holds both columns; the message names the matrix column,
  // not the pivot's position inside the front.
  const std::string msg = numeric_error(A);
  EXPECT_NE(msg.find("non-positive pivot at column 1"), std::string::npos)
      << msg;

  // The same block behind an independent column fails in the front {1, 2}
  // at its second pivot: column 2.
  la::TripletBuilder<double> b3(3, 3);
  b3.add(0, 0, 2.0);
  b3.add(1, 1, 1.0);
  b3.add(1, 2, 3.0);
  b3.add(2, 1, 3.0);
  b3.add(2, 2, 1.0);
  const std::string msg3 = numeric_error(b3.build());
  EXPECT_NE(msg3.find("non-positive pivot at column 2"), std::string::npos)
      << msg3;
}

TEST(Multifrontal, NumericProfileLaunchesEqualTreeHeight) {
  // ND ordering gives a shallow etree; the numeric profile must report one
  // batched launch per etree level (the Tacho-style level-set schedule).
  auto A = laplace2d(10, 10);
  auto perm = graph::nested_dissection(graph::build_graph(A));
  A = la::permute_symmetric(A, perm);
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  OpProfile prof;
  chol.numeric(A, &prof);
  EXPECT_EQ(prof.launches, chol.tree_height());
  EXPECT_LT(chol.tree_height(), A.num_rows());  // real level parallelism
}

/// Checks the factor entrywise against a dense reference Cholesky of A, and
/// that the cached supernode partition is that of the packed factor.
void expect_matches_dense_cholesky(const la::CsrMatrix<double>& A,
                                   const MultifrontalCholesky<double>& chol) {
  const index_t n = A.num_rows();
  auto D = test::to_dense(A);
  la::partial_cholesky(D, n);
  double scale = 0.0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) scale = std::max(scale, std::abs(D(i, j)));
  const auto& f = chol.factorization();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i)
      ASSERT_NEAR(f.L.at(i, j), D(i, j), 1e-13 * scale)
          << "L(" << i << "," << j << ")";
  EXPECT_EQ(f.sn_ptr, detect_supernodes(f.U));
}

TEST(Supernodes, DetectedOnDenseBlockFactor) {
  // A dense SPD matrix has one supernode spanning all columns.
  const index_t n = 6;
  la::TripletBuilder<double> b(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) b.add(i, j, (i == j) ? double(n) : 0.5);
  auto A = b.build();
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& sn = chol.factorization().sn_ptr;
  ASSERT_EQ(sn.size(), 2u);
  EXPECT_EQ(sn[0], 0);
  EXPECT_EQ(sn[1], n);
  expect_matches_dense_cholesky(A, chol);
}

TEST(Supernodes, TrivialOnDiagonalMatrix) {
  la::TripletBuilder<double> b(5, 5);
  for (index_t i = 0; i < 5; ++i) b.add(i, i, double(i + 1));
  auto A = b.build();
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  EXPECT_EQ(chol.factorization().sn_ptr.size(), 6u);  // every column alone
  expect_matches_dense_cholesky(A, chol);
}

TEST(SupernodalFronts, NdElasticityBrickMatchesDenseCholesky) {
  // Three coupled dofs per node make every ND separator a wide supernode,
  // and separators collect the fronts of several child supernodes.
  auto A = test::elasticity_problem(4, 1, 1, 1).A;
  const index_t nq = A.num_rows() / 3;
  la::TripletBuilder<char> qb(nq, nq);
  for (index_t i = 0; i < A.num_rows(); ++i)
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k)
      qb.add(i / 3, A.col(k) / 3, 1);
  IndexVector perm;
  for (index_t q : graph::nested_dissection(graph::build_graph(qb.build())))
    for (index_t c = 0; c < 3; ++c) perm.push_back(3 * q + c);
  A = la::permute_symmetric(A, perm);
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  expect_matches_dense_cholesky(A, chol);

  const auto& sn = chol.factorization().sn_ptr;
  const index_t nsn = static_cast<index_t>(sn.size()) - 1;
  IndexVector sn_of(static_cast<size_t>(A.num_rows())), nchildren(sn.size(), 0);
  index_t widest = 0;
  for (index_t s = 0; s < nsn; ++s) {
    widest = std::max(widest, sn[s + 1] - sn[s]);
    for (index_t j = sn[s]; j < sn[s + 1]; ++j) sn_of[j] = s;
  }
  for (index_t s = 0; s < nsn; ++s) {
    const index_t p = chol.etree_parent()[sn[s + 1] - 1];
    if (p != -1) ++nchildren[sn_of[p]];
  }
  EXPECT_GT(widest, 3);
  EXPECT_GE(*std::max_element(nchildren.begin(), nchildren.end()), 2);
}

TEST(SupernodalFronts, NaturalTridiagonalIsAPathOfNarrowFronts) {
  auto A = test::tridiag(20, 2.5, -1.0);
  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  expect_matches_dense_cholesky(A, chol);
  // Every column alone except the last two, which share one front.
  EXPECT_EQ(chol.factorization().sn_ptr.size(), 20u);
}

TEST(SupernodalFronts, RefactorOnCachedSymbolicIsBitwiseFresh) {
  auto A1 = test::elasticity_problem(3, 1, 1, 1).A;
  auto perm = graph::nested_dissection(graph::build_graph(A1));
  A1 = la::permute_symmetric(A1, perm);
  auto A2 = A1;
  const auto d = random_vector(A2.num_rows(), 5);
  for (index_t i = 0; i < A2.num_rows(); ++i)
    for (index_t k = A2.row_begin(i); k < A2.row_end(i); ++k)
      A2.values()[k] *= (1.5 + 0.25 * d[i]) * (1.5 + 0.25 * d[A2.col(k)]);

  MultifrontalCholesky<double> reused;
  reused.symbolic(A1);
  reused.numeric(A1);
  reused.numeric(A2);
  MultifrontalCholesky<double> fresh;
  fresh.symbolic(A2);
  fresh.numeric(A2);
  const auto& r = reused.factorization().L.values();
  const auto& f = fresh.factorization().L.values();
  ASSERT_EQ(r.size(), f.size());
  EXPECT_EQ(std::memcmp(r.data(), f.data(), r.size() * sizeof(double)), 0);
  EXPECT_EQ(reused.factorization().sn_ptr, fresh.factorization().sn_ptr);
  expect_matches_dense_cholesky(A2, reused);
}

template <class Scalar>
class LowPrecisionFronts : public ::testing::Test {};
using LowPrecisionScalars = ::testing::Types<float, half>;
TYPED_TEST_SUITE(LowPrecisionFronts, LowPrecisionScalars);

TYPED_TEST(LowPrecisionFronts, SolveSmallSpdSystem) {
  using Scalar = TypeParam;
  auto Ad = laplace2d(6, 5);
  Ad = la::permute_symmetric(Ad, graph::nested_dissection(graph::build_graph(Ad)));
  const auto A = Ad.template convert<Scalar>();
  const auto xref = random_vector(A.num_rows(), 11);
  std::vector<double> bd;
  la::spmv(Ad, xref, bd);
  MultifrontalCholesky<Scalar> chol;
  chol.symbolic(A);
  chol.numeric(A);
  const auto& f = chol.factorization();
  EXPECT_EQ(f.sn_ptr, detect_supernodes(f.U));
  const std::vector<Scalar> x =
      solve_with(f, std::vector<Scalar>(bd.begin(), bd.end()));
  // Laplace's condition number here is ~30: the error is a few units of
  // the precision's roundoff times that.
  const double tol = std::is_same_v<Scalar, float> ? 1e-4 : 5e-2;
  for (size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(static_cast<double>(x[i]), xref[i], tol) << i;
}

class DirectSweep : public ::testing::TestWithParam<std::tuple<index_t, bool>> {};

TEST_P(DirectSweep, BothBackendsAgreeOnSpdSystems) {
  const auto [nx, use_nd] = GetParam();
  auto A = laplace2d(nx, nx);
  if (use_nd) {
    auto perm = graph::nested_dissection(graph::build_graph(A));
    A = la::permute_symmetric(A, perm);
  }
  auto xref = random_vector(A.num_rows(), unsigned(nx));
  std::vector<double> b;
  la::spmv(A, xref, b);

  GilbertPeierlsLu<double> lu;
  lu.symbolic(A);
  lu.numeric(A);
  auto xlu = solve_with(lu.factorization(), b);

  MultifrontalCholesky<double> chol;
  chol.symbolic(A);
  chol.numeric(A);
  auto xch = solve_with(chol.factorization(), b);

  for (size_t i = 0; i < xref.size(); ++i) {
    EXPECT_NEAR(xlu[i], xref[i], 1e-8);
    EXPECT_NEAR(xch[i], xref[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, DirectSweep,
    ::testing::Combine(::testing::Values(4, 7, 12, 20),
                       ::testing::Values(false, true)));

}  // namespace
}  // namespace frosch::direct
