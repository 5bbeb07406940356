// Tests for the FEM substrate (src/fem): assembly invariants, null spaces,
// Dirichlet elimination, and solvability of the resulting systems.
#include <gtest/gtest.h>

#include "direct/multifrontal.hpp"
#include "fem/assembly.hpp"
#include "la/ops.hpp"
#include "la/spmv.hpp"
#include "support/compare.hpp"
#include "trisolve/engines.hpp"

namespace frosch::fem {
namespace {

TEST(Mesh, NodeNumberingRoundTrips) {
  BrickMesh mesh(3, 4, 5);
  EXPECT_EQ(mesh.num_nodes(), 4 * 5 * 6);
  for (index_t node : {0, 17, 63, mesh.num_nodes() - 1}) {
    const auto ijk = mesh.node_ijk(node);
    EXPECT_EQ(mesh.node_id(ijk[0], ijk[1], ijk[2]), node);
  }
}

TEST(Mesh, ElementNodesAreCorners) {
  BrickMesh mesh(2, 2, 2);
  const auto n = mesh.elem_nodes(0, 0, 0);
  EXPECT_EQ(n[0], mesh.node_id(0, 0, 0));
  EXPECT_EQ(n[1], mesh.node_id(1, 0, 0));
  EXPECT_EQ(n[2], mesh.node_id(0, 1, 0));
  EXPECT_EQ(n[7], mesh.node_id(1, 1, 1));
}

TEST(Mesh, CoordsScaleWithExtent) {
  BrickMesh mesh(2, 2, 2, 4.0, 2.0, 1.0);
  const auto c = mesh.node_coords(mesh.node_id(2, 1, 0));
  EXPECT_DOUBLE_EQ(c[0], 4.0);
  EXPECT_DOUBLE_EQ(c[1], 1.0);
  EXPECT_DOUBLE_EQ(c[2], 0.0);
}

TEST(Laplace, MatrixIsSymmetric) {
  BrickMesh mesh(3, 3, 3);
  auto A = assemble_laplace(mesh);
  test::expect_symmetric(A, 1e-13);
}

TEST(Laplace, ConstantsInNullSpace) {
  // Pure-Neumann Laplacian annihilates constants: the GDSW null-space input.
  BrickMesh mesh(4, 3, 2);
  auto A = assemble_laplace(mesh);
  auto Z = laplace_nullspace(mesh);
  std::vector<double> z(static_cast<size_t>(A.num_rows()));
  for (index_t i = 0; i < A.num_rows(); ++i) z[i] = Z(i, 0);
  std::vector<double> Az;
  la::spmv(A, z, Az);
  for (double v : Az) EXPECT_NEAR(v, 0.0, 1e-11);
}

TEST(Laplace, DirichletSystemIsSpd) {
  BrickMesh mesh(4, 4, 4);
  auto A = assemble_laplace(mesh);
  IndexVector fixed;
  for (index_t node : mesh.x0_face_nodes()) fixed.push_back(node);
  auto sys = apply_dirichlet(A, fixed);
  EXPECT_EQ(sys.A.num_rows(), A.num_rows() - index_t(fixed.size()));
  direct::MultifrontalCholesky<double> chol;  // throws if not SPD
  chol.symbolic(sys.A);
  EXPECT_NO_THROW(chol.numeric(sys.A));
}

TEST(ConvectionDiffusion, MatrixIsNonsymmetric) {
  // The convection term C_ij = integral N_i (b . grad N_j) is genuinely
  // nonsymmetric -- the whole point of the GMRES workload.
  BrickMesh mesh(3, 3, 3);
  auto A = assemble_convection_diffusion(mesh, 0.5, {1.0, 0.5, 0.25});
  double max_skew = 0.0;
  for (index_t i = 0; i < A.num_rows(); ++i) {
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k) {
      const index_t j = A.col(k);
      if (j <= i) continue;
      for (index_t kk = A.row_begin(j); kk < A.row_end(j); ++kk)
        if (A.col(kk) == i)
          max_skew = std::max(max_skew, std::abs(A.val(k) - A.val(kk)));
    }
  }
  EXPECT_GT(max_skew, 1e-3);
}

TEST(ConvectionDiffusion, ZeroVelocityReducesToScaledLaplace) {
  // With b = 0 only the diffusion term survives: the operator must equal
  // eps times the Laplace stiffness, entry for entry.
  BrickMesh mesh(3, 2, 2);
  const double eps = 0.25;
  auto A = assemble_convection_diffusion(mesh, eps, {0.0, 0.0, 0.0});
  auto L = assemble_laplace(mesh);
  ASSERT_EQ(A.num_entries(), L.num_entries());
  for (index_t k = 0; k < index_t(A.num_entries()); ++k)
    EXPECT_NEAR(A.val(k), eps * L.val(k), 1e-12) << "entry " << k;
}

TEST(ConvectionDiffusion, ConstantsInNullSpace) {
  // Both -eps*div(grad u) and b.grad u annihilate constants, so the
  // laplace null space is still the right GDSW input.
  BrickMesh mesh(3, 3, 2);
  auto A = assemble_convection_diffusion(mesh, 0.5, {1.0, 0.5, 0.25});
  auto Z = laplace_nullspace(mesh);
  std::vector<double> z(static_cast<size_t>(A.num_rows()));
  for (index_t i = 0; i < A.num_rows(); ++i) z[i] = Z(i, 0);
  std::vector<double> Az;
  la::spmv(A, z, Az);
  for (double v : Az) EXPECT_NEAR(v, 0.0, 1e-11);
}

TEST(ConvectionDiffusion, RequiresPositiveDiffusion) {
  BrickMesh mesh(2, 2, 2);
  EXPECT_THROW(assemble_convection_diffusion(mesh, 0.0, {1.0, 0.0, 0.0}),
               Error);
}

TEST(Elasticity, MatrixIsSymmetric) {
  BrickMesh mesh(2, 2, 2);
  auto A = assemble_elasticity(mesh);
  test::expect_symmetric(A, 1e-9);
}

TEST(Elasticity, RigidBodyModesAreNullSpace) {
  // The paper's Section III step 3: translations AND linearized rotations
  // annihilate the pure-Neumann elasticity operator.
  BrickMesh mesh(3, 2, 2, 2.0, 1.0, 1.5);
  auto A = assemble_elasticity(mesh);
  auto Z = elasticity_nullspace(mesh);
  ASSERT_EQ(Z.num_cols(), 6);
  const double scale = 210.0;  // compare against the stiffness magnitude
  for (index_t c = 0; c < 6; ++c) {
    std::vector<double> z(static_cast<size_t>(A.num_rows()));
    for (index_t i = 0; i < A.num_rows(); ++i) z[i] = Z(i, c);
    std::vector<double> Az;
    la::spmv(A, z, Az);
    for (double v : Az) EXPECT_NEAR(v, 0.0, 1e-10 * scale) << "mode " << c;
  }
}

TEST(Elasticity, TranslationsOnlyVariant) {
  BrickMesh mesh(2, 2, 2);
  auto Z = elasticity_nullspace(mesh, /*translations_only=*/true);
  EXPECT_EQ(Z.num_cols(), 3);
  for (index_t v = 0; v < mesh.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(Z(3 * v + 0, 0), 1.0);
    EXPECT_DOUBLE_EQ(Z(3 * v + 1, 0), 0.0);
  }
}

TEST(Elasticity, ClampedSystemIsSpdAndSolvable) {
  BrickMesh mesh(3, 2, 2);
  auto A = assemble_elasticity(mesh);
  auto sys = apply_dirichlet(A, clamped_x0_dofs(mesh));
  direct::MultifrontalCholesky<double> chol;
  chol.symbolic(sys.A);
  EXPECT_NO_THROW(chol.numeric(sys.A));
  // Solve a gravity-load problem and sanity-check the deflection direction.
  std::vector<double> b(static_cast<size_t>(sys.A.num_rows()), 0.0);
  for (size_t q = 0; q < sys.keep.size(); ++q)
    if (sys.keep[q] % 3 == 2) b[q] = -1.0;  // z-load
  trisolve::SubstitutionEngine<double> engine;
  engine.setup(chol.factorization(), nullptr);
  std::vector<double> x;
  engine.solve(b, x, nullptr);
  double zsum = 0.0;
  for (size_t q = 0; q < sys.keep.size(); ++q)
    if (sys.keep[q] % 3 == 2) zsum += x[q];
  EXPECT_LT(zsum, 0.0);  // beam deflects downward
}

TEST(Elasticity, PoissonRatioValidation) {
  BrickMesh mesh(1, 1, 1);
  ElasticityMaterial bad;
  bad.poisson_ratio = 0.5;
  EXPECT_THROW(assemble_elasticity(mesh, bad), Error);
}

TEST(Dirichlet, MappingsAreConsistent) {
  BrickMesh mesh(2, 2, 2);
  auto A = assemble_laplace(mesh);
  IndexVector fixed{0, 5, 11};
  auto sys = apply_dirichlet(A, fixed);
  for (size_t r = 0; r < sys.keep.size(); ++r)
    EXPECT_EQ(sys.full_to_red[sys.keep[r]], index_t(r));
  for (index_t f : fixed) EXPECT_EQ(sys.full_to_red[f], -1);
}

TEST(Dirichlet, RestrictNullspaceSelectsRows) {
  BrickMesh mesh(2, 2, 2);
  auto Z = elasticity_nullspace(mesh);
  IndexVector keep{0, 4, 10};
  auto R = restrict_nullspace(Z, keep);
  EXPECT_EQ(R.num_rows(), 3);
  for (index_t c = 0; c < 6; ++c) EXPECT_DOUBLE_EQ(R(1, c), Z(4, c));
}

class AssemblySweep
    : public ::testing::TestWithParam<std::tuple<index_t, index_t, index_t>> {};

TEST_P(AssemblySweep, RowSumsVanishForNeumannOperators) {
  // Row sums of a pure-Neumann stiffness vanish (constants in null space) --
  // checked across mesh shapes for both problems.
  const auto [ex, ey, ez] = GetParam();
  BrickMesh mesh(ex, ey, ez);
  auto AL = assemble_laplace(mesh);
  for (index_t i = 0; i < AL.num_rows(); ++i) {
    double s = 0.0;
    for (index_t k = AL.row_begin(i); k < AL.row_end(i); ++k) s += AL.val(k);
    EXPECT_NEAR(s, 0.0, 1e-11);
  }
  auto AE = assemble_elasticity(mesh);
  for (index_t i = 0; i < AE.num_rows(); ++i) {
    double s = 0.0;
    for (index_t k = AE.row_begin(i); k < AE.row_end(i); ++k)
      if (AE.col(k) % 3 == i % 3) s += AE.val(k);  // same-component block
    EXPECT_NEAR(s, 0.0, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, AssemblySweep,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{3, 1, 2},
                                           std::tuple{2, 3, 4},
                                           std::tuple{5, 5, 1}));

}  // namespace
}  // namespace frosch::fem
