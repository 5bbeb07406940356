// The coarse-level solver boundary of the multilevel hierarchy
// (DESIGN.md section 10).
//
// SchwarzPreconditioner owns WHERE the coarse problem appears in the
// additive method (gather the rhs, solve, replicate the correction); the
// hierarchy owns HOW it is solved: on which process subset, and whether
// directly or recursively through another Schwarz level.  This header is
// the dd-side half of that boundary -- an abstract CoarseLevelSolver the
// preconditioner delegates to, plus the hierarchy configuration it is
// built from -- so dd never depends on the concrete mlevel subsystem
// (which sits ABOVE dd in the layer DAG and includes schwarz.hpp to build
// its recursive levels).
//
// When no CoarseLevelSolver is installed, SchwarzPreconditioner runs its
// historical inline path: factor the gathered coarse matrix with one
// LocalSolver and solve it on the root.  The mlevel::CoarseHierarchy's
// default configuration (levels=2, coarse_ranks=root) replicates that
// path operation for operation, which is what keeps the facade's default
// behavior bitwise identical to the pre-hierarchy code.
#pragma once

#include <array>
#include <vector>

#include "common/enum_parse.hpp"
#include "common/op_profile.hpp"
#include "la/csr.hpp"
#include "la/vector_ops.hpp"

namespace frosch::comm {
class Communicator;
}

namespace frosch::dd {

/// Which ranks participate in the coarse solve (the paper lineage's
/// process-subset coarse strategy): the root only (the replicated
/// baseline), every k-th rank, or all of them.
enum class CoarseRanks {
  Root,      ///< rank 0 only -- the replicated-coarse baseline
  Every8th,  ///< ranks 0, 8, 16, ...
  Every4th,  ///< ranks 0, 4, 8, ...
  Every2nd,  ///< ranks 0, 2, 4, ...
  All,       ///< every rank of the outer communicator
};

const char* to_string(CoarseRanks k);

/// The member world ranks of the coarse subset for an outer communicator
/// of `nranks` ranks: {0} for Root, {0, k, 2k, ...} for Every-k-th,
/// everyone for All.  Always nonempty and always contains rank 0.
std::vector<int> coarse_members(int nranks, CoarseRanks kind);

/// How the coarse problem is solved (solver/config keys `levels`,
/// `coarse_ranks`, `coarse_parts`).  levels=2 keeps the classical
/// two-level method; levels=L>2 re-partitions each coarse matrix and
/// preconditions it with another Schwarz level, L-2 times, terminating in
/// a direct solve at the top.
struct HierarchyConfig {
  index_t levels = 2;  ///< total levels incl. the fine one (2 = classical)
  CoarseRanks coarse_ranks = CoarseRanks::Root;  ///< coarse process subset
  index_t coarse_parts = 0;  ///< subdomains per recursive level (0 = auto)
};

/// One level of the coarse hierarchy as the SolveReport presents it:
/// dimensions, the process subset that solved it, and the per-subset-rank
/// compute shares the Summit model prices over that subset (not over P).
struct CoarseLevelReport {
  index_t level = 2;    ///< 2 = the first coarse level
  index_t dim = 0;      ///< rows of this level's operator
  int subset_size = 1;  ///< ranks participating in this level's solve
  index_t parts = 0;    ///< Schwarz subdomains at this level (0 = direct)
  std::vector<OpProfile> rank_numeric;  ///< per-subset-rank setup compute
  std::vector<OpProfile> rank_solve;    ///< per-subset-rank apply compute
};

/// Abstract coarse-level solver the SchwarzPreconditioner delegates to
/// when one is installed (set_coarse_solver).  The preconditioner hands
/// over the ASSEMBLED coarse matrix and its communicator; the
/// implementation owns subset scoping, factorization, and recursion.
/// Every prof out-parameter is mandatory and accumulates exactly the
/// compute the historical inline path would have recorded, so the
/// breakdown attribution ("coarse-factorization", coarse PhaseProfile)
/// is unchanged by the delegation.
template <class Scalar>
class CoarseLevelSolver {
 public:
  virtual ~CoarseLevelSolver() = default;

  /// Full (re)build against a freshly assembled coarse matrix: subset
  /// setup, symbolic + numeric factorization of every level.
  virtual void numeric_setup(const la::CsrMatrix<Scalar>& A0,
                             comm::Communicator& comm, OpProfile* prof) = 0;

  /// Numeric-only refresh: re-factor each level against its cached
  /// symbolic layers (DESIGN.md section 9).  Falls back to a full rebuild
  /// when the coarse pattern changed; either way the refreshed hierarchy
  /// solves bitwise identically to a cold numeric_setup on the same A0.
  virtual void numeric_refresh(const la::CsrMatrix<Scalar>& A0,
                               comm::Communicator& comm, OpProfile* prof) = 0;

  /// z0 = (approximate) A0^{-1} r0.  z0 is pre-sized by the caller.
  /// Exact for a terminal direct level; one recursive Schwarz application
  /// otherwise.
  virtual void solve(const std::vector<Scalar>& r0, std::vector<Scalar>& z0,
                     OpProfile* prof) const = 0;

  /// The w-column form of solve(): R0 and Z0 are row-major interleaved
  /// blocks (entry (i, c) at i*w + c), Z0 is resized to R0's size.  Each
  /// column is bitwise identical to its solo solve(), and every profile
  /// charge and collective equals those of w solo calls.  This default runs
  /// one solve() per column.
  virtual void solve_columns(const std::vector<Scalar>& R0,
                             std::vector<Scalar>& Z0, index_t w,
                             OpProfile* prof) const {
    const auto rs = la::deinterleave(R0, w);
    std::vector<std::vector<Scalar>> zs(rs.size());
    for (size_t c = 0; c < rs.size(); ++c) {
      zs[c].resize(rs[c].size());
      solve(rs[c], zs[c], prof);
    }
    Z0 = la::interleave(zs);
  }

  /// Snapshot of the per-level dimensions, subset sizes, and compute
  /// shares accumulated so far (fine level excluded; index 0 is level 2).
  virtual std::vector<CoarseLevelReport> level_reports() const = 0;
};

}  // namespace frosch::dd

namespace frosch {

template <>
struct EnumTraits<dd::CoarseRanks> {
  static constexpr const char* type_name = "CoarseRanks";
  static constexpr std::array<dd::CoarseRanks, 5> all = {
      dd::CoarseRanks::Root, dd::CoarseRanks::Every8th,
      dd::CoarseRanks::Every4th, dd::CoarseRanks::Every2nd,
      dd::CoarseRanks::All};
};

}  // namespace frosch
