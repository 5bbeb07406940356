// The Krylov core: block GMRES and block CG run WIDTH independent solves
// in lockstep over a multi-column block, fusing the per-iteration
// communication across columns --
//
//   * operator / preconditioner applications go through
//     LinearOperator::apply_columns (one ghost import per block application
//     on the distributed operator),
//   * every reduction stage batches ALL columns' partial sums into ONE
//     measured allreduce_slots via la::dist_fused_dots, so a single-reduce
//     GMRES iteration performs exactly one collective regardless of the
//     width (CG keeps its fixed three stages per iteration).
//
// The single-vector gmres() / cg() are this code at width 1 -- there is
// no second implementation.  Fused all-reduce slots fold independently, so
// a column's trajectory -- iterates, Givens rotations, residual history,
// iteration count -- never depends on which other columns share the block:
// it is reproduced bit for bit by its solo solve and at ANY batch
// composition.  Converged columns are DEFLATED: they drop out of the
// lockstep and stop contributing work and all-reduce payload while the
// rest continue.
#pragma once

#include "krylov/cg.hpp"
#include "krylov/gmres.hpp"

namespace frosch::krylov {

/// Result of one batched block solve: per-column convergence data (each
/// column's entries match a solo solve of that column bitwise) plus the
/// whole-block aggregate operation profile.  Per-column profiles are not
/// separable -- fused collectives and block applications are shared -- so
/// columns[c].profile stays empty and `profile` carries the block totals.
struct BlockSolveResult {
  std::vector<SolveResult> columns;
  OpProfile profile;

  bool all_converged() const {
    for (const auto& c : columns)
      if (!c.converged) return false;
    return true;
  }
  index_t max_iterations() const {
    index_t m = 0;
    for (const auto& c : columns) m = std::max(m, c.iterations);
    return m;
  }
};

/// Block GMRES over B.size() right-hand sides; X[c] obeys the single-vector
/// initial-guess contract per column (empty = zero guess, system-sized =
/// warm start).  Above width 1 it requires opts.ortho ==
/// OrthoKind::SingleReduce -- the only orthogonalization whose
/// per-iteration reduction structure is width-independent (MGS/CGS2 would
/// serialize desynchronized columns).
template <class Scalar>
BlockSolveResult block_gmres(const LinearOperator<Scalar>& A,
                             const LinearOperator<Scalar>* prec,
                             const std::vector<std::vector<Scalar>>& B,
                             std::vector<std::vector<Scalar>>& X,
                             const GmresOptions& opts = {});

/// Block CG over B.size() right-hand sides (same contracts as block_gmres;
/// three fused reductions per lockstep iteration regardless of width).
template <class Scalar>
BlockSolveResult block_cg(const LinearOperator<Scalar>& A,
                          const LinearOperator<Scalar>* prec,
                          const std::vector<std::vector<Scalar>>& B,
                          std::vector<std::vector<Scalar>>& X,
                          const CgOptions& opts = {});

}  // namespace frosch::krylov
