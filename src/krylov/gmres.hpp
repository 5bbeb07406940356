// Restarted GMRES [Saad & Schultz 1986] with right preconditioning and a
// selectable orthogonalization scheme, including the SINGLE-REDUCE low-
// synchronization variant [Swirydowicz, Langou, Ananthan, Yang, Thomas 2021]
// that the paper uses for all experiments (Section VII): one global
// all-reduce per iteration instead of one per basis vector.
//
// The reduction counts are recorded on the OpProfile (via dot/multi_dot) and
// priced by the perf/ collective model -- on hundreds of ranks the latency
// difference between the variants is exactly the effect [30] measures.
#pragma once

#include <array>
#include <functional>
#include <string>

#include "common/enum_parse.hpp"
#include "exec/exec.hpp"
#include "krylov/operator.hpp"
#include "la/dense.hpp"
#include "la/dist.hpp"
#include "la/vector_ops.hpp"

namespace frosch::krylov {

enum class OrthoKind {
  MGS,          ///< modified Gram-Schmidt: j+1 reductions per iteration
  CGS2,         ///< re-orthogonalized classical GS: 3 fused reductions
  SingleReduce, ///< fused [V^T w; w^T w]: ONE reduction per iteration
};

const char* to_string(OrthoKind k);

/// Observes the solve as it progresses: called once per Krylov iteration
/// with the 1-based iteration number and the current residual estimate.
using IterationCallback = std::function<void(index_t iteration, double residual)>;

struct GmresOptions {
  index_t restart = 30;         ///< paper setting
  index_t max_iters = 2000;
  double tol = 1e-7;            ///< relative to the initial residual (paper)
  OrthoKind ortho = OrthoKind::SingleReduce;
  IterationCallback on_iteration;  ///< optional per-iteration observer
  exec::ExecPolicy exec;  ///< vector-kernel execution (dots, axpys, scales)
  /// Virtual distributed-memory context: when active, every reduction and
  /// norm is a MEASURED communicated event through the communicator (one
  /// fused all-reduce per single-reduce iteration) and per-rank Krylov work
  /// is attributed by row ownership.  Inactive (default): the shared-memory
  /// kernels, bitwise identical results.
  la::DistContext dist;
};

struct SolveResult {
  bool converged = false;
  index_t iterations = 0;       ///< total Arnoldi steps across restarts
  double initial_residual = 0.0;
  double final_residual = 0.0;  ///< true residual at the last restart check
  /// residual_history[0] is the initial residual; one entry per iteration
  /// follows (the implicit Givens estimate for GMRES, the recurrence
  /// residual for CG), with restart/convergence checks replacing the last
  /// entry of a cycle by the explicitly computed true residual.
  std::vector<double> residual_history;
  OpProfile profile;            ///< whole-solve operation profile
};

/// Right-preconditioned restarted GMRES:  solves A x = b, applying
/// prec = M^{-1} after every operator application (pass nullptr for none).
/// x serves as initial guess and result.  A width-1 block_gmres
/// (krylov/block.hpp), so every orthogonalization kind is allowed here;
/// instantiated for double and float.
template <class Scalar>
SolveResult gmres(const LinearOperator<Scalar>& A,
                  const LinearOperator<Scalar>* prec,
                  const std::vector<Scalar>& b, std::vector<Scalar>& x,
                  const GmresOptions& opts = {});

}  // namespace frosch::krylov

namespace frosch {

template <>
struct EnumTraits<krylov::OrthoKind> {
  static constexpr const char* type_name = "OrthoKind";
  static constexpr std::array<krylov::OrthoKind, 3> all = {
      krylov::OrthoKind::MGS, krylov::OrthoKind::CGS2,
      krylov::OrthoKind::SingleReduce};
};

}  // namespace frosch
