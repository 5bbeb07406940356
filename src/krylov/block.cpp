#include "krylov/block.hpp"

#include <cmath>

#include "common/error.hpp"

// The one Krylov core of restarted GMRES and CG (see block.hpp).  Every
// entry point -- gmres(), cg(), block_gmres(), block_cg() -- runs the same
// lockstep loop over pointer columns; a single-vector solve is width 1.
// Every distributed reduction of a lockstep stage is one slot range of a
// fused dist_fused_dots call, so a column's arithmetic, and the bits it
// produces, never depend on which other columns share the block.
namespace frosch::krylov {

const char* to_string(OrthoKind k) {
  switch (k) {
    case OrthoKind::MGS: return "mgs";
    case OrthoKind::CGS2: return "cgs2";
    case OrthoKind::SingleReduce: return "single-reduce";
  }
  return "unknown";
}

namespace {

template <class Scalar>
using ColPtrs = std::vector<const std::vector<Scalar>*>;
template <class Scalar>
using MutColPtrs = std::vector<std::vector<Scalar>*>;

/// The block initial-guess contract: X is empty (every column a zero
/// guess) or matches B's width; the columns are handed to the core by
/// pointer.
template <class Scalar>
void column_ptrs(const std::vector<std::vector<Scalar>>& B,
                 std::vector<std::vector<Scalar>>& X, ColPtrs<Scalar>& bs,
                 MutColPtrs<Scalar>& xs, const char* who) {
  FROSCH_CHECK(B.size() == X.size() || X.empty(),
               who << ": X must be empty or match B's width");
  if (X.empty()) X.resize(B.size());
  for (size_t c = 0; c < B.size(); ++c) {
    bs.push_back(&B[c]);
    xs.push_back(&X[c]);
  }
}

/// A width-1 solve's result: the column's convergence data, carrying the
/// block's aggregate operation profile.
SolveResult solo(BlockSolveResult&& br) {
  SolveResult res = std::move(br.columns[0]);
  res.profile = br.profile;
  return res;
}

// ---------------------------------------------------------------------------
// GMRES
// ---------------------------------------------------------------------------

template <class Scalar>
struct GmresColumn {
  std::vector<std::vector<Scalar>> V;
  la::DenseMatrix<Scalar> H;
  std::vector<Scalar> cs, sn, g, h;
  std::vector<Scalar> r, w, z;
  const std::vector<Scalar>* b = nullptr;
  std::vector<Scalar>* x = nullptr;
  double beta = 0.0, target = 0.0;
  index_t j = 0;
  bool finished = false;
  bool at_restart = true;  ///< cycle must be (re)initialized before stepping
  bool end_cycle = false;  ///< flagged for this iteration's cycle-end stage
  SolveResult res;

  GmresColumn() : H(0, 0) {}
};

/// The width-1 orthogonalizations (MGS and CGS2, kept for the
/// orthogonalization ablation): orthogonalizes w against V[0..j], writing
/// the coefficients into h[0..j] and the norm of the orthogonalized w into
/// h[j+1] (zero on breakdown).  Their reduction count grows with the basis
/// or comes in rounds, so they cannot fuse across columns.
template <class Scalar>
void orthogonalize_column(std::vector<std::vector<Scalar>>& V, index_t j,
                          std::vector<Scalar>& w, std::vector<Scalar>& h,
                          OrthoKind kind, OpProfile* prof,
                          const exec::ExecPolicy& ex,
                          const la::DistContext& dc) {
  using la::dist_axpy;
  using la::dist_dot;
  using la::dist_multi_dot;
  using la::dist_norm2;
  if (kind == OrthoKind::MGS) {
    // One reduction per projection plus the final norm: j+2 reductions.
    for (index_t i = 0; i <= j; ++i) {
      const Scalar hij = dist_dot(dc, V[i], w, prof, ex);
      h[i] = hij;
      dist_axpy(dc, -hij, V[i], w, prof, ex);
    }
    const Scalar nrm = dist_norm2(dc, w, prof, ex);
    h[j + 1] = nrm;
    return;
  }
  // CGS2: two fused projection passes + final norm: 3 reductions.
  std::vector<Scalar> c1, c2;
  std::vector<std::vector<Scalar>> basis(V.begin(), V.begin() + j + 1);
  dist_multi_dot(dc, basis, w, c1, prof, ex);
  for (index_t i = 0; i <= j; ++i) dist_axpy(dc, -c1[i], V[i], w, prof, ex);
  dist_multi_dot(dc, basis, w, c2, prof, ex);
  for (index_t i = 0; i <= j; ++i) {
    dist_axpy(dc, -c2[i], V[i], w, prof, ex);
    h[i] = c1[i] + c2[i];
  }
  const Scalar nrm = dist_norm2(dc, w, prof, ex);
  h[j + 1] = nrm;
}

template <class Scalar>
BlockSolveResult gmres_core(const LinearOperator<Scalar>& A,
                            const LinearOperator<Scalar>* prec,
                            const ColPtrs<Scalar>& B,
                            const MutColPtrs<Scalar>& X,
                            const GmresOptions& opts) {
  FROSCH_CHECK(A.rows() == A.cols(), "gmres: square operator required");
  FROSCH_CHECK(opts.restart > 0, "gmres: restart must be positive");
  FROSCH_CHECK(opts.ortho == OrthoKind::SingleReduce || B.size() <= 1,
               "block_gmres: only the single-reduce orthogonalization has a "
               "width-independent reduction structure; got "
                   << to_string(opts.ortho) << " at width " << B.size());
  const index_t n = A.rows();
  const index_t m = opts.restart;
  const size_t nb = B.size();

  BlockSolveResult out;
  out.columns.resize(nb);
  if (nb == 0) return out;
  OpProfile* prof = &out.profile;
  const exec::ExecPolicy& ex = opts.exec;
  const la::DistContext& dc = opts.dist;

  std::vector<GmresColumn<Scalar>> cols(nb);
  for (size_t c = 0; c < nb; ++c) {
    auto& cl = cols[c];
    FROSCH_CHECK(static_cast<index_t>(B[c]->size()) == n,
                 "gmres: rhs size mismatch in column " << c);
    // Initial-guess contract (krylov/solver.hpp): empty = zero guess; a
    // system-sized column is a warm start; anything else is a caller bug.
    FROSCH_CHECK(X[c]->empty() || static_cast<index_t>(X[c]->size()) == n,
                 "gmres: column " << c
                     << " must be empty (zero initial guess) or sized like "
                        "the system (warm start); got " << X[c]->size()
                     << " for n = " << n);
    X[c]->resize(static_cast<size_t>(n), Scalar(0));
    cl.b = B[c];
    cl.x = X[c];
    cl.V.resize(static_cast<size_t>(m) + 1);
    cl.H = la::DenseMatrix<Scalar>(m + 1, m);
    cl.cs.assign(static_cast<size_t>(m), Scalar(0));
    cl.sn.assign(static_cast<size_t>(m), Scalar(0));
    cl.g.assign(static_cast<size_t>(m) + 1, Scalar(0));
    cl.h.assign(static_cast<size_t>(m) + 1, Scalar(0));
    cl.r.assign(static_cast<size_t>(n), Scalar(0));
    cl.w.assign(static_cast<size_t>(n), Scalar(0));
    cl.z.assign(static_cast<size_t>(n), Scalar(0));
  }

  // Initial residuals r = b - A x: one block application, then one fused
  // all-reduce carrying every column's norm.
  {
    ColPtrs<Scalar> xs(nb);
    MutColPtrs<Scalar> rs(nb);
    for (size_t c = 0; c < nb; ++c) {
      xs[c] = cols[c].x;
      rs[c] = &cols[c].r;
    }
    A.apply_columns(xs, rs, prof);
  }
  for (size_t c = 0; c < nb; ++c) {
    auto& cl = cols[c];
    auto& r = cl.r;
    const auto& b = *cl.b;
    exec::parallel_for(ex, n, [&](index_t i) { r[i] = b[i] - r[i]; });
  }
  {
    std::vector<la::DotJob<Scalar>> jobs(nb);
    for (size_t c = 0; c < nb; ++c) jobs[c] = {&cols[c].r, &cols[c].r};
    std::vector<Scalar> nr2;
    la::dist_fused_dots(dc, jobs, nr2, prof, ex);
    for (size_t c = 0; c < nb; ++c) {
      auto& cl = cols[c];
      const double beta0 = static_cast<double>(std::sqrt(nr2[c]));
      cl.res.initial_residual = beta0;
      cl.res.final_residual = beta0;
      cl.res.residual_history.push_back(beta0);
      if (beta0 == 0.0) {
        cl.res.converged = true;
        cl.finished = true;  // deflated before the first lockstep iteration
      } else {
        cl.target = opts.tol * beta0;
        cl.beta = beta0;
        // The iteration cap holds before the first step too: max_iters = 0
        // leaves x exactly as the caller passed it.
        cl.finished = opts.max_iters <= 0;
      }
    }
  }

  std::vector<size_t> act, fb, enders;
  std::vector<la::DotJob<Scalar>> jobs;
  std::vector<Scalar> vals;
  ColPtrs<Scalar> ins;
  MutColPtrs<Scalar> outs;

  for (;;) {
    act.clear();
    for (size_t c = 0; c < nb; ++c)
      if (!cols[c].finished) act.push_back(c);
    if (act.empty()) break;

    // --- restart-cycle initialization for columns that need one ---
    for (size_t c : act) {
      auto& cl = cols[c];
      if (!cl.at_restart) continue;
      cl.V[0] = cl.r;
      la::dist_scale(dc, cl.V[0], Scalar(1.0 / cl.beta), prof, ex);
      std::fill(cl.g.begin(), cl.g.end(), Scalar(0));
      cl.g[0] = static_cast<Scalar>(cl.beta);
      cl.j = 0;
      cl.at_restart = false;
    }

    // --- w = A M^{-1} v_j for every active column, fused applications ---
    ins.clear();
    outs.clear();
    if (prec) {
      for (size_t c : act) {
        ins.push_back(&cols[c].V[static_cast<size_t>(cols[c].j)]);
        outs.push_back(&cols[c].z);
      }
      prec->apply_columns(ins, outs, prof);
      ins.clear();
      outs.clear();
      for (size_t c : act) {
        ins.push_back(&cols[c].z);
        outs.push_back(&cols[c].w);
      }
      A.apply_columns(ins, outs, prof);
    } else {
      for (size_t c : act) {
        ins.push_back(&cols[c].V[static_cast<size_t>(cols[c].j)]);
        outs.push_back(&cols[c].w);
      }
      A.apply_columns(ins, outs, prof);
    }

    // --- orthogonalization.  Single-reduce: column c contributes its
    // [V_c^T w_c ; w_c^T w_c] slots (j_c + 2 of them) to ONE all-reduce,
    // and the norm of the projected w_c follows from the Pythagorean
    // identity ||w - V c||^2 = w^T w - ||c||^2 (V orthonormal).  MGS and
    // CGS2 run at width 1 only (checked above). ---
    fb.clear();
    if (opts.ortho != OrthoKind::SingleReduce) {
      auto& cl = cols[act[0]];
      orthogonalize_column(cl.V, cl.j, cl.w, cl.h, opts.ortho, prof, ex, dc);
    } else {
      jobs.clear();
      for (size_t c : act) {
        auto& cl = cols[c];
        for (index_t i = 0; i <= cl.j; ++i)
          jobs.push_back({&cl.V[static_cast<size_t>(i)], &cl.w});
        jobs.push_back({&cl.w, &cl.w});
      }
      la::dist_fused_dots(dc, jobs, vals, prof, ex);
      {
        size_t off = 0;
        for (size_t c : act) {
          auto& cl = cols[c];
          const index_t j = cl.j;
          const Scalar wtw = vals[off + static_cast<size_t>(j) + 1];
          Scalar c2 = Scalar(0);
          for (index_t i = 0; i <= j; ++i) {
            cl.h[static_cast<size_t>(i)] = vals[off + static_cast<size_t>(i)];
            c2 += cl.h[static_cast<size_t>(i)] * cl.h[static_cast<size_t>(i)];
          }
          for (index_t i = 0; i <= j; ++i)
            la::dist_axpy(dc, -cl.h[static_cast<size_t>(i)],
                          cl.V[static_cast<size_t>(i)], cl.w, prof, ex);
          const Scalar nrm2v = wtw - c2;
          if (!(nrm2v > Scalar(1e-4) * wtw)) {
            // Severe cancellation (the projection removed nearly all of w):
            // the Pythagorean estimate is untrustworthy and the CGS1
            // projection has lost orthogonality.  Re-orthogonalize once and
            // take an explicit norm -- the standard "twice is enough"
            // safeguard production low-synch implementations apply in this
            // regime, fused below over the columns that triggered it.
            fb.push_back(c);
          } else {
            cl.h[static_cast<size_t>(j) + 1] = std::sqrt(nrm2v);
          }
          off += static_cast<size_t>(j) + 2;
        }
      }
      if (!fb.empty()) {
        // One all-reduce for the projections, the axpys, then one all-reduce
        // for the explicit norms: two extra collectives at any width.
        jobs.clear();
        for (size_t c : fb) {
          auto& cl = cols[c];
          for (index_t i = 0; i <= cl.j; ++i)
            jobs.push_back({&cl.V[static_cast<size_t>(i)], &cl.w});
        }
        la::dist_fused_dots(dc, jobs, vals, prof, ex);
        size_t off = 0;
        for (size_t c : fb) {
          auto& cl = cols[c];
          for (index_t i = 0; i <= cl.j; ++i) {
            const Scalar ci = vals[off + static_cast<size_t>(i)];
            la::dist_axpy(dc, -ci, cl.V[static_cast<size_t>(i)], cl.w, prof, ex);
            cl.h[static_cast<size_t>(i)] += ci;
          }
          off += static_cast<size_t>(cl.j) + 1;
        }
        jobs.clear();
        for (size_t c : fb) jobs.push_back({&cols[c].w, &cols[c].w});
        la::dist_fused_dots(dc, jobs, vals, prof, ex);
        for (size_t q = 0; q < fb.size(); ++q) {
          auto& cl = cols[fb[q]];
          cl.h[static_cast<size_t>(cl.j) + 1] = std::sqrt(vals[q]);
        }
      }
    }

    // --- per-column Givens update / breakdown handling (local work) ---
    for (size_t c : act) {
      auto& cl = cols[c];
      const index_t j = cl.j;
      auto& h = cl.h;
      auto& H = cl.H;
      auto& g = cl.g;
      auto& cs = cl.cs;
      auto& sn = cl.sn;
      if (!(h[static_cast<size_t>(j) + 1] > Scalar(0))) {
        // Breakdown: the Krylov space is invariant and the solution exact
        // in it.  The back-substitution solves against g, which lives in
        // the basis rotated by the accumulated Givens rotations, so the
        // breakdown column is rotated into that basis too (its subdiagonal
        // h[j+1] is zero: no new rotation is needed).
        for (index_t i = 0; i < j; ++i) {
          const Scalar t = cs[static_cast<size_t>(i)] * h[static_cast<size_t>(i)] +
                           sn[static_cast<size_t>(i)] * h[static_cast<size_t>(i) + 1];
          h[static_cast<size_t>(i) + 1] =
              -sn[static_cast<size_t>(i)] * h[static_cast<size_t>(i)] +
              cs[static_cast<size_t>(i)] * h[static_cast<size_t>(i) + 1];
          h[static_cast<size_t>(i)] = t;
        }
        for (index_t i = 0; i <= j + 1; ++i)
          H(i, j) = i <= j ? h[static_cast<size_t>(i)] : Scalar(0);
        ++cl.res.iterations;
        cl.res.residual_history.push_back(
            std::abs(static_cast<double>(g[static_cast<size_t>(j)])));
        if (opts.on_iteration)
          opts.on_iteration(cl.res.iterations, cl.res.residual_history.back());
        ++cl.j;
        cl.end_cycle = true;
        continue;
      }
      for (index_t i = 0; i <= j + 1; ++i) H(i, j) = h[static_cast<size_t>(i)];
      cl.V[static_cast<size_t>(j) + 1] = cl.w;
      la::dist_scale(dc, cl.V[static_cast<size_t>(j) + 1],
                     Scalar(1) / h[static_cast<size_t>(j) + 1], prof, ex);
      for (index_t i = 0; i < j; ++i) {
        const Scalar t = cs[static_cast<size_t>(i)] * H(i, j) +
                         sn[static_cast<size_t>(i)] * H(i + 1, j);
        H(i + 1, j) = -sn[static_cast<size_t>(i)] * H(i, j) +
                      cs[static_cast<size_t>(i)] * H(i + 1, j);
        H(i, j) = t;
      }
      const Scalar a = H(j, j), bb = H(j + 1, j);
      const Scalar rho = std::sqrt(a * a + bb * bb);
      FROSCH_CHECK(rho > Scalar(0), "gmres: Givens breakdown");
      cs[static_cast<size_t>(j)] = a / rho;
      sn[static_cast<size_t>(j)] = bb / rho;
      H(j, j) = rho;
      H(j + 1, j) = Scalar(0);
      g[static_cast<size_t>(j) + 1] = -sn[static_cast<size_t>(j)] * g[static_cast<size_t>(j)];
      g[static_cast<size_t>(j)] = cs[static_cast<size_t>(j)] * g[static_cast<size_t>(j)];
      ++cl.res.iterations;
      const double rnorm =
          std::abs(static_cast<double>(g[static_cast<size_t>(j) + 1]));
      cl.res.residual_history.push_back(rnorm);
      if (opts.on_iteration) opts.on_iteration(cl.res.iterations, rnorm);
      ++cl.j;
      if (rnorm <= cl.target || cl.j == m ||
          cl.res.iterations >= opts.max_iters)
        cl.end_cycle = true;
    }

    // --- cycle-end stage, fused over the columns whose cycle finished ---
    enders.clear();
    for (size_t c : act)
      if (cols[c].end_cycle) enders.push_back(c);
    if (enders.empty()) continue;

    for (size_t c : enders) {
      auto& cl = cols[c];
      const index_t j = cl.j;
      std::vector<Scalar> y(static_cast<size_t>(j));
      for (index_t i = j - 1; i >= 0; --i) {
        Scalar s = cl.g[static_cast<size_t>(i)];
        for (index_t k2 = i + 1; k2 < j; ++k2) s -= cl.H(i, k2) * y[static_cast<size_t>(k2)];
        y[static_cast<size_t>(i)] = s / cl.H(i, i);
      }
      std::fill(cl.z.begin(), cl.z.end(), Scalar(0));
      for (index_t i = 0; i < j; ++i)
        la::dist_axpy(dc, y[static_cast<size_t>(i)], cl.V[static_cast<size_t>(i)],
                      cl.z, prof, ex);
    }
    if (prec) {
      // z <- M^{-1} z through one fused application (w is free here and
      // serves as the temporary).
      ins.clear();
      outs.clear();
      for (size_t c : enders) {
        ins.push_back(&cols[c].z);
        outs.push_back(&cols[c].w);
      }
      prec->apply_columns(ins, outs, prof);
      for (size_t c : enders) cols[c].z.swap(cols[c].w);
    }
    for (size_t c : enders) {
      auto& cl = cols[c];
      auto& x = *cl.x;
      const auto& z = cl.z;
      exec::parallel_for(ex, n, [&](index_t i) { x[i] += z[i]; });
    }
    ins.clear();
    outs.clear();
    for (size_t c : enders) {
      ins.push_back(cols[c].x);
      outs.push_back(&cols[c].r);
    }
    A.apply_columns(ins, outs, prof);
    for (size_t c : enders) {
      auto& cl = cols[c];
      auto& r = cl.r;
      const auto& b = *cl.b;
      exec::parallel_for(ex, n, [&](index_t i) { r[i] = b[i] - r[i]; });
    }
    jobs.clear();
    for (size_t c : enders) jobs.push_back({&cols[c].r, &cols[c].r});
    la::dist_fused_dots(dc, jobs, vals, prof, ex);
    // The true residual replaces the cycle's last history entry (an
    // implicit estimate).  An estimate-signalled convergence the true
    // residual does not confirm, or an Arnoldi breakdown, restarts from it.
    for (size_t q = 0; q < enders.size(); ++q) {
      auto& cl = cols[enders[q]];
      cl.beta = static_cast<double>(std::sqrt(vals[q]));
      cl.res.final_residual = cl.beta;
      cl.res.residual_history.back() = cl.beta;
      cl.end_cycle = false;
      if (cl.beta <= cl.target) {
        cl.res.converged = true;
        cl.finished = true;  // deflation: drops out of the lockstep
      } else if (cl.res.iterations >= opts.max_iters) {
        cl.finished = true;
      } else {
        cl.at_restart = true;
      }
    }
  }

  for (size_t c = 0; c < nb; ++c) out.columns[c] = std::move(cols[c].res);
  return out;
}

// ---------------------------------------------------------------------------
// CG
// ---------------------------------------------------------------------------

template <class Scalar>
struct CgColumn {
  std::vector<Scalar> r, z, p, Ap, rt;
  const std::vector<Scalar>* b = nullptr;
  std::vector<Scalar>* x = nullptr;
  Scalar rz = Scalar(0);
  double target = 0.0;
  bool finished = false;
  SolveResult res;
};

template <class Scalar>
BlockSolveResult cg_core(const LinearOperator<Scalar>& A,
                         const LinearOperator<Scalar>* prec,
                         const ColPtrs<Scalar>& B, const MutColPtrs<Scalar>& X,
                         const CgOptions& opts) {
  FROSCH_CHECK(A.rows() == A.cols(), "cg: square operator required");
  const index_t n = A.rows();
  const size_t nb = B.size();

  BlockSolveResult out;
  out.columns.resize(nb);
  if (nb == 0) return out;
  OpProfile* prof = &out.profile;
  const exec::ExecPolicy& ex = opts.exec;
  const la::DistContext& dc = opts.dist;

  std::vector<CgColumn<Scalar>> cols(nb);
  for (size_t c = 0; c < nb; ++c) {
    auto& cl = cols[c];
    FROSCH_CHECK(static_cast<index_t>(B[c]->size()) == n,
                 "cg: rhs size mismatch in column " << c);
    FROSCH_CHECK(X[c]->empty() || static_cast<index_t>(X[c]->size()) == n,
                 "cg: column " << c
                     << " must be empty (zero initial guess) or sized like "
                        "the system (warm start); got " << X[c]->size()
                     << " for n = " << n);
    X[c]->resize(static_cast<size_t>(n), Scalar(0));
    cl.b = B[c];
    cl.x = X[c];
    cl.r.assign(static_cast<size_t>(n), Scalar(0));
    cl.z.assign(static_cast<size_t>(n), Scalar(0));
    cl.Ap.assign(static_cast<size_t>(n), Scalar(0));
    cl.rt.assign(static_cast<size_t>(n), Scalar(0));
  }

  std::vector<size_t> act, confirm;
  std::vector<la::DotJob<Scalar>> jobs;
  std::vector<Scalar> vals;
  ColPtrs<Scalar> ins;
  MutColPtrs<Scalar> outs;

  // Initial residuals and fused norms.
  {
    ins.clear();
    outs.clear();
    for (size_t c = 0; c < nb; ++c) {
      ins.push_back(cols[c].x);
      outs.push_back(&cols[c].r);
    }
    A.apply_columns(ins, outs, prof);
    for (size_t c = 0; c < nb; ++c) {
      auto& cl = cols[c];
      auto& r = cl.r;
      const auto& b = *cl.b;
      exec::parallel_for(ex, n, [&](index_t i) { r[i] = b[i] - r[i]; });
    }
    jobs.clear();
    for (size_t c = 0; c < nb; ++c) jobs.push_back({&cols[c].r, &cols[c].r});
    la::dist_fused_dots(dc, jobs, vals, prof, ex);
    for (size_t c = 0; c < nb; ++c) {
      auto& cl = cols[c];
      const double beta0 = static_cast<double>(std::sqrt(vals[c]));
      cl.res.initial_residual = beta0;
      cl.res.final_residual = beta0;
      cl.res.residual_history.push_back(beta0);
      if (beta0 == 0.0) {
        cl.res.converged = true;
        cl.finished = true;
      } else {
        cl.target = opts.tol * beta0;
        cl.finished = opts.max_iters <= 0;  // the cap holds before step one
      }
    }
  }

  // z = M^{-1} r and the first fused r.z for the surviving columns.
  act.clear();
  for (size_t c = 0; c < nb; ++c)
    if (!cols[c].finished) act.push_back(c);
  if (!act.empty()) {
    if (prec) {
      ins.clear();
      outs.clear();
      for (size_t c : act) {
        ins.push_back(&cols[c].r);
        outs.push_back(&cols[c].z);
      }
      prec->apply_columns(ins, outs, prof);
    } else {
      for (size_t c : act) cols[c].z = cols[c].r;
    }
    for (size_t c : act) cols[c].p = cols[c].z;
    jobs.clear();
    for (size_t c : act) jobs.push_back({&cols[c].r, &cols[c].z});
    la::dist_fused_dots(dc, jobs, vals, prof, ex);
    for (size_t q = 0; q < act.size(); ++q) cols[act[q]].rz = vals[q];
  }

  for (;;) {
    act.clear();
    for (size_t c = 0; c < nb; ++c)
      if (!cols[c].finished) act.push_back(c);
    if (act.empty()) break;

    // Stage 1 of 3: fused Ap = A p and one all-reduce for every p.Ap.
    ins.clear();
    outs.clear();
    for (size_t c : act) {
      ins.push_back(&cols[c].p);
      outs.push_back(&cols[c].Ap);
    }
    A.apply_columns(ins, outs, prof);
    jobs.clear();
    for (size_t c : act) jobs.push_back({&cols[c].p, &cols[c].Ap});
    la::dist_fused_dots(dc, jobs, vals, prof, ex);
    for (size_t q = 0; q < act.size(); ++q) {
      auto& cl = cols[act[q]];
      const Scalar pAp = vals[q];
      FROSCH_CHECK(pAp > Scalar(0),
                   "cg: operator not SPD (p^T A p <= 0) in column "
                       << act[q]);
      const Scalar alpha = cl.rz / pAp;
      la::dist_axpy(dc, alpha, cl.p, *cl.x, prof, ex);
      la::dist_axpy(dc, -alpha, cl.Ap, cl.r, prof, ex);
      ++cl.res.iterations;
    }

    // Stage 2 of 3: one all-reduce for every recurrence-residual norm.
    jobs.clear();
    for (size_t c : act) jobs.push_back({&cols[c].r, &cols[c].r});
    la::dist_fused_dots(dc, jobs, vals, prof, ex);
    confirm.clear();
    for (size_t q = 0; q < act.size(); ++q) {
      auto& cl = cols[act[q]];
      const double rn = static_cast<double>(std::sqrt(vals[q]));
      cl.res.final_residual = rn;
      cl.res.residual_history.push_back(rn);
      if (opts.on_iteration) opts.on_iteration(cl.res.iterations, rn);
      if (rn <= cl.target) confirm.push_back(act[q]);
    }
    if (!confirm.empty()) {
      // Confirm against the true residual (the recurrence r drifts over
      // many iterations -- the same safeguard GMRES applies at its
      // restarts), fused over the columns that signalled convergence.
      ins.clear();
      outs.clear();
      for (size_t c : confirm) {
        ins.push_back(cols[c].x);
        outs.push_back(&cols[c].rt);
      }
      A.apply_columns(ins, outs, prof);
      for (size_t c : confirm) {
        auto& cl = cols[c];
        auto& rt = cl.rt;
        const auto& b = *cl.b;
        exec::parallel_for(ex, n, [&](index_t i) { rt[i] = b[i] - rt[i]; });
      }
      jobs.clear();
      for (size_t c : confirm) jobs.push_back({&cols[c].rt, &cols[c].rt});
      la::dist_fused_dots(dc, jobs, vals, prof, ex);
      for (size_t q = 0; q < confirm.size(); ++q) {
        auto& cl = cols[confirm[q]];
        const double tn = static_cast<double>(std::sqrt(vals[q]));
        cl.res.final_residual = tn;
        cl.res.residual_history.back() = tn;
        if (tn <= cl.target) {
          cl.res.converged = true;
          cl.finished = true;  // deflated
        }
        // Unconfirmed columns keep iterating on the (still valid) recurrence.
      }
    }

    // Stage 3 of 3: fused z = M^{-1} r and one all-reduce for every r.z.
    // Columns at max_iters still run it on their last pass and are retired
    // afterwards.
    act.clear();
    for (size_t c = 0; c < nb; ++c)
      if (!cols[c].finished) act.push_back(c);
    if (!act.empty()) {
      if (prec) {
        ins.clear();
        outs.clear();
        for (size_t c : act) {
          ins.push_back(&cols[c].r);
          outs.push_back(&cols[c].z);
        }
        prec->apply_columns(ins, outs, prof);
      } else {
        for (size_t c : act) cols[c].z = cols[c].r;
      }
      jobs.clear();
      for (size_t c : act) jobs.push_back({&cols[c].r, &cols[c].z});
      la::dist_fused_dots(dc, jobs, vals, prof, ex);
      for (size_t q = 0; q < act.size(); ++q) {
        auto& cl = cols[act[q]];
        const Scalar rz_new = vals[q];
        const Scalar betak = rz_new / cl.rz;
        cl.rz = rz_new;
        auto& p = cl.p;
        const auto& z = cl.z;
        exec::parallel_for(ex, n,
                           [&](index_t i) { p[i] = z[i] + betak * p[i]; });
        if (cl.res.iterations >= opts.max_iters) cl.finished = true;
      }
    }
  }

  for (size_t c = 0; c < nb; ++c) out.columns[c] = std::move(cols[c].res);
  return out;
}

}  // namespace

template <class Scalar>
SolveResult gmres(const LinearOperator<Scalar>& A,
                  const LinearOperator<Scalar>* prec,
                  const std::vector<Scalar>& b, std::vector<Scalar>& x,
                  const GmresOptions& opts) {
  return solo(gmres_core<Scalar>(A, prec, {&b}, {&x}, opts));
}

template <class Scalar>
SolveResult cg(const LinearOperator<Scalar>& A,
               const LinearOperator<Scalar>* prec,
               const std::vector<Scalar>& b, std::vector<Scalar>& x,
               const CgOptions& opts) {
  return solo(cg_core<Scalar>(A, prec, {&b}, {&x}, opts));
}

template <class Scalar>
BlockSolveResult block_gmres(const LinearOperator<Scalar>& A,
                             const LinearOperator<Scalar>* prec,
                             const std::vector<std::vector<Scalar>>& B,
                             std::vector<std::vector<Scalar>>& X,
                             const GmresOptions& opts) {
  ColPtrs<Scalar> bs;
  MutColPtrs<Scalar> xs;
  column_ptrs(B, X, bs, xs, "block_gmres");
  return gmres_core(A, prec, bs, xs, opts);
}

template <class Scalar>
BlockSolveResult block_cg(const LinearOperator<Scalar>& A,
                          const LinearOperator<Scalar>* prec,
                          const std::vector<std::vector<Scalar>>& B,
                          std::vector<std::vector<Scalar>>& X,
                          const CgOptions& opts) {
  ColPtrs<Scalar> bs;
  MutColPtrs<Scalar> xs;
  column_ptrs(B, X, bs, xs, "block_cg");
  return cg_core(A, prec, bs, xs, opts);
}

template SolveResult gmres<double>(const LinearOperator<double>&,
                                   const LinearOperator<double>*,
                                   const std::vector<double>&,
                                   std::vector<double>&, const GmresOptions&);
template SolveResult gmres<float>(const LinearOperator<float>&,
                                  const LinearOperator<float>*,
                                  const std::vector<float>&,
                                  std::vector<float>&, const GmresOptions&);
template SolveResult cg<double>(const LinearOperator<double>&,
                                const LinearOperator<double>*,
                                const std::vector<double>&,
                                std::vector<double>&, const CgOptions&);
template SolveResult cg<float>(const LinearOperator<float>&,
                               const LinearOperator<float>*,
                               const std::vector<float>&, std::vector<float>&,
                               const CgOptions&);
template BlockSolveResult block_gmres<double>(
    const LinearOperator<double>&, const LinearOperator<double>*,
    const std::vector<std::vector<double>>&,
    std::vector<std::vector<double>>&, const GmresOptions&);
template BlockSolveResult block_gmres<float>(
    const LinearOperator<float>&, const LinearOperator<float>*,
    const std::vector<std::vector<float>>&, std::vector<std::vector<float>>&,
    const GmresOptions&);
template BlockSolveResult block_cg<double>(
    const LinearOperator<double>&, const LinearOperator<double>*,
    const std::vector<std::vector<double>>&,
    std::vector<std::vector<double>>&, const CgOptions&);
template BlockSolveResult block_cg<float>(
    const LinearOperator<float>&, const LinearOperator<float>*,
    const std::vector<std::vector<float>>&, std::vector<std::vector<float>>&,
    const CgOptions&);

}  // namespace frosch::krylov
