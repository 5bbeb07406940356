// The multilevel coarse hierarchy (DESIGN.md section 10): the concrete
// CoarseLevelSolver the facade installs into every SchwarzPreconditioner.
//
// Two orthogonal generalizations of the replicated-coarse baseline, both
// attacks on the FROSch-on-Summit coarse-problem cliff:
//
//   * PROCESS SUBSET (`coarse_ranks`): the gathered coarse operator is
//     held and factored by S = |coarse_members(P)| ranks instead of the
//     root alone.  The direct solve still computes one exact coarse
//     correction -- numerics are bitwise identical to the root baseline --
//     but the factorization/trisolve compute is attributed as S per-rank
//     shares and the subset-internal redistribution is recorded as
//     subset-scoped collectives on a comm::SubComm, which the Summit model
//     prices over log2(S), not log2(P).
//
//   * RECURSION (`levels` > 2): the coarse matrix is re-partitioned
//     (recursive bisection, a pure function of the coarse pattern and the
//     parent part count -- never of ranks or threads, preserving the
//     bitwise-across-(ranks, threads) contract), decomposed with the same
//     overlap machinery, and preconditioned by another SchwarzPreconditioner
//     running on the subset communicator; ITS coarse problem recurses until
//     the configured depth, terminating in a direct solve.  The coarse
//     correction becomes one application of the inner Schwarz operator --
//     approximate, so outer iteration counts may drift within the bound
//     documented in DESIGN.md.
//
// The default configuration (levels=2, coarse_ranks=root) takes the
// terminal branch with S=1: the exact LocalSolver call sequence of the
// historical inline path, no sub-communicator, no extra collectives --
// bitwise identical results AND profiles.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "dd/coarse_solver.hpp"
#include "dd/schwarz.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"

namespace frosch::mlevel {

template <class Scalar>
class CoarseHierarchy final : public dd::CoarseLevelSolver<Scalar> {
 public:
  /// `outer`: the Schwarz configuration of the level below -- solver
  /// kinds, coarse space, overlap, exec policy, and the hierarchy keys.
  /// `parent_parts`: that level's subdomain count (the auto part-count
  /// heuristic halves it per level).  `level`: 2 for the first coarse
  /// level; recursion constructs level+1 internally.
  CoarseHierarchy(const dd::SchwarzConfig& outer, index_t parent_parts,
                  index_t level = 2)
      : outer_(outer), parent_parts_(parent_parts), level_(level) {}

  void numeric_setup(const la::CsrMatrix<Scalar>& A0,
                     comm::Communicator& comm, OpProfile* prof) override {
    members_ = dd::coarse_members(comm.size(), outer_.hierarchy.coarse_ranks);
    subset_ = static_cast<int>(members_.size());
    dim_ = A0.num_rows();
    pattern_rowptr_ = A0.rowptr();
    pattern_colind_ = A0.colind();
    if (recursive(A0)) {
      setup_recursive(A0, comm, prof);
    } else {
      setup_terminal(A0, comm, prof);
    }
  }

  void numeric_refresh(const la::CsrMatrix<Scalar>& A0,
                       comm::Communicator& comm, OpProfile* prof) override {
    if (A0.rowptr() != pattern_rowptr_ || A0.colind() != pattern_colind_) {
      // Coarse pattern changed (a value-dependent basis column appeared or
      // vanished): the cached symbolic layers of this level are stale, so
      // the level rebuilds cold -- which still satisfies the refresh
      // contract, because a rebuild IS the cold setup.
      numeric_setup(A0, comm, prof);
      return;
    }
    dim_ = A0.num_rows();
    if (schwarz0_) {
      const OpProfile before = inner_setup_total();
      if (!schwarz0_->numeric_refresh(A0, Z0_))
        schwarz0_->numeric_setup(A0, Z0_);
      OpProfile delta = inner_setup_total();
      delta -= before;
      if (prof) *prof += delta;
      numeric_prof_ += delta;
    } else {
      const OpProfile before = prof ? *prof : OpProfile{};
      direct_->numeric_refresh(A0, prof, prof);
      if (prof) {
        OpProfile delta = *prof;
        delta -= before;
        numeric_prof_ += delta;
      }
      if (sub_)
        sub_->gather(static_cast<double>(A0.num_entries()) * sizeof(Scalar) /
                     subset_);
    }
  }

  void solve(const std::vector<Scalar>& r0, std::vector<Scalar>& z0,
             OpProfile* prof) const override {
    solve_columns(r0, z0, 1, prof);
  }

  /// The w-column coarse solve: ONE multi-column direct solve at a terminal
  /// level, one block application of the inner Schwarz at a recursive one.
  void solve_columns(const std::vector<Scalar>& R0, std::vector<Scalar>& Z0,
                     index_t w, OpProfile* prof) const override {
    const OpProfile before = prof ? *prof : OpProfile{};
    if (schwarz0_) {
      const auto rs = la::deinterleave(R0, w);
      std::vector<std::vector<Scalar>> zs(
          rs.size(), std::vector<Scalar>(static_cast<size_t>(dim_)));
      schwarz0_->apply_columns(rs, zs, prof);
      Z0 = la::interleave(zs);
    } else {
      direct_->solve_columns(R0, Z0, w, prof);
      // Distributed triangular solves: the subset exchanges the coarse
      // vector slices once per column (nothing on the S=1 baseline).
      if (sub_)
        for (index_t c = 0; c < w; ++c)
          sub_->broadcast(static_cast<double>(dim_) * sizeof(Scalar) /
                          subset_);
    }
    if (prof) {
      OpProfile delta = *prof;
      delta -= before;
      solve_prof_ += delta;
    }
  }

  std::vector<dd::CoarseLevelReport> level_reports() const override {
    std::vector<dd::CoarseLevelReport> out;
    dd::CoarseLevelReport rep;
    rep.level = level_;
    rep.dim = dim_;
    rep.subset_size = subset_;
    if (schwarz0_) {
      rep.parts = parts_;
      const auto& sp = schwarz0_->profiles();
      rep.rank_numeric.resize(sp.ranks.size());
      rep.rank_solve.resize(sp.ranks.size());
      for (size_t r = 0; r < sp.ranks.size(); ++r) {
        rep.rank_numeric[r] = sp.ranks[r].symbolic + sp.ranks[r].numeric;
        rep.rank_solve[r] = sp.ranks[r].solve;
      }
      out.push_back(std::move(rep));
      const auto nested = next_->level_reports();
      out.insert(out.end(), nested.begin(), nested.end());
    } else {
      rep.parts = 0;  // direct terminal level
      rep.rank_numeric = split_shares(numeric_prof_, subset_);
      rep.rank_solve = split_shares(solve_prof_, subset_);
      out.push_back(std::move(rep));
    }
    return out;
  }

  /// The subset communicator (null when the subset is the root alone and
  /// the level is terminal -- the degenerate baseline records nothing).
  const comm::Communicator* subset_comm() const { return sub_.get(); }
  const dd::SchwarzPreconditioner<Scalar>* inner_schwarz() const {
    return schwarz0_.get();
  }

 private:
  /// Recursion is worth a Schwarz level only when the coarse matrix can
  /// still be decomposed meaningfully; tiny coarse problems terminate in
  /// the direct solve regardless of the configured depth.  Pure function
  /// of the configuration and the coarse dimension -- never of ranks.
  bool recursive(const la::CsrMatrix<Scalar>& A0) const {
    return level_ < outer_.hierarchy.levels && A0.num_rows() >= 16;
  }

  /// Auto subdomain count of a recursive level: half the parent's parts,
  /// bounded by the coarse dimension (every part needs a few rows), at
  /// least 2 (an interface must exist for the next coarse space).
  index_t level_parts(index_t n0) const {
    index_t p = outer_.hierarchy.coarse_parts > 0
                    ? outer_.hierarchy.coarse_parts
                    : std::max<index_t>(2, std::min(parent_parts_ / 2, n0 / 8));
    return std::max<index_t>(2, std::min(p, n0 / 2));
  }

  void setup_terminal(const la::CsrMatrix<Scalar>& A0,
                      comm::Communicator& comm, OpProfile* prof) {
    schwarz0_.reset();
    next_ = nullptr;
    sub_.reset();
    if (subset_ > 1) sub_ = comm.split(members_);
    parts_ = 0;
    // Exactly the inline path's call sequence into the SAME profile: the
    // degenerate hierarchy is bitwise-invisible in the breakdown.
    direct_ = std::make_unique<dd::LocalSolver<Scalar>>(outer_.coarse);
    const OpProfile before = prof ? *prof : OpProfile{};
    direct_->symbolic(A0, prof);
    direct_->numeric(A0, prof, prof);
    numeric_prof_ = OpProfile{};
    solve_prof_ = OpProfile{};
    if (prof) {
      numeric_prof_ = *prof;
      numeric_prof_ -= before;
    }
    // Subset redistribution of the factored operator: each member ends up
    // holding its 1/S slice (nothing to do on the root-only baseline).
    if (sub_) sub_->gather(A0.storage_bytes() / subset_);
  }

  void setup_recursive(const la::CsrMatrix<Scalar>& A0,
                       comm::Communicator& comm, OpProfile* prof) {
    direct_.reset();
    sub_.reset();
    sub_ = comm.split(members_);
    const index_t n0 = A0.num_rows();
    parts_ = level_parts(n0);

    // Re-partition + decompose the coarse matrix: the same machinery the
    // fine level went through, measured into the same profile.
    const auto g = graph::build_graph(A0, prof);
    const IndexVector owner = graph::recursive_bisection(g, parts_, prof);
    const dd::Decomposition decomp =
        dd::build_decomposition(A0, owner, parts_, outer_.overlap, prof);

    inner_cfg_ = outer_;
    inner_cfg_.comm = sub_.get();
    schwarz0_ =
        std::make_unique<dd::SchwarzPreconditioner<Scalar>>(inner_cfg_, decomp);
    auto next =
        std::make_unique<CoarseHierarchy<Scalar>>(outer_, parts_, level_ + 1);
    next_ = next.get();
    schwarz0_->set_coarse_solver(std::move(next));
    schwarz0_->symbolic_setup(A0);
    // Null space of the coarse operator: the constants (the coarse basis
    // functions form a partition of unity over the null-space directions).
    Z0_ = la::DenseMatrix<double>(n0, 1);
    for (index_t i = 0; i < n0; ++i) Z0_(i, 0) = 1.0;
    schwarz0_->numeric_setup(A0, Z0_);

    numeric_prof_ = inner_setup_total();
    solve_prof_ = OpProfile{};
    if (prof) *prof += numeric_prof_;
  }

  /// Total setup-side compute the inner Schwarz has accumulated: per-rank
  /// symbolic + numeric plus its coarse-problem work (which includes the
  /// recursion below it).
  OpProfile inner_setup_total() const {
    OpProfile total;
    const auto& sp = schwarz0_->profiles();
    for (const auto& rp : sp.ranks) {
      total += rp.symbolic;
      total += rp.numeric;
    }
    total += sp.coarse.numeric;
    return total;
  }

  /// Per-subset-rank compute shares of a terminal level: the direct
  /// factor/trisolve divides its flops, traffic, and work items across
  /// the S members (launch counts and critical path are per-rank
  /// quantities) -- the same convention as the model's split_across_ranks.
  static std::vector<OpProfile> split_shares(const OpProfile& total, int s) {
    OpProfile share;
    share.flops = total.flops / s;
    share.bytes = total.bytes / s;
    share.work_items = total.work_items / s;
    share.launches = total.launches;
    share.critical_path = total.critical_path;
    return std::vector<OpProfile>(static_cast<size_t>(s), share);
  }

  dd::SchwarzConfig outer_;
  index_t parent_parts_ = 0;
  index_t level_ = 2;

  std::vector<int> members_;
  int subset_ = 1;
  index_t dim_ = 0;
  index_t parts_ = 0;  ///< inner subdomains (0 = terminal direct)
  std::vector<index_t> pattern_rowptr_, pattern_colind_;  ///< refresh guard

  std::unique_ptr<comm::Communicator> sub_;  ///< subset comm (may be null)
  // Terminal branch.
  std::unique_ptr<dd::LocalSolver<Scalar>> direct_;
  // Recursive branch: inner Schwarz on the subset comm; next_ is the
  // hierarchy one level up, owned by schwarz0_ through set_coarse_solver.
  dd::SchwarzConfig inner_cfg_;
  std::unique_ptr<dd::SchwarzPreconditioner<Scalar>> schwarz0_;
  CoarseHierarchy<Scalar>* next_ = nullptr;
  la::DenseMatrix<double> Z0_;

  OpProfile numeric_prof_;          ///< this level's setup compute
  mutable OpProfile solve_prof_;    ///< this level's accumulated solves
};

}  // namespace frosch::mlevel
