// Multi-column (block) kernels of the rank-sharded linear algebra in
// la/dist.hpp -- the one distributed SpMV, used at width 1 by every single
// operator application and at width w by the batched multi-RHS solves:
//
//   DistMultiVector   per-rank packed storage of a WIDTH-column block over a
//                     HaloPlan's local column spaces, column-major per rank.
//   halo_import       ONE ghost exchange (one message per transfer) moves
//                     every column's ghosts -- the payload scales with the
//                     width, the message count does not.
//   dist_spmv_multi   Y = A X for all columns in one pass over the matrix;
//                     dist_spmv_multi_overlapped hides the import behind the
//                     interior rows.
//
// Determinism: each column's row sums follow the global row's entry order
// (see la/dist.hpp), so every column is bitwise identical to la::spmv and a
// column's values never depend on which other columns share the block.
#pragma once

#include "la/dist.hpp"

namespace frosch::la {

/// Per-rank packed block vector: `width` columns over the plan's local
/// column spaces, column-major within each rank (column c of rank r starts
/// at vals[r][c * cols[r].size()]).
template <class Scalar>
struct DistMultiVector {
  const HaloPlan* plan = nullptr;
  index_t width = 0;
  std::vector<std::vector<Scalar>> vals;  ///< per rank, cols[r].size()*width

  DistMultiVector() = default;
  DistMultiVector(const HaloPlan& p, index_t w) { init(p, w); }

  void init(const HaloPlan& p, index_t w) {
    plan = &p;
    width = w;
    vals.assign(static_cast<size_t>(p.nranks), {});
    for (int r = 0; r < p.nranks; ++r)
      vals[static_cast<size_t>(r)].assign(
          p.cols[static_cast<size_t>(r)].size() * static_cast<size_t>(w),
          Scalar(0));
  }

  index_t local_len(int r) const {
    return static_cast<index_t>(plan->cols[static_cast<size_t>(r)].size());
  }

  /// Copies each rank's OWNED entries of every column out of the replicated
  /// global columns (bookkeeping, not communication).  Pointer-based so
  /// solvers can hand in scattered columns without assembling a block.
  void scatter_owned(const std::vector<const std::vector<Scalar>*>& X,
                     const exec::ExecPolicy& policy = {}) {
    FROSCH_CHECK(static_cast<index_t>(X.size()) == width,
                 "DistMultiVector: scatter width mismatch");
    exec::parallel_for(
        policy, plan->nranks,
        [&](index_t r) {
          const auto& own = plan->owned[static_cast<size_t>(r)];
          const auto& slot = plan->owned_slot[static_cast<size_t>(r)];
          const size_t len = plan->cols[static_cast<size_t>(r)].size();
          auto& v = vals[static_cast<size_t>(r)];
          for (index_t c = 0; c < width; ++c) {
            Scalar* vc = v.data() + static_cast<size_t>(c) * len;
            const auto& xc = *X[static_cast<size_t>(c)];
            for (size_t q = 0; q < own.size(); ++q) vc[slot[q]] = xc[own[q]];
          }
        },
        /*grain=*/1);
  }

  void scatter_owned(const std::vector<std::vector<Scalar>>& X,
                     const exec::ExecPolicy& policy = {}) {
    std::vector<const std::vector<Scalar>*> xs(X.size());
    for (size_t c = 0; c < X.size(); ++c) xs[c] = &X[c];
    scatter_owned(xs, policy);
  }

  /// Writes each rank's OWNED entries of every column back into the
  /// replicated global columns (disjoint writes).  Every target column must
  /// be pre-sized to plan->n by the caller.
  void gather_owned(const std::vector<std::vector<Scalar>*>& X,
                    const exec::ExecPolicy& policy = {}) const {
    FROSCH_CHECK(static_cast<index_t>(X.size()) == width,
                 "DistMultiVector: gather width mismatch");
    for (const auto* xc : X)
      FROSCH_CHECK(static_cast<index_t>(xc->size()) == plan->n,
                   "DistMultiVector: gather target not sized to plan->n");
    exec::parallel_for(
        policy, plan->nranks,
        [&](index_t r) {
          const auto& own = plan->owned[static_cast<size_t>(r)];
          const auto& slot = plan->owned_slot[static_cast<size_t>(r)];
          const size_t len = plan->cols[static_cast<size_t>(r)].size();
          const auto& v = vals[static_cast<size_t>(r)];
          for (index_t c = 0; c < width; ++c) {
            const Scalar* vc = v.data() + static_cast<size_t>(c) * len;
            auto& xc = *X[static_cast<size_t>(c)];
            for (size_t q = 0; q < own.size(); ++q) xc[own[q]] = vc[slot[q]];
          }
        },
        /*grain=*/1);
  }

  void gather_owned(std::vector<std::vector<Scalar>>& X,
                    const exec::ExecPolicy& policy = {}) const {
    for (auto& xc : X) xc.resize(static_cast<size_t>(plan->n));
    std::vector<std::vector<Scalar>*> xs(X.size());
    for (size_t c = 0; c < X.size(); ++c) xs[c] = &X[c];
    gather_owned(xs, policy);
  }
};

namespace detail {

/// The copy of one ghost-exchange message: transfer m's ghost entries of
/// every column, from the owning rank's storage into the destination's
/// ghost slots.
template <class Scalar>
auto ghost_copy(const HaloPlan& plan, DistMultiVector<Scalar>& x) {
  return [&plan, &x](size_t m) {
    const auto& t = plan.transfers[m];
    const auto& src = x.vals[static_cast<size_t>(t.src)];
    auto& dst = x.vals[static_cast<size_t>(t.dst)];
    const size_t slen = plan.cols[static_cast<size_t>(t.src)].size();
    const size_t dlen = plan.cols[static_cast<size_t>(t.dst)].size();
    for (index_t c = 0; c < x.width; ++c) {
      const Scalar* sc = src.data() + static_cast<size_t>(c) * slen;
      Scalar* dc = dst.data() + static_cast<size_t>(c) * dlen;
      for (size_t q = 0; q < t.ids.size(); ++q)
        dc[t.dst_slots[q]] = sc[t.src_slots[q]];
    }
  };
}

}  // namespace detail

/// The REAL ghost exchange: ONE message per transfer carries every column's
/// ghost entries through the communicator, which records the message and
/// its measured payload on the importing rank.  `msgs` must be
/// plan.messages(sizeof(Scalar) * width) -- the width-scaled payload of the
/// fused import (cache it on the hot path).
template <class Scalar>
void halo_import(comm::Communicator& comm, const HaloPlan& plan,
                 const std::vector<comm::Message>& msgs,
                 DistMultiVector<Scalar>& x) {
  comm.exchange(msgs, detail::ghost_copy(plan, x));
}

/// Nonblocking ghost exchange: the copies of every column happen NOW (so
/// ghost slots hold their final values, bitwise identical to halo_import),
/// the wire charging and the measured overlap window happen at the
/// returned handle's wait().  Between post and wait the caller may compute
/// anything that does not read x's ghost slots.
template <class Scalar>
comm::PendingExchange halo_import_async(comm::Communicator& comm,
                                        const HaloPlan& plan,
                                        const std::vector<comm::Message>& msgs,
                                        DistMultiVector<Scalar>& x) {
  return comm.exchange_async(msgs, detail::ghost_copy(plan, x));
}

namespace detail {

/// Width-scaled local kernel accounting shared by dist_spmv_multi and its
/// overlapped twin (identical by design: the overlapped path's benefit
/// enters solely through the comm-side ov_/window fields its wait()
/// records; the interior/boundary pass split is a host-side scheduling
/// detail below the launch-accounting granularity).
template <class Scalar>
OpProfile spmv_multi_local_profile(const CsrMatrix<Scalar>& Al, index_t w) {
  OpProfile p;
  p.flops =
      2.0 * static_cast<double>(Al.num_entries()) * static_cast<double>(w);
  // The matrix is streamed ONCE for the whole block; the vectors w times.
  p.bytes = Al.storage_bytes() +
            static_cast<double>(Al.num_rows() + Al.num_cols()) *
                static_cast<double>(w) * sizeof(Scalar);
  p.launches = 1;
  p.critical_path = 1;
  p.work_items = static_cast<double>(Al.num_rows()) * static_cast<double>(w);
  return p;
}

template <class Scalar>
void charge_spmv_multi(comm::Communicator& comm,
                       const DistCsrMatrix<Scalar>& A, index_t w,
                       OpProfile* prof) {
  device::DeviceArena* arena = device::arena_of(comm.policy());
  for (int r = 0; r < comm.size(); ++r) {
    const auto& Al = A.local[static_cast<size_t>(r)];
    comm.prof(r) += spmv_multi_local_profile(Al, w);
    if (arena != nullptr) {
      // The SpMV kernel reads the rank's local matrix on the device: a
      // stale mirror measures the staging it forces; the steady state of a
      // Krylov loop is a no-op here (the matrix was staged at setup).
      if (Al.num_entries() > 0)
        arena->to_device(r, Al.values().data(), Al.storage_bytes(),
                         device::Xfer::Matrix);
      arena->launch(r, 1);
    }
  }
  if (prof) {
    // Aggregate view: the per-rank shares summed, as ONE bulk-synchronous
    // launch (matching la::spmv's whole-matrix accounting).
    OpProfile agg;
    for (const auto& Al : A.local) {
      OpProfile p = spmv_multi_local_profile(Al, w);
      agg.flops += p.flops;
      agg.bytes += p.bytes;
      agg.work_items += p.work_items;
    }
    agg.launches = 1;
    agg.critical_path = 1;
    *prof += agg;
  }
}

/// The row kernel of the distributed SpMV: every column of each rank's
/// local rows -- all of them, or the per-rank row list `rows` when given.
/// Row tasks: `sub` row-chunks per rank keep the pool busy when there are
/// fewer virtual ranks than threads (per-row results are independent of
/// the chunking and of the row list, so neither perturbs the bitwise
/// contract).
template <class Scalar>
void spmv_multi_rows(comm::Communicator& comm, const DistCsrMatrix<Scalar>& A,
                     const DistMultiVector<Scalar>& x,
                     DistMultiVector<Scalar>& y,
                     const std::vector<IndexVector>* rows) {
  const HaloPlan& plan = *A.plan;
  const index_t w = x.width;
  FROSCH_CHECK(y.width == w, "dist_spmv_multi: width mismatch");
  const exec::ExecPolicy& pol = comm.policy();
  const int R = comm.size();
  index_t sub = 1;
  if (pol.parallel() && R < pol.threads)
    sub = (pol.threads + static_cast<index_t>(R) - 1) / R;
  exec::parallel_for(
      pol, static_cast<index_t>(R) * sub,
      [&](index_t task) {
        const size_t r = static_cast<size_t>(task / sub);
        const auto& Al = A.local[r];
        const auto& xl = x.vals[r];
        auto& yl = y.vals[r];
        const auto& slot = plan.owned_slot[r];
        const size_t len = plan.cols[r].size();
        const index_t* list = rows ? (*rows)[r].data() : nullptr;
        const index_t nrows =
            rows ? static_cast<index_t>((*rows)[r].size()) : Al.num_rows();
        const auto [b, e] = exec::chunk_range(nrows, sub, task % sub);
        for (index_t c = 0; c < w; ++c) {
          const Scalar* xc = xl.data() + static_cast<size_t>(c) * len;
          Scalar* yc = yl.data() + static_cast<size_t>(c) * len;
          for (index_t q = b; q < e; ++q) {
            const index_t i = list ? list[q] : q;
            Scalar sum(0);
            for (index_t k = Al.row_begin(i); k < Al.row_end(i); ++k)
              sum += Al.val(k) * xc[Al.col(k)];
            yc[slot[i]] = sum;
          }
        }
      },
      /*grain=*/1);
}

}  // namespace detail

/// Rank-sharded Y = A X over an ALREADY-IMPORTED block X (call halo_import
/// first; DistCsrOperator in krylov/operator.hpp packages the sequence):
/// one pass over each rank's local matrix serves every column, so the
/// matrix is streamed once per block application instead of once per
/// column.  Per-rank compute is recorded into the communicator's measured
/// profiles; `prof` (optional) receives the aggregate, matching la::spmv's
/// accounting at width 1.
template <class Scalar>
void dist_spmv_multi(comm::Communicator& comm, const DistCsrMatrix<Scalar>& A,
                     const DistMultiVector<Scalar>& x,
                     DistMultiVector<Scalar>& y, OpProfile* prof = nullptr) {
  detail::spmv_multi_rows(comm, A, x, y, nullptr);
  detail::charge_spmv_multi(comm, A, x.width, prof);
}

/// Overlapped Y = A X: posts the block's ghost import (copies land
/// immediately, per the SimComm convention), computes the INTERIOR rows --
/// which read no ghost column -- while the wire operation is pending, waits
/// (charging the wire and the measured overlap window), then computes the
/// BOUNDARY rows.  Because the split is by whole row and each row's
/// summation schedule is unchanged, the result is bitwise identical to
/// halo_import + dist_spmv_multi at every (backend, ranks, threads), with
/// identical compute accounting.
template <class Scalar>
void dist_spmv_multi_overlapped(comm::Communicator& comm,
                                const DistCsrMatrix<Scalar>& A,
                                const std::vector<comm::Message>& msgs,
                                DistMultiVector<Scalar>& x,
                                DistMultiVector<Scalar>& y,
                                OpProfile* prof = nullptr) {
  const HaloPlan& plan = *A.plan;
  auto pending = halo_import_async(comm, plan, msgs, x);
  detail::spmv_multi_rows(comm, A, x, y, &plan.interior);
  pending.wait();
  detail::spmv_multi_rows(comm, A, x, y, &plan.boundary);
  detail::charge_spmv_multi(comm, A, x.width, prof);
}

}  // namespace frosch::la
