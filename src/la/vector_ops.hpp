// Dense vector kernels (axpy/dot/norm/scale) with profile instrumentation.
//
// Dot products additionally record a global reduction: the collective model
// charges one all-reduce latency per `reductions` increment, which is exactly
// the cost the single-reduce GMRES variant (Section I, Table I) is designed
// to amortize.
//
// All kernels execute through the exec layer.  Elementwise kernels are
// bitwise reproducible at any thread count (disjoint writes); reductions use
// exec::parallel_reduce's fixed chunk decomposition, so dot/norm2/multi_dot
// are ALSO bitwise identical across thread counts including serial -- the
// property the equivalence tests in test_exec assert.
#pragma once

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/op_profile.hpp"
#include "common/types.hpp"
#include "device/arena.hpp"
#include "exec/exec.hpp"

namespace frosch::la {

template <class Scalar>
void axpy(Scalar alpha, const std::vector<Scalar>& x, std::vector<Scalar>& y,
          OpProfile* prof = nullptr, const exec::ExecPolicy& policy = {}) {
  FROSCH_ASSERT(x.size() == y.size(), "axpy: size mismatch");
  exec::parallel_for(policy, static_cast<index_t>(x.size()),
                     [&](index_t i) { y[i] += alpha * x[i]; });
  device::launches(policy, 1);
  if (prof) {
    prof->flops += 2.0 * static_cast<double>(x.size());
    prof->bytes += 3.0 * static_cast<double>(x.size()) * sizeof(Scalar);
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(x.size());
  }
}

template <class Scalar>
void scale(std::vector<Scalar>& x, Scalar alpha, OpProfile* prof = nullptr,
           const exec::ExecPolicy& policy = {}) {
  exec::parallel_for(policy, static_cast<index_t>(x.size()),
                     [&](index_t i) { x[i] *= alpha; });
  device::launches(policy, 1);
  if (prof) {
    prof->flops += static_cast<double>(x.size());
    prof->bytes += 2.0 * static_cast<double>(x.size()) * sizeof(Scalar);
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(x.size());
  }
}

/// Local dot product + one modeled global reduction.
template <class Scalar>
Scalar dot(const std::vector<Scalar>& x, const std::vector<Scalar>& y,
           OpProfile* prof = nullptr, const exec::ExecPolicy& policy = {}) {
  FROSCH_ASSERT(x.size() == y.size(), "dot: size mismatch");
  const Scalar s = exec::parallel_reduce<Scalar>(
      policy, static_cast<index_t>(x.size()), [&](index_t b, index_t e) {
        Scalar p(0);
        for (index_t i = b; i < e; ++i) p += x[i] * y[i];
        return p;
      });
  device::launches(policy, 1);
  if (prof) {
    prof->flops += 2.0 * static_cast<double>(x.size());
    prof->bytes += 2.0 * static_cast<double>(x.size()) * sizeof(Scalar);
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(x.size());
    prof->reductions += 1;
  }
  return s;
}

template <class Scalar>
Scalar norm2(const std::vector<Scalar>& x, OpProfile* prof = nullptr,
             const exec::ExecPolicy& policy = {}) {
  return std::sqrt(dot(x, x, prof, policy));
}

/// Fused multi-dot: k dot products against a common vector, one reduction.
/// This is the kernel the single-reduce orthogonalization relies on.
/// Parallelized by chunking the vector length (k is small -- the GMRES
/// basis size); per-chunk partial sum vectors are combined in chunk order,
/// so results are bitwise identical at every thread count.
template <class Scalar>
void multi_dot(const std::vector<std::vector<Scalar>>& vs,
               const std::vector<Scalar>& w, std::vector<Scalar>& out,
               OpProfile* prof = nullptr, const exec::ExecPolicy& policy = {}) {
  const size_t k = vs.size();
  for (size_t j = 0; j < k; ++j)
    FROSCH_ASSERT(vs[j].size() == w.size(), "multi_dot: size mismatch");
  const index_t n = static_cast<index_t>(w.size());
  const index_t nc = exec::chunk_count(n);
  std::vector<std::vector<Scalar>> partial(static_cast<size_t>(nc));
  exec::parallel_for(
      policy, nc,
      [&](index_t c) {
        auto& pc = partial[c];
        pc.assign(k, Scalar(0));
        const auto [b, e] = exec::chunk_range(n, nc, c);
        for (size_t j = 0; j < k; ++j) {
          const Scalar* vj = vs[j].data();
          Scalar s(0);
          for (index_t i = b; i < e; ++i) s += vj[i] * w[i];
          pc[j] = s;
        }
      },
      /*grain=*/1);
  out.assign(k, Scalar(0));
  for (index_t c = 0; c < nc; ++c)
    for (size_t j = 0; j < k; ++j) out[j] += partial[c][j];
  device::launches(policy, 1);
  if (prof) {
    prof->flops += 2.0 * static_cast<double>(vs.size()) *
                   static_cast<double>(w.size());
    prof->bytes += (static_cast<double>(vs.size()) + 1.0) *
                   static_cast<double>(w.size()) * sizeof(Scalar);
    prof->launches += 1;
    prof->critical_path += 1;
    prof->work_items += static_cast<double>(w.size());
    prof->reductions += 1;  // all k partial sums travel in ONE all-reduce
  }
}

/// Packs w equal-length columns into the row-major interleaved block of the
/// multi-column local and coarse solves: entry (i, c) at i*w + c.
template <class Scalar>
std::vector<Scalar> interleave(const std::vector<std::vector<Scalar>>& cols) {
  const size_t w = cols.size(), n = w > 0 ? cols[0].size() : 0;
  std::vector<Scalar> block(n * w);
  for (size_t c = 0; c < w; ++c) {
    FROSCH_ASSERT(cols[c].size() == n, "interleave: column length mismatch");
    for (size_t i = 0; i < n; ++i) block[i * w + c] = cols[c][i];
  }
  return block;
}

/// Unpacks a row-major interleaved block of w columns (see interleave).
template <class Scalar>
std::vector<std::vector<Scalar>> deinterleave(const std::vector<Scalar>& block,
                                              index_t w) {
  const size_t ws = static_cast<size_t>(w), n = block.size() / ws;
  std::vector<std::vector<Scalar>> cols(ws, std::vector<Scalar>(n));
  for (size_t c = 0; c < ws; ++c)
    for (size_t i = 0; i < n; ++i) cols[c][i] = block[i * ws + c];
  return cols;
}

}  // namespace frosch::la
