// Shared pieces of the repository benchmark: the three named workloads, the
// seeded input generators, the correctness checks every operation goes
// through, and the one-line JSON result printed last.
//
// Workloads (see NOTES.md for why each exists and what it should move).
// Both run at 1 thread: 2-thread runs were too noisy across processes on a
// shared VM; the trace still times the apply at 2 threads.
//   elasticity-sequence  Q1 elasticity 16x8x8, 16 box subdomains: large
//                        local factors dominate setup, and refresh re-runs
//                        them on cached symbolics.
//   elasticity-mps       the same mesh in 64 box subdomains, priced at 7
//                        ranks per GPU: small local factors, the
//                        replicated-root coarse problem dominates.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "frosch.hpp"
#include "perf/experiment.hpp"

namespace perfbench {

using namespace frosch;

/// Monotonic seconds since an arbitrary origin.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall time scaled to a reference host speed.
///
/// On a shared VM the same solve runs up to 35% slower or faster for
/// seconds to minutes at a time, as other tenants load the host.  A fixed
/// reference kernel timed next to each sample slows down with it: a gather
/// over 32 MiB in 64-byte blocks of shuffled order tracked the solve times
/// best of the kernels tried (NOTES.md).  Each sample is timed as
///   wall * kNominal / mean(reference pass before, reference pass after),
/// i.e. in seconds at the host speed where one pass takes kNominal.  The
/// kernel and its data are the benchmark's own, so a change to the program
/// moves the sample and not the reference.
class HostClock {
 public:
  /// Median reference pass on an idle 4-core Xeon (Sapphire Rapids) VM.
  static constexpr double kNominal = 0.013;

  HostClock();
  /// Times `fn` and returns its wall time scaled to the reference speed.
  template <class Fn>
  double time(Fn&& fn) {
    if (last_ <= 0.0) last_ = reference_s();
    const double t0 = now_s();
    fn();
    const double t = now_s() - t0;
    const double r = reference_s();
    const double scaled = t * kNominal / (0.5 * (last_ + r));
    last_ = r;
    wall_.push_back(t);
    return scaled;
  }
  /// One timed pass of the reference kernel, in wall seconds.
  double reference_s();
  /// Unscaled wall times of every sample timed so far.
  const std::vector<double>& wall() const { return wall_; }
  /// Every reference pass so far, in wall seconds.
  const std::vector<double>& references() const { return reference_; }
  /// Resident bytes of the reference data, allocated and touched once.
  double bytes() const;

 private:
  std::vector<double> data_;
  std::vector<std::uint32_t> order_;  ///< shuffled 64-byte block order
  std::vector<double> reference_;     ///< every reference pass, wall s
  std::vector<double> wall_;
  double last_ = 0.0;
};

/// splitmix64: a small, fully specified generator, so a seed gives the same
/// inputs with every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

struct Workload {
  std::string name;
  la::CsrMatrix<double> A;
  la::DenseMatrix<double> Z;
  index_t parts = 0;
  index_t mesh_nodes[3] = {0, 0, 0};
  index_t boxes[3] = {0, 0, 0};  ///< box partition of the mesh nodes
  IndexVector keep;              ///< kept dof -> full dof (Dirichlet)
  int dofs_per_node = 1;
  IndexVector owner;             ///< dof -> part
  SolverConfig cfg;              ///< Auto backend; Device runs override it
  int ranks_per_gpu = 1;         ///< Summit model MPS setting
  index_t pinned_iterations = 0; ///< exact GMRES count of the base solve
  index_t pinned_coarse_dim = 0; ///< exact first-level coarse dimension
};

/// Builds a named workload; throws frosch::Error for an unknown name.
Workload make_workload(const std::string& name);

/// Cold setup of the facade on the workload's matrix and partition.
void setup(Solver& s, const Workload& w);

/// The partition the workload's setup uses, as a dof -> part vector: the
/// box partition of the mesh nodes.
IndexVector partition(const Workload& w);

/// Right-hand side with entries 1 + U(-0.25, 0.25).
std::vector<double> seeded_rhs(index_t n, Rng& rng);

/// Next matrix of a same-pattern sequence: D A D with d_i = 1 + U(-.25, .25).
la::CsrMatrix<double> rescaled(const la::CsrMatrix<double>& A, Rng& rng);

/// True relative residual ||b - A x|| / ||b||, recomputed from scratch.
double relative_residual(const la::CsrMatrix<double>& A,
                         const std::vector<double>& b,
                         const std::vector<double>& x);

/// Largest accepted true relative residual at the 1e-7 solver tolerance.
constexpr double kResidualLimit = 1e-6;

/// Counts operations and failed ones; a failed check marks its operation.
class Ledger {
 public:
  /// Starts one operation.
  void begin() {
    ++attempted_;
    op_failed_ = false;
  }
  /// Marks the current operation failed (once) and logs why on stderr.
  void fail(const std::string& why);
  /// Checks a condition of the current operation.
  bool check(bool ok, const std::string& why) {
    if (!ok) fail(why);
    return ok;
  }
  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
  bool op_failed_ = false;
};

/// Runs `fn` as one operation: frosch::Error and other exceptions are
/// caught and counted as a failure.  Returns whether it completed
/// without a failed check.
template <class Fn>
bool run_op(Ledger& ledger, const char* what, Fn&& fn) {
  ledger.begin();
  const long before = ledger.failed();
  try {
    fn();
  } catch (const std::exception& e) {
    ledger.fail(std::string(what) + ": " + e.what());
  }
  return ledger.failed() == before;
}

/// Checks a single-rhs solve of A x = b: converged, true residual, and
/// the workload's pinned coarse dimension.
void check_solve(Ledger& ledger, const char* what, const Workload& w,
                 const SolveReport& rep, const la::CsrMatrix<double>& A,
                 const std::vector<double>& b, const std::vector<double>& x);

/// The SolveReport fields the Summit model reads, as an ExperimentResult.
perf::ExperimentResult experiment_of(const SolveReport& rep, index_t n);

/// Median of a non-empty sample.
double median(std::vector<double> v);

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the JSON result as the last stdout line.
void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics);

/// The traced run: replays the pipeline through the layers' own public
/// functions and returns the per-layer metrics.
std::vector<Metric> trace_run(const Workload& w, std::uint64_t seed,
                              Ledger& ledger);

}  // namespace perfbench
