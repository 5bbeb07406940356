// Repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 runs the workload end to end through the public frosch::Solver
// facade: one warm-up repetition on the Device backend (bitwise identical
// results; its measured transfer ledgers feed the Summit model), then timed
// repetitions of cold setup -> single-rhs solves -> solve_batch of one
// width-4 block of right-hand sides -> two refreshes, each to the next
// matrix of a D_k A D_k sequence, until S seconds have
// passed (at least kMinReps).  Each timed sample is scaled to a reference
// host speed (HostClock in bench.hpp), and the wall metrics are medians of
// the scaled samples.  --trace 1 runs the traced replay of trace.cpp.
//
// Every operation is checked (true residual, pinned iteration count, one
// refreshed-vs-cold bitwise comparison per run, exact metrics repeating
// across repetitions); a failed check or a caught frosch::Error counts as
// one failed operation and the run carries on.  The last stdout line is
// the JSON result: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

using namespace perfbench;

namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 200;
constexpr int kTimedSolves = 3;  // per repetition, after one untimed solve
constexpr int kTimedRefreshes = 2;  // per repetition, each to a new D_k A D_k

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      a.trace = std::atoi(val.c_str());
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         (a.trace == 0 || a.trace == 1);
}

/// The metrics of one solve that must repeat exactly across repetitions
/// (determinism contract): counts and the Summit pricing of the counts.
struct Exact {
  index_t iterations = 0;
  index_t coarse_dim = 0;
  double modeled_setup = 0.0;
  double modeled_solve = 0.0;
  double comm_msgs = 0.0;
  double comm_bytes = 0.0;

  bool operator==(const Exact& o) const {
    return iterations == o.iterations && coarse_dim == o.coarse_dim &&
           modeled_setup == o.modeled_setup &&
           modeled_solve == o.modeled_solve && comm_msgs == o.comm_msgs &&
           comm_bytes == o.comm_bytes;
  }
};

Exact exact_of(const Workload& w, const SolveReport& rep) {
  static const perf::SummitModel model(perf::miniature_summit());
  const auto t = perf::model_times(experiment_of(rep, w.A.num_rows()), model,
                                   perf::Execution::Gpu, w.ranks_per_gpu);
  Exact e;
  e.iterations = rep.iterations;
  e.coarse_dim = rep.coarse_dim;
  e.modeled_setup = t.setup;
  e.modeled_solve = t.solve;
  for (const auto* v : {&rep.rank_setup_comm, &rep.rank_krylov})
    for (const auto& p : *v) {
      e.comm_msgs += static_cast<double>(p.neighbor_msgs + p.reductions);
      e.comm_bytes += p.msg_bytes;
    }
  return e;
}

struct Inputs {
  std::vector<double> b;
  std::vector<std::vector<double>> B;  ///< one full-width block of rhs
};

/// Solves one block through solve_batch and checks every column against
/// the matrix M, and against the workload's pinned iteration count when
/// `pinned` (M is the workload's own matrix); returns the right-hand sides
/// completed per second.
double timed_batch(Solver& s, const Workload& w,
                   const la::CsrMatrix<double>& M, bool pinned,
                   const std::vector<std::vector<double>>& B,
                   Ledger& ledger, HostClock& clock) {
  std::vector<std::vector<double>> X;
  std::vector<SolveReport> reps;
  const double t = clock.time([&] { reps = s.solve_batch(B, X); });
  ledger.check(reps.size() == B.size() && X.size() == B.size(),
               "solve_batch: result count");
  for (size_t c = 0; c < reps.size() && c < X.size(); ++c) {
    check_solve(ledger, "solve_batch column", w, reps[c], M, B[c], X[c]);
    if (pinned)
      ledger.check(reps[c].iterations == w.pinned_iterations,
                   "solve_batch column: iterations " +
                       std::to_string(reps[c].iterations) + " != pinned " +
                       std::to_string(w.pinned_iterations));
  }
  return static_cast<double>(B.size()) / t;
}

/// Warm-up repetition on the Device backend.  Returns the exact metrics of
/// the base solve (priced with the measured PCIe ledgers) and checks that
/// a refreshed step solves bitwise identically to a cold setup of the same
/// matrix: setup(A), solve -> refresh(M), solve_batch -> refresh(A), solve.
Exact warm_up(const Workload& w, const Inputs& in, Rng& rng, Ledger& ledger,
              HostClock& clock) {
  SolverConfig cfg = w.cfg;
  cfg.exec_mode = ExecMode::Device;
  Solver s(cfg);
  Exact e;
  std::vector<double> x_cold;
  SolveReport cold;
  if (!run_op(ledger, "warm-up setup", [&] { setup(s, w); })) return e;
  run_op(ledger, "warm-up solve", [&] {
    cold = s.solve(in.b, x_cold);
    check_solve(ledger, "warm-up solve", w, cold, w.A, in.b, x_cold);
    e = exact_of(w, cold);
  });
  const auto M = rescaled(w.A, rng);
  run_op(ledger, "warm-up refresh", [&] { s.refresh(M); });
  run_op(ledger, "warm-up solve_batch", [&] {
    timed_batch(s, w, M, false, in.B, ledger, clock);
  });
  run_op(ledger, "refreshed-vs-cold solve", [&] {
    s.refresh(w.A);
    std::vector<double> x;
    const auto rep = s.solve(in.b, x);
    check_solve(ledger, "refreshed solve", w, rep, w.A, in.b, x);
    ledger.check(rep.setup_reused, "refresh fell back to a full setup");
    ledger.check(rep.iterations == cold.iterations &&
                     x.size() == x_cold.size() &&
                     std::memcmp(x.data(), x_cold.data(),
                                 x.size() * sizeof(double)) == 0,
                 "refreshed solve is not bitwise identical to cold setup");
  });
  return e;
}

struct RepTimes {
  double setup = 0.0, solves_per_s = 0.0;
  std::vector<double> solve, refresh;
  Exact exact;
};

/// One timed repetition; false when any of its operations failed.  The first
/// solve after the cold setup pays first-touch costs that vary from run to
/// run, so it is checked but not timed.
bool timed_rep(const Workload& w, const Inputs& in, Rng& rng,
               Ledger& ledger, HostClock& clock, RepTimes& t) {
  Solver s(w.cfg);
  bool ok = run_op(ledger, "setup", [&] {
    t.setup = clock.time([&] { setup(s, w); });
  });
  if (!ok) return false;
  for (int i = 0; i <= kTimedSolves; ++i) {
    ok &= run_op(ledger, "solve", [&] {
      std::vector<double> x;
      SolveReport rep;
      if (i > 0) {
        t.solve.push_back(clock.time([&] { rep = s.solve(in.b, x); }));
      } else {
        rep = s.solve(in.b, x);
      }
      check_solve(ledger, "solve", w, rep, w.A, in.b, x);
      ledger.check(rep.iterations == w.pinned_iterations,
                   "iterations " + std::to_string(rep.iterations) +
                       " != pinned " + std::to_string(w.pinned_iterations));
      if (i == 0) t.exact = exact_of(w, rep);
    });
  }
  // The batch solves A, not the refreshed matrix: a random D_k A D_k takes
  // more iterations than A (up to 123 against 52 on elasticity-mps), and
  // how many changes with the seed and the repetition.
  ok &= run_op(ledger, "solve_batch", [&] {
    t.solves_per_s = timed_batch(s, w, w.A, true, in.B, ledger, clock);
  });
  for (int i = 0; i < kTimedRefreshes; ++i) {
    const auto M = rescaled(w.A, rng);
    ok &= run_op(ledger, "refresh", [&] {
      t.refresh.push_back(clock.time([&] { s.refresh(M); }));
    });
  }
  return ok;
}

/// Peak resident memory of the program: the process's high-water mark less
/// the reference data, which stays resident from before the first setup.
double peak_rss_mib(const HostClock& clock) {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  const double kib = static_cast<double>(ru.ru_maxrss);  // ru_maxrss is KiB
  return (kib * 1024.0 - clock.bytes()) / (1024.0 * 1024.0);
}

void end_to_end(const Workload& w, const Args& a, Ledger& ledger,
                std::vector<Metric>& metrics) {
  Rng rng(a.seed);
  Inputs in;
  in.b = seeded_rhs(w.A.num_rows(), rng);
  for (index_t c = 0; c < w.cfg.block_size; ++c)
    in.B.push_back(seeded_rhs(w.A.num_rows(), rng));

  HostClock clock;
  const double start = now_s();
  const Exact modeled = warm_up(w, in, rng, ledger, clock);
  std::vector<double> setup_s, solve_s, refresh_s, solves_per_s;
  Exact first;
  int reps = 0;
  while (reps < kMaxReps &&
         (reps < kMinReps || now_s() - start < a.seconds)) {
    RepTimes t;
    const bool ok = timed_rep(w, in, rng, ledger, clock, t);
    ++reps;
    std::fprintf(stderr,
                 "rep %d: setup %.4f s  solve %.4f s  refresh %.4f s  "
                 "%.3f solves/s\n",
                 reps, t.setup, t.solve.empty() ? 0.0 : median(t.solve),
                 t.refresh.empty() ? 0.0 : median(t.refresh),
                 t.solves_per_s);
    if (!ok) continue;
    if (setup_s.empty()) {
      first = t.exact;
    } else {
      ledger.begin();
      ledger.check(t.exact == first,
                   "exact metrics differ between repetitions");
    }
    setup_s.push_back(t.setup);
    solve_s.insert(solve_s.end(), t.solve.begin(), t.solve.end());
    refresh_s.insert(refresh_s.end(), t.refresh.begin(), t.refresh.end());
    solves_per_s.push_back(t.solves_per_s);
  }
  std::fprintf(stderr,
               "%d repetitions; median reference pass %.4f s (nominal %.4f "
               "s), median unscaled sample %.4f s\n",
               reps, median(clock.references()), HostClock::kNominal,
               median(clock.wall()));
  if (setup_s.empty()) return;
  ledger.begin();
  ledger.check(modeled.iterations == first.iterations &&
                   modeled.coarse_dim == first.coarse_dim &&
                   modeled.comm_msgs == first.comm_msgs &&
                   modeled.comm_bytes == first.comm_bytes,
               "Device backend counts differ from the timed repetitions");
  metrics = {
      {"setup_s", median(setup_s), "s"},
      {"solve_s", median(solve_s), "s"},
      {"refresh_s", median(refresh_s), "s"},
      {"solves_per_s", median(solves_per_s), "1/s"},
      {"iterations", static_cast<double>(first.iterations), "count"},
      {"modeled_setup_s", modeled.modeled_setup, "model-s"},
      {"modeled_solve_s", modeled.modeled_solve, "model-s"},
      {"peak_rss_mib", peak_rss_mib(clock), "MiB"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  Workload w;
  try {
    w = make_workload(a.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  Ledger ledger;
  std::vector<Metric> metrics;
  if (a.trace) {
    metrics = trace_run(w, a.seed, ledger);
  } else {
    end_to_end(w, a, ledger, metrics);
  }
  print_result(ledger.failed() == 0 && !metrics.empty(),
               std::max(1L, ledger.attempted()), ledger.failed(), metrics);
  return 0;
}
