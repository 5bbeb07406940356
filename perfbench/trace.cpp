// Traced run of the repository benchmark (--trace 1).
//
// Replays the workload's pipeline through the layers' own public functions
// and times every call from outside -- nothing inside src/ is instrumented:
//
//   setup   partition (graph::box_partition_3d)
//           -> dd::build_decomposition -> dd::build_interface (+ basis)
//           -> la::extract_submatrix -> graph::nested_dissection
//           -> dd::LocalSolver::symbolic -> dd::LocalSolver::numeric
//           -> dd::extend_basis -> RAP (la::spgemm)
//           -> mlevel::CoarseHierarchy::numeric_setup
//   solve   Krylov over a timed distributed operator (la::dist_spmv) and a
//           timed SchwarzPreconditioner::apply, then replays of one apply's
//           dd::LocalSolver::solve calls and CoarseHierarchy::solve.
//
// Exact counts come from the facade's SolveReport (OpProfile, measured
// comm, TransferLedger of a Device-backend run) and are priced with
// perf::model_setup_breakdown / model_coarse.  The replay must reproduce
// the facade's coarse dimension and iteration count; the share of the
// facade's setup and solve time the timed calls cover is reported so that
// untimed gaps stay visible.
#include <algorithm>
#include <memory>

#include "bench.hpp"
#include "mlevel/hierarchy.hpp"

namespace perfbench {
namespace {

constexpr int kSolveReplays = 3;  // replayed Krylov solves (median)
constexpr int kApplyRounds = 7;   // replayed applies per timing (median)

template <class Fn>
double timed(Fn&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

/// Times every application of the wrapped operator.
class TimedOperator final : public krylov::LinearOperator<double> {
 public:
  explicit TimedOperator(const krylov::LinearOperator<double>& inner)
      : inner_(inner) {}
  index_t rows() const override { return inner_.rows(); }
  index_t cols() const override { return inner_.cols(); }
  double seconds() const { return seconds_; }
  count_t calls() const { return calls_; }

 protected:
  void apply_impl(const std::vector<double>& x, std::vector<double>& y,
                  OpProfile* prof) const override {
    seconds_ += timed([&] { inner_.apply(x, y, prof); });
    ++calls_;
  }
  void apply_columns_impl(const std::vector<const std::vector<double>*>& X,
                          const std::vector<std::vector<double>*>& Y,
                          OpProfile* prof) const override {
    seconds_ += timed([&] { inner_.apply_columns(X, Y, prof); });
    calls_ += static_cast<count_t>(X.size());
  }

 private:
  const krylov::LinearOperator<double>& inner_;
  mutable double seconds_ = 0.0;
  mutable count_t calls_ = 0;
};

/// The fill-reducing ordering dd::LocalSolver::symbolic computes: nested
/// dissection of the node-compressed graph for block size b > 1.
IndexVector nd_order(const la::CsrMatrix<double>& A, index_t b) {
  const index_t n = A.num_rows();
  if (b <= 1 || n % b != 0)
    return graph::nested_dissection(graph::build_graph(A));
  la::TripletBuilder<char> qb(n / b, n / b);
  for (index_t i = 0; i < n; ++i)
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k)
      if (i / b != A.col(k) / b) qb.add(i / b, A.col(k) / b, 1);
  return graph::nested_dissection(graph::build_graph(qb.build()));
}

/// The setup pipeline rebuilt from layer calls, with each call's time.
struct SetupReplay {
  double partition_s = 0, decomposition_s = 0, interface_s = 0;
  double extract_s = 0, nd_s = 0, symbolic_s = 0, factor_s = 0;
  double extension_s = 0, rap_s = 0, coarse_setup_s = 0;
  double factor_flops = 0, factor_busy_s = 0, factor_spread = 0;

  dd::Decomposition decomp;
  std::vector<std::unique_ptr<dd::LocalSolver<double>>> solvers;
  la::CsrMatrix<double> phi, A0;
  std::unique_ptr<comm::SimComm> comm;
  std::unique_ptr<mlevel::CoarseHierarchy<double>> coarse;

  double covered() const {
    return partition_s + decomposition_s + interface_s + extract_s +
           symbolic_s + factor_s + extension_s + rap_s + coarse_setup_s;
  }
};

SetupReplay replay_setup(const Workload& w, const SolverConfig& cfg) {
  const dd::SchwarzConfig& sc = cfg.schwarz;
  const index_t P = w.parts;
  SetupReplay r;
  IndexVector owner;
  r.partition_s = timed([&] { owner = partition(w); });
  r.decomposition_s = timed([&] {
    r.decomp = dd::build_decomposition(w.A, owner, P, sc.overlap);
  });
  dd::InterfacePartition iface;
  la::CsrMatrix<double> phi_gamma;
  r.interface_s = timed([&] {
    iface = dd::build_interface(w.A, r.decomp);
    phi_gamma = dd::build_interface_basis<double>(iface, w.Z, w.A.num_rows(),
                                                  sc.coarse_space);
  });

  std::vector<la::CsrMatrix<double>> local(static_cast<size_t>(P));
  const auto& dofs = r.decomp.overlap_dofs;
  r.extract_s = timed([&] {
    exec::parallel_for(
        sc.exec, P,
        [&](index_t p) {
          local[p] = la::extract_submatrix(w.A, dofs[p], dofs[p]);
        },
        1);
  });
  r.nd_s = timed([&] {
    exec::parallel_for(
        sc.exec, P,
        [&](index_t p) { nd_order(local[p], sc.subdomain.dof_block_size); },
        1);
  });
  r.solvers.resize(static_cast<size_t>(P));
  r.symbolic_s = timed([&] {
    exec::parallel_for(
        sc.exec, P,
        [&](index_t p) {
          r.solvers[p] =
              std::make_unique<dd::LocalSolver<double>>(sc.subdomain);
          r.solvers[p]->symbolic(local[p]);
        },
        1);
  });
  std::vector<OpProfile> fac(static_cast<size_t>(P)), tri(fac.size());
  std::vector<double> part_s(fac.size());
  r.factor_s = timed([&] {
    exec::parallel_for(
        sc.exec, P,
        [&](index_t p) {
          part_s[p] = timed(
              [&] { r.solvers[p]->numeric(local[p], &fac[p], &tri[p]); });
        },
        1);
  });
  for (size_t p = 0; p < fac.size(); ++p) {
    r.factor_flops += fac[p].flops;
    r.factor_busy_s += part_s[p];
  }
  const auto [lo, hi] = std::minmax_element(part_s.begin(), part_s.end());
  r.factor_spread = *lo > 0.0 ? *hi / *lo : 0.0;

  r.extension_s = timed([&] {
    r.phi = dd::extend_basis(w.A, r.decomp, iface, phi_gamma, sc.extension,
                             nullptr, sc.exec);
  });
  r.rap_s = timed([&] {
    r.A0 = la::spgemm(la::transpose(r.phi), la::spgemm(w.A, r.phi));
  });
  r.comm = std::make_unique<comm::SimComm>(static_cast<int>(P),
                                           cfg.krylov.exec);
  r.coarse = std::make_unique<mlevel::CoarseHierarchy<double>>(sc, P);
  OpProfile cprof;
  r.coarse_setup_s =
      timed([&] { r.coarse->numeric_setup(r.A0, *r.comm, &cprof); });
  return r;
}

/// One replayed Krylov solve over timed operator and preconditioner.
struct SolveReplay {
  index_t iterations = 0;
  double wall_s = 0, apply_s = 0, spmv_s = 0;
  count_t apply_calls = 0;
};

SolveReplay replay_solve(const Workload& w, const Solver& ref,
                         const std::vector<double>& b) {
  SolverConfig cfg = ref.config();
  const auto& decomp = ref.decomposition();
  comm::SimComm comm(static_cast<int>(w.parts), cfg.krylov.exec);
  IndexVector rank_of(decomp.owner.size());
  for (size_t i = 0; i < rank_of.size(); ++i)
    rank_of[i] = comm.block_owner(decomp.num_parts, decomp.owner[i]);
  const la::HaloPlan plan =
      la::build_halo_plan(w.A, rank_of, static_cast<int>(w.parts));
  la::DistCsrMatrix<double> dA;
  dA.build(w.A, plan, cfg.krylov.exec);
  krylov::DistCsrOperator<double> op(dA, comm, cfg.krylov.exec,
                                     cfg.overlap_comm);
  krylov::KrylovOptions ko = cfg.krylov;
  ko.dist = la::DistContext{&comm, &plan};
  const auto krylov = krylov::make_krylov<double>(ko);

  const TimedOperator top(op), tprec(*ref.preconditioner());
  std::vector<double> x;
  SolveReplay s;
  s.wall_s = timed([&] {
    s.iterations = krylov->solve(top, &tprec, b, x).iterations;
  });
  s.apply_s = tprec.seconds();
  s.apply_calls = tprec.calls();
  s.spmv_s = top.seconds();
  return s;
}

/// Median time of kApplyRounds calls of fn.
template <class Fn>
double median_round(Fn&& fn) {
  std::vector<double> t;
  for (int k = 0; k < kApplyRounds; ++k) t.push_back(timed(fn));
  return median(t);
}

double sum_msgs(const std::vector<OpProfile>& ranks) {
  double s = 0.0;
  for (const auto& p : ranks)
    s += static_cast<double>(p.neighbor_msgs + p.reductions + p.sub_reductions);
  return s;
}

double sum_bytes(const std::vector<OpProfile>& ranks) {
  double s = 0.0;
  for (const auto& p : ranks) s += p.msg_bytes;
  return s;
}

double sum_bytes(const std::vector<device::TransferLedger>& ledgers) {
  double s = 0.0;
  for (const auto& l : ledgers) s += l.total.bytes();
  return s;
}

/// "overlap+rap (host)" -> "overlap_rap_host".
std::string metric_key(const std::string& bar) {
  std::string out;
  for (char c : bar) {
    const bool alnum = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
    if (alnum) {
      out += c;
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

}  // namespace

std::vector<Metric> trace_run(const Workload& w, std::uint64_t seed,
                              Ledger& ledger) {
  Rng rng(seed);
  const std::vector<double> b = seeded_rhs(w.A.num_rows(), rng);

  // Device-backend facade run (also the warm-up): exact counts, measured
  // PCIe ledgers, and the modeled breakdown.
  SolverConfig dcfg = w.cfg;
  dcfg.exec_mode = ExecMode::Device;
  Solver dev(dcfg);
  SolveReport drep;
  if (!run_op(ledger, "device setup", [&] { setup(dev, w); })) return {};
  if (!run_op(ledger, "device solve", [&] {
        std::vector<double> x;
        drep = dev.solve(b, x);
        check_solve(ledger, "device solve", w, drep, w.A, b, x);
      }))
    return {};

  // Reference facade run on the timed backend: the times the replay's
  // coverage is measured against, and the preconditioner it applies.
  Solver ref(w.cfg);
  double setup_ref = 0.0, solve_ref = 0.0;
  SolveReport rrep;
  if (!run_op(ledger, "setup",
              [&] { setup_ref = timed([&] { setup(ref, w); }); }))
    return {};
  if (!run_op(ledger, "solve", [&] {
        std::vector<double> x;
        solve_ref = timed([&] { rrep = ref.solve(b, x); });
        check_solve(ledger, "solve", w, rrep, w.A, b, x);
        ledger.check(rrep.iterations == w.pinned_iterations &&
                         drep.iterations == w.pinned_iterations,
                     "facade iterations differ from the pinned count");
        ledger.check(
            sum_msgs(rrep.rank_setup_comm) == sum_msgs(drep.rank_setup_comm) &&
                sum_bytes(rrep.rank_setup_comm) ==
                    sum_bytes(drep.rank_setup_comm) &&
                sum_msgs(rrep.rank_krylov) == sum_msgs(drep.rank_krylov) &&
                sum_bytes(rrep.rank_krylov) == sum_bytes(drep.rank_krylov),
            "comm counts differ between the Device and Auto backends");
      }))
    return {};

  SetupReplay sr;
  if (!run_op(ledger, "setup replay", [&] {
        sr = replay_setup(w, ref.config());
        ledger.check(sr.A0.num_rows() == rrep.coarse_dim &&
                         rrep.coarse_dim == drep.coarse_dim,
                     "replay coarse dim " + std::to_string(sr.A0.num_rows()) +
                         " != facade " + std::to_string(rrep.coarse_dim));
      }))
    return {};

  std::vector<double> apply_s, spmv_s, self_s;
  count_t apply_calls = 0;
  for (int k = 0; k < kSolveReplays; ++k) {
    run_op(ledger, "solve replay", [&] {
      const SolveReplay s = replay_solve(w, ref, b);
      ledger.check(s.iterations == rrep.iterations,
                   "replay iterations " + std::to_string(s.iterations) +
                       " != facade " + std::to_string(rrep.iterations));
      apply_s.push_back(s.apply_s);
      spmv_s.push_back(s.spmv_s);
      self_s.push_back(s.wall_s - s.apply_s - s.spmv_s);
      apply_calls = s.apply_calls;
    });
  }
  if (apply_s.empty()) return {};

  // One apply's local triangular solves and coarse solve, replayed.
  const auto& dofs = sr.decomp.overlap_dofs;
  const index_t P = w.parts;
  std::vector<std::vector<double>> xl(static_cast<size_t>(P)), yl(xl.size());
  std::vector<OpProfile> tprof(xl.size());
  for (index_t p = 0; p < P; ++p)
    for (index_t d : dofs[p]) xl[p].push_back(b[static_cast<size_t>(d)]);
  const exec::ExecPolicy& pol = ref.config().schwarz.exec;
  double trisolve_round = 0.0, coarse_round = 0.0, launches = 0.0;
  run_op(ledger, "local solve replay", [&] {
    exec::parallel_for(
        pol, P,
        [&](index_t p) { sr.solvers[p]->solve(xl[p], yl[p], &tprof[p]); }, 1);
    for (const auto& t : tprof) launches += static_cast<double>(t.launches);
    trisolve_round = median_round([&] {
      exec::parallel_for(
          pol, P, [&](index_t p) { sr.solvers[p]->solve(xl[p], yl[p]); }, 1);
    });
  });
  run_op(ledger, "coarse solve replay", [&] {
    std::vector<double> r0, z0(static_cast<size_t>(sr.A0.num_rows()));
    la::spmv_transpose(sr.phi, b, r0);
    coarse_round = median_round([&] { sr.coarse->solve(r0, z0, nullptr); });
  });

  // Apply at 1 and 2 threads (the other thread count set up separately).
  double apply_1t = 0.0, apply_2t = 0.0;
  run_op(ledger, "apply speedup", [&] {
    SolverConfig ocfg = w.cfg;
    ocfg.threads = w.cfg.threads == 1 ? 2 : 1;
    Solver other(ocfg);
    setup(other, w);
    std::vector<double> y(b.size());
    const auto* mine = ref.preconditioner();
    const auto* theirs = other.preconditioner();
    const double t_mine = median_round([&] { mine->apply(b, y, nullptr); });
    const double t_theirs = median_round([&] { theirs->apply(b, y, nullptr); });
    apply_1t = w.cfg.threads == 1 ? t_mine : t_theirs;
    apply_2t = w.cfg.threads == 1 ? t_theirs : t_mine;
  });

  const perf::SummitModel model(perf::miniature_summit());
  const auto res = experiment_of(drep, w.A.num_rows());
  const auto coarse = perf::model_coarse(res, model, perf::Execution::Gpu,
                                         w.ranks_per_gpu);
  const double calls = static_cast<double>(apply_calls);
  const double apply_med = median(apply_s), spmv_med = median(spmv_s);

  std::vector<Metric> m = {
      {"graph.partition_s", sr.partition_s, "s"},
      {"graph.nd_order_s", sr.nd_s, "s"},
      {"dd.decomposition_s", sr.decomposition_s, "s"},
      {"dd.interface_s", sr.interface_s, "s"},
      {"la.extract_s", sr.extract_s, "s"},
      {"direct.symbolic_s", sr.symbolic_s, "s"},
      {"direct.factor_s", sr.factor_s, "s"},
      {"direct.factor_flops", sr.factor_flops, "flop"},
      {"direct.factor_gflops", sr.factor_flops / sr.factor_busy_s / 1e9,
       "Gflop/s"},
      {"direct.factor_spread", sr.factor_spread, "ratio"},
      {"dd.extension_s", sr.extension_s, "s"},
      {"dd.rap_s", sr.rap_s, "s"},
      {"mlevel.coarse_setup_s", sr.coarse_setup_s, "s"},
      {"mlevel.coarse_dim", static_cast<double>(sr.A0.num_rows()), "count"},
      {"mlevel.coarse_solve_s", coarse_round * calls, "s"},
      {"mlevel.coarse_comm_bytes", drep.schwarz.coarse_comm_bytes, "B"},
      {"dd.apply_s", apply_med, "s"},
      {"dd.apply_calls", calls, "count"},
      {"trisolve.solve_s", trisolve_round * calls, "s"},
      {"trisolve.launches", launches * calls, "count"},
      {"la.spmv_s", spmv_med, "s"},
      {"krylov.reductions_per_iter",
       static_cast<double>(drep.krylov.reductions) /
           static_cast<double>(std::max<index_t>(1, drep.iterations)),
       "count"},
      {"krylov.self_s", median(self_s), "s"},
      {"exec.apply_speedup", apply_2t > 0.0 ? apply_1t / apply_2t : 0.0,
       "ratio"},
      {"comm.setup_msgs", sum_msgs(drep.rank_setup_comm), "count"},
      {"comm.setup_bytes", sum_bytes(drep.rank_setup_comm), "B"},
      {"comm.solve_msgs", sum_msgs(drep.rank_krylov), "count"},
      {"comm.solve_bytes", sum_bytes(drep.rank_krylov), "B"},
      {"device.setup_bytes", sum_bytes(drep.rank_setup_transfers), "B"},
      {"device.solve_bytes", sum_bytes(drep.rank_transfers), "B"},
  };
  for (const auto& [bar, s] : perf::model_setup_breakdown(
           res, model, perf::Execution::Gpu, w.ranks_per_gpu))
    m.push_back({"perf." + metric_key(bar) + "_s", s, "model-s"});
  m.push_back({"perf.coarse_setup_s", coarse.setup, "model-s"});
  m.push_back({"perf.coarse_solve_s", coarse.solve, "model-s"});
  m.push_back({"trace.setup_coverage", sr.covered() / setup_ref, "ratio"});
  m.push_back(
      {"trace.solve_coverage", (apply_med + spmv_med) / solve_ref, "ratio"});
  return m;
}

}  // namespace perfbench
