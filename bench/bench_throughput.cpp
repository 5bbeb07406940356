// Multi-RHS throughput of the batched SolveSession service: ONE setup
// (decomposition + factorizations + coarse space) amortized over a stream
// of right-hand sides, solved in lockstep blocks of width 1/2/4/8 --
// solves/sec versus block width is the price of the fused collectives (one
// all-reduce per block iteration regardless of width) and the shared ghost
// imports / matrix streaming of the block operator.
//
// The determinism contract makes the iteration counts a hard guard: every
// rhs must take EXACTLY the same iterations at every width (fused
// reduction slots fold independently), so any drift fails the bench.  Each
// record carries its solves/s ratio to width 1, and the bench also fails
// when width 4 is slower than width 1: the block Schwarz apply streams
// every subdomain factor once per block, so batching must not lose.
//
// Default problem: the 24^3 Laplace brick, 8 subdomains.  Usage:
//   bench_throughput [--elems N] [--parts P] [--nrhs R] [--json PATH]
//                    [solver flags...]
#include <cmath>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "solver/session.hpp"

using namespace frosch;
using namespace frosch::bench;

namespace {

struct Measurement {
  index_t width = 1;
  double wall_s = 0.0;
  double solves_per_s = 0.0;
  double vs_width1 = 1.0;  ///< solves/s relative to width 1
  index_t total_iterations = 0;
  bool all_converged = true;
  std::vector<index_t> iterations;  ///< per rhs, the drift guard's subject
};

}  // namespace

int main(int argc, char** argv) {
  index_t elems = 24, parts = 8, nrhs = 8;
  auto opt = parse_options(
      argc, argv,
      {{"elems", "brick elements per axis (default 24)", &elems},
       {"parts", "subdomain count (default 8)", &parts},
       {"nrhs", "right-hand sides per width point (default 8)", &nrhs}});
  JsonWriter json(opt.json_path);

  SolverConfig cfg;
  cfg.num_parts = parts;
  try {
    cfg = SolverConfig::from_parameters(opt.solver_params, cfg);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  fem::BrickMesh mesh(elems, elems, elems, double(elems), double(elems),
                      double(elems));
  auto Afull = fem::assemble_laplace(mesh);
  IndexVector fixed;
  for (index_t nd : mesh.x0_face_nodes()) fixed.push_back(nd);
  auto sys = fem::apply_dirichlet(Afull, fixed);
  auto Z = fem::restrict_nullspace(fem::laplace_nullspace(mesh), sys.keep);
  const index_t n = sys.A.num_rows();

  // The rhs stream: deterministic, distinct columns.
  std::vector<std::vector<double>> rhs(static_cast<size_t>(nrhs));
  for (index_t c = 0; c < nrhs; ++c) {
    rhs[static_cast<size_t>(c)].resize(static_cast<size_t>(n));
    for (index_t i = 0; i < n; ++i)
      rhs[static_cast<size_t>(c)][static_cast<size_t>(i)] =
          1.0 + 0.5 * std::sin(0.001 * (i + 1) * double(c + 1));
  }

  // ONE setup for the whole bench -- the amortization the service sells.
  Solver solver(cfg);
  Timer ts;
  solver.setup(sys.A, Z);
  const double setup_s = ts.seconds();

  std::printf(
      "\n=== multi-RHS throughput: %d^3 Laplace, %d subdomains, %d rhs, "
      "setup %.3fs ===\n",
      int(elems), int(parts), int(nrhs), setup_s);
  std::printf("%-8s %12s %14s %10s %10s %10s\n", "width", "wall[s]",
              "solves/s", "vs w=1", "iters", "converged");

  std::vector<Measurement> ms;
  for (index_t w : {1, 2, 4, 8}) {
    Measurement mm;
    mm.width = w;
    // The session reads its block width from the solver config at
    // construction, so each ladder point gets its own facade; the setup
    // cost is identical and kept OUTSIDE the timed region -- the timed
    // stream is what a caller amortizing one setup would see.
    SolverConfig c2 = solver.config();
    c2.block_size = w;
    c2.batch = 0;
    Solver bench_solver(c2);
    bench_solver.setup(sys.A, Z);
    SolveSession session(bench_solver);
    std::vector<size_t> tickets;
    for (const auto& b : rhs) tickets.push_back(session.enqueue(b));
    Timer t;
    session.flush();
    mm.wall_s = t.seconds();
    mm.solves_per_s = double(nrhs) / mm.wall_s;
    if (!ms.empty()) mm.vs_width1 = mm.solves_per_s / ms.front().solves_per_s;
    for (size_t q : tickets) {
      const auto& rep = session.report(q);
      mm.iterations.push_back(rep.iterations);
      mm.total_iterations += rep.iterations;
      mm.all_converged = mm.all_converged && rep.converged;
    }
    std::printf("%-8d %12.3f %14.2f %10.2f %10d %10s\n", int(w), mm.wall_s,
                mm.solves_per_s, mm.vs_width1, int(mm.total_iterations),
                mm.all_converged ? "yes" : "NO");
    JsonRecord rec;
    rec.set("bench", "throughput")
        .set("elems", elems)
        .set("parts", parts)
        .set("nrhs", nrhs)
        .set("block_size", w)
        .set("setup_s", setup_s)
        .set("wall_s", mm.wall_s)
        .set("solves_per_s", mm.solves_per_s)
        .set("solves_per_s_vs_width1", mm.vs_width1)
        .set("total_iterations", mm.total_iterations)
        .set("all_converged", mm.all_converged);
    json.add(rec);
    ms.push_back(std::move(mm));
  }

  // Iteration-count drift guard: per-rhs counts must be identical at every
  // width (the block contract: a column's trajectory never depends on its
  // batch).
  for (const auto& m : ms) {
    for (size_t q = 0; q < m.iterations.size(); ++q) {
      if (m.iterations[q] != ms.front().iterations[q]) {
        std::fprintf(stderr,
                     "FAIL: rhs %d iteration count drifted with width %d "
                     "(%d vs %d)\n",
                     int(q), int(m.width), int(m.iterations[q]),
                     int(ms.front().iterations[q]));
        return 1;
      }
    }
    if (!m.all_converged) {
      std::fprintf(stderr, "FAIL: width %d left unconverged rhs\n",
                   int(m.width));
      return 1;
    }
  }
  std::printf("per-rhs iteration counts identical across widths: yes\n");

  // Batching guard: a width-4 block must not lose to single-rhs solves.
  for (const auto& m : ms) {
    if (m.width == 4 && m.vs_width1 < 1.0) {
      std::fprintf(stderr,
                   "FAIL: width 4 is slower than width 1 (%.2f vs %.2f "
                   "solves/s)\n",
                   m.solves_per_s, ms.front().solves_per_s);
      return 1;
    }
  }
  std::printf("width 4 at least as fast as width 1: yes\n");
  return 0;
}
