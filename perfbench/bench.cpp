#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {
namespace {

/// Q1 elasticity on ex x ey x ez unit elements, clamped at x = 0.
void elasticity_problem(Workload& w, index_t ex, index_t ey, index_t ez) {
  fem::BrickMesh mesh(ex, ey, ez, double(ex), double(ey), double(ez));
  auto sys = fem::apply_dirichlet(fem::assemble_elasticity(mesh),
                                  fem::clamped_x0_dofs(mesh));
  w.Z = fem::restrict_nullspace(fem::elasticity_nullspace(mesh), sys.keep);
  w.A = std::move(sys.A);
  w.keep = std::move(sys.keep);
  w.dofs_per_node = 3;
  w.mesh_nodes[0] = mesh.nodes_x();
  w.mesh_nodes[1] = mesh.nodes_y();
  w.mesh_nodes[2] = mesh.nodes_z();
  w.cfg.schwarz.coarse_space = dd::CoarseSpaceKind::GDSW;
  w.cfg.schwarz.subdomain.dof_block_size = 3;
  w.cfg.schwarz.extension.dof_block_size = 3;
}

void set_boxes(Workload& w, index_t px, index_t py, index_t pz) {
  w.boxes[0] = px;
  w.boxes[1] = py;
  w.boxes[2] = pz;
  w.parts = px * py * pz;
}

}  // namespace

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "elasticity-sequence") {
    elasticity_problem(w, 16, 8, 8);
    set_boxes(w, 4, 2, 2);
    w.pinned_iterations = 39;
    w.pinned_coarse_dim = 282;
  } else if (name == "elasticity-mps") {
    elasticity_problem(w, 16, 8, 8);
    set_boxes(w, 4, 4, 4);
    w.ranks_per_gpu = 7;
    w.pinned_iterations = 52;
    w.pinned_coarse_dim = 951;
  } else {
    FROSCH_CHECK(false, "unknown workload '"
                            << name
                            << "' (elasticity-sequence, elasticity-mps)");
  }
  w.cfg.block_size = 4;
  w.owner = partition(w);
  return w;
}

namespace {
constexpr std::size_t kBlockDoubles = 8;         // one 64-byte cache line
constexpr std::size_t kReferenceDoubles = 1u << 22;  // 32 MiB
volatile double reference_sink;
}  // namespace

HostClock::HostClock()
    : data_(kReferenceDoubles, 1.0),
      order_(kReferenceDoubles / kBlockDoubles) {
  for (std::size_t b = 0; b < order_.size(); ++b)
    order_[b] = static_cast<std::uint32_t>(b);
  Rng rng(0x5eedULL);  // fixed: every run gathers in the same order
  for (std::size_t b = order_.size() - 1; b > 0; --b)
    std::swap(order_[b], order_[rng.next() % (b + 1)]);
  reference_s();
}

double HostClock::reference_s() {
  const double t0 = now_s();
  double s = 0.0;
  for (const std::uint32_t b : order_) {
    const double* p = data_.data() + std::size_t{b} * kBlockDoubles;
    for (std::size_t k = 0; k < kBlockDoubles; ++k) s += p[k];
  }
  reference_sink = s;
  const double t = now_s() - t0;
  reference_.push_back(t);
  return t;
}

double HostClock::bytes() const {
  return static_cast<double>(data_.size() * sizeof(double) +
                             order_.size() * sizeof(std::uint32_t));
}

void setup(Solver& s, const Workload& w) {
  s.setup(w.A, w.Z, w.owner, w.parts);
}

IndexVector partition(const Workload& w) {
  const IndexVector node_part = graph::box_partition_3d(
      w.mesh_nodes[0], w.mesh_nodes[1], w.mesh_nodes[2], w.boxes[0],
      w.boxes[1], w.boxes[2]);
  IndexVector owner(w.keep.size());
  for (size_t q = 0; q < w.keep.size(); ++q)
    owner[q] = node_part[static_cast<size_t>(w.keep[q] / w.dofs_per_node)];
  return owner;
}

std::vector<double> seeded_rhs(index_t n, Rng& rng) {
  std::vector<double> b(static_cast<size_t>(n));
  for (auto& v : b) v = 1.0 + 0.5 * (rng.uniform() - 0.5);
  return b;
}

la::CsrMatrix<double> rescaled(const la::CsrMatrix<double>& A, Rng& rng) {
  std::vector<double> d(static_cast<size_t>(A.num_rows()));
  for (auto& v : d) v = 1.0 + 0.5 * (rng.uniform() - 0.5);
  auto B = A;
  auto& vals = B.values();
  for (index_t i = 0; i < A.num_rows(); ++i)
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k)
      vals[static_cast<size_t>(k)] =
          d[static_cast<size_t>(i)] * A.val(k) *
          d[static_cast<size_t>(A.col(k))];
  return B;
}

double relative_residual(const la::CsrMatrix<double>& A,
                         const std::vector<double>& b,
                         const std::vector<double>& x) {
  if (x.size() != b.size()) return INFINITY;
  double rr = 0.0, bb = 0.0;
  for (index_t i = 0; i < A.num_rows(); ++i) {
    double r = b[static_cast<size_t>(i)];
    for (index_t k = A.row_begin(i); k < A.row_end(i); ++k)
      r -= A.val(k) * x[static_cast<size_t>(A.col(k))];
    rr += r * r;
    bb += b[static_cast<size_t>(i)] * b[static_cast<size_t>(i)];
  }
  return bb > 0.0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

void Ledger::fail(const std::string& why) {
  std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
  if (!op_failed_) {
    op_failed_ = true;
    ++failed_;
  }
}

void check_solve(Ledger& ledger, const char* what, const Workload& w,
                 const SolveReport& rep, const la::CsrMatrix<double>& A,
                 const std::vector<double>& b, const std::vector<double>& x) {
  ledger.check(rep.converged, std::string(what) + ": did not converge");
  ledger.check(rep.coarse_dim == w.pinned_coarse_dim,
               std::string(what) + ": coarse dim " +
                   std::to_string(rep.coarse_dim) + " != pinned " +
                   std::to_string(w.pinned_coarse_dim));
  const double res = relative_residual(A, b, x);
  ledger.check(res <= kResidualLimit,
               std::string(what) + ": true residual " + std::to_string(res));
}

perf::ExperimentResult experiment_of(const SolveReport& rep, index_t n) {
  perf::ExperimentResult r;
  r.n = n;
  r.ranks = rep.ranks;
  r.converged = rep.converged;
  r.iterations = rep.iterations;
  r.coarse_dim = rep.coarse_dim;
  r.schwarz = rep.schwarz;
  r.krylov = rep.krylov;
  r.rank_krylov = rep.rank_krylov;
  r.rank_setup_comm = rep.rank_setup_comm;
  r.setup_transfers = rep.rank_setup_transfers;
  r.solve_transfers = rep.rank_transfers;
  r.solve_imbalance = rep.solve_imbalance;
  r.wall_setup_s = rep.wall_symbolic_s + rep.wall_numeric_s;
  r.wall_solve_s = rep.wall_solve_s;
  return r;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
