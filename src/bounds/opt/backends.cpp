// The three shipped optimizer backends and the process-wide registry.
//
// All three optimize the same projected objective from evaluator.hpp, so
// they can only disagree through search dynamics — which is exactly what
// the differential suite (tests/test_optimizer_diff.cpp) measures:
//
//  * nelder_mead  — the historical default pipeline, bit-identical: per
//    seed, log-space Nelder-Mead then KKT equalization polish, best wins.
//  * multistart   — the same single-start pipeline re-seeded from
//    deterministically jittered copies of every base seed (a fixed
//    splitmix64 stream), to escape bad basins.
//  * subplex      — compass/coordinate descent with step halving as an
//    independent global phase, sharing only the local KKT refiner.
//
// Backends never throw on a well-formed problem: a StopCriteria trip inside
// the guard is caught and surfaced as kStopReached with the AnalysisError
// stashed in the result.  A tile index past `vars` is rejected up front with
// std::out_of_range (check_tile_indices), before any search runs.

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "bounds/opt/backend.hpp"
#include "bounds/opt/evaluator.hpp"
#include "support/cancel.hpp"

namespace soap::bounds::opt {

namespace {

constexpr int kDefaultIterations = 3000;

// Local copy of splitmix64 (same constants as support/digest): a tiny,
// reproducible-everywhere generator so multistart jitter never depends on
// libstdc++'s distribution implementations.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d4a4ca9d5ef4bdULL;
  return z ^ (z >> 31);
}

// Uniform double in [-1, 1) from the top 53 bits.
double unit_jitter(std::uint64_t& state) {
  const double u =
      static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;  // [0, 1)
  return 2.0 * u - 1.0;
}

std::vector<std::vector<double>> base_seeds(const SolveRequest& request,
                                            std::size_t n) {
  std::vector<std::vector<double>> seeds = request.seeds;
  for (auto& s : default_seeds(n, request.X)) seeds.push_back(std::move(s));
  return seeds;
}

// Shared multi-start driver: run the single-start pipeline from every seed,
// keep the best.  `converged` reports the winning start's convergence (the
// all-zeros fallback point, used when every start is infeasible, counts as
// not converged).
SolveResult best_of_starts(const OptimizationProblem& problem,
                           const SolveRequest& request,
                           const std::vector<std::vector<double>>& seeds,
                           int iters) {
  const std::size_t n = problem.vars.size();
  double best_obj = -1e300;
  std::vector<double> best_u(n, 0.0);
  bool best_converged = false;
  for (const auto& seed : seeds) {
    SingleStart s =
        run_single_start(problem, request.X, seed, iters, request.guard);
    if (s.objective > best_obj) {
      best_obj = s.objective;
      best_u = std::move(s.u);
      best_converged = s.converged;
    }
  }
  return finish_solve(problem, request.X, best_u, best_converged,
                      request.guard);
}

SolveResult stop_result(const support::AnalysisError& err,
                        const SolveRequest& request) {
  SolveResult out;
  out.code = ResultCode::kStopReached;
  out.stop_error = err;
  out.evaluations = request.guard != nullptr ? request.guard->ticks : 0;
  return out;
}

class NelderMeadBackend final : public OptimizerBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "nelder_mead";
  }

  [[nodiscard]] SolveResult solve(const OptimizationProblem& problem,
                                  const SolveRequest& request) const override {
    const std::size_t n = problem.vars.size();
    const int iters =
        request.max_iterations > 0 ? request.max_iterations : kDefaultIterations;
    check_tile_indices(problem);
    try {
      return best_of_starts(problem, request, base_seeds(request, n), iters);
    } catch (const support::AnalysisError& err) {
      return stop_result(err, request);
    }
  }
};

class MultistartBackend final : public OptimizerBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "multistart";
  }

  [[nodiscard]] SolveResult solve(const OptimizationProblem& problem,
                                  const SolveRequest& request) const override {
    const std::size_t n = problem.vars.size();
    const int iters =
        request.max_iterations > 0 ? request.max_iterations : kDefaultIterations;
    check_tile_indices(problem);
    try {
      std::vector<std::vector<double>> seeds = base_seeds(request, n);
      // Jittered restarts: kRestarts perturbed copies of every base seed,
      // amplitude in log-space (one e-fold covers a decent basin shift).
      // The stream is a constant, never dependent on thread or schedule,
      // so the solve stays a pure function of its inputs.
      constexpr int kRestarts = 3;
      constexpr double kAmplitude = 0.8;
      std::uint64_t state = 0x51d0f6e29aa1a2cdULL;
      const std::size_t base_count = seeds.size();
      seeds.reserve(base_count * (1 + kRestarts));
      for (std::size_t b = 0; b < base_count; ++b) {
        for (int r = 0; r < kRestarts; ++r) {
          std::vector<double> jittered = seeds[b];
          for (double& v : jittered) v += kAmplitude * unit_jitter(state);
          seeds.push_back(std::move(jittered));
        }
      }
      return best_of_starts(problem, request, seeds, iters);
    } catch (const support::AnalysisError& err) {
      return stop_result(err, request);
    }
  }
};

// Compass (coordinate-descent) search on the projected objective: cycle
// through coordinates, try +/- the current step, accept improvements, halve
// the step when a full sweep makes no progress.  Converged when the step
// drops below tolerance.
std::vector<double> compass_search(const OptimizationProblem& problem,
                                   double X, std::vector<double> start,
                                   int iters,
                                   EvalGuard* guard, bool* converged) {
  *converged = false;
  std::vector<double> u = std::move(start);
  const std::size_t n = u.size();
  double f = projected_objective(problem, u, X, guard);
  double step = 2.0;
  for (int it = 0; it < iters; ++it) {
    bool improved = false;
    for (std::size_t i = 0; i < n; ++i) {
      for (double dir : {1.0, -1.0}) {
        std::vector<double> trial = u;
        trial[i] += dir * step;
        double ft = projected_objective(problem, trial, X, guard);
        if (ft > f) {
          f = ft;
          u = std::move(trial);
          improved = true;
          break;  // re-probe this coordinate's new neighborhood next sweep
        }
      }
    }
    if (!improved) {
      step *= 0.5;
      if (step < 1e-10) {
        *converged = true;
        break;
      }
    }
  }
  return u;
}

class SubplexBackend final : public OptimizerBackend {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "subplex";
  }

  [[nodiscard]] SolveResult solve(const OptimizationProblem& problem,
                                  const SolveRequest& request) const override {
    const std::size_t n = problem.vars.size();
    const int iters =
        request.max_iterations > 0 ? request.max_iterations : kDefaultIterations;
    check_tile_indices(problem);
    try {
      double best_obj = -1e300;
      std::vector<double> best_u(n, 0.0);
      bool best_converged = false;
      for (const auto& seed : base_seeds(request, n)) {
        bool conv = false;
        std::vector<double> u = compass_search(problem, request.X, seed, iters,
                                               request.guard, &conv);
        kkt_polish(problem, request.X, &u, request.guard);
        double obj = projected_objective(problem, u, request.X, request.guard);
        if (obj > best_obj) {
          best_obj = obj;
          best_u = std::move(u);
          best_converged = conv;
        }
      }
      return finish_solve(problem, request.X, best_u, best_converged,
                          request.guard);
    } catch (const support::AnalysisError& err) {
      return stop_result(err, request);
    }
  }
};

}  // namespace

const OptimizerBackend& backend(BackendKind kind) {
  static const NelderMeadBackend nelder_mead;
  static const MultistartBackend multistart;
  static const SubplexBackend subplex;
  switch (kind) {
    case BackendKind::kMultistart:
      return multistart;
    case BackendKind::kSubplex:
      return subplex;
    case BackendKind::kNelderMead:
      break;
  }
  return nelder_mead;
}

}  // namespace soap::bounds::opt
