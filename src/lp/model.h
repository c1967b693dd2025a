// High-level LP model builder on top of the standard-form simplex core.
//
// Supports nonnegative and free variables, <= / >= / == rows, and both
// optimization senses. Free variables are split (x = x+ - x-) and slack /
// surplus columns are added during lowering; the reported solution is in
// terms of the modeled variables.
//
// The lowering (standard-form A, b, c) is cached: structural edits
// (add_var, add_constraint, set_objective_coeff, set_sense) invalidate it,
// while set_rhs patches the cached b in place. Combined with
// IncrementalSolver this gives a cheap re-solve loop for models that only
// move their right-hand sides (the delta column of the delta* bisection):
//
//   lp::IncrementalSolver solver;
//   model.solve_with(solver);            // cold prime, retains the basis
//   model.set_rhs(row, new_value);
//   model.resolve_rhs_with(solver);      // warm dual-simplex re-solve
#pragma once

#include <vector>

#include "lp/simplex.h"

namespace rbvc::lp {

enum class Sense { kMinimize, kMaximize };
enum class Rel { kLe, kGe, kEq };

class Model {
 public:
  using VarId = std::size_t;
  using RowId = std::size_t;

  /// Adds a variable with the given objective coefficient.
  /// `free` variables range over all reals; otherwise x >= 0.
  VarId add_var(double objective_coeff = 0.0, bool free = false);

  /// Adds `count` variables sharing the same settings; returns the first id
  /// (ids are consecutive).
  VarId add_vars(std::size_t count, double objective_coeff = 0.0,
                 bool free = false);

  /// Adds the constraint  sum_i terms[i].coeff * x_{terms[i].var}  REL  rhs.
  /// Returns the row's id for later set_rhs edits.
  struct Term {
    VarId var;
    double coeff;
  };
  RowId add_constraint(const std::vector<Term>& terms, Rel rel, double rhs);

  /// Changes a constraint's right-hand side without invalidating the cached
  /// lowering (rows map 1:1 onto standard-form rows).
  void set_rhs(RowId row, double rhs);

  void set_objective_coeff(VarId v, double c);
  void set_sense(Sense s) {
    sense_ = s;
    lowered_.valid = false;
  }

  std::size_t num_vars() const { return free_.size(); }
  std::size_t num_constraints() const { return rels_.size(); }

  /// Lowers to standard form and solves. `objective` and `duals` in the
  /// result are in the model's sense (negated back for maximization);
  /// duals[row] is the objective's derivative with respect to rhs[row].
  Solution solve(const SimplexOptions& opts = {}) const;

  /// Cold solve through an IncrementalSolver (uses the solver's options and
  /// primes its retained basis for later warm re-solves).
  Solution solve_with(IncrementalSolver& solver) const;

  /// Warm re-solve after set_rhs edits only. The caller owns the contract
  /// that the solver last saw this model's lowering (via solve_with /
  /// solve_incremental / resolve_rhs_with); the solver falls back to a cold
  /// solve when its state is not warm-eligible.
  Solution resolve_rhs_with(IncrementalSolver& solver) const;

  /// Solve through IncrementalSolver::resolve: reuses the solver's retained
  /// basis when this model's lowering has the same shape (drop-f subset
  /// swaps), cold otherwise.
  Solution solve_incremental(IncrementalSolver& solver) const;

 private:
  struct Lowered {
    Matrix a;
    Vec b;
    Vec c;
    std::vector<std::size_t> col_of;      // positive-part column per var
    std::vector<std::size_t> neg_col_of;  // negative-part column (free vars)
    bool valid = false;
  };

  const Lowered& lower() const;
  Solution translate_back(const Solution& raw) const;

  Sense sense_ = Sense::kMinimize;
  std::vector<double> obj_;
  std::vector<bool> free_;
  std::vector<std::vector<Term>> rows_;
  std::vector<Rel> rels_;
  std::vector<double> rhs_;
  mutable Lowered lowered_;
};

}  // namespace rbvc::lp
