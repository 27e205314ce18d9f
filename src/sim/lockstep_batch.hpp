/// \file lockstep_batch.hpp
/// \brief Lockstep SoA batch kernel: one clock, shared linearisations.
///
/// A parameter sweep runs N nearly-identical ~11-state harvester models.
/// Within one run each solver serves most signature changes from its own
/// linearisation cache, but across jobs the remaining Jacobian assemblies
/// and Jyy LU factorisations — and the whole march of jobs that share a
/// prefix — are repeated N times. This kernel advances the whole batch in
/// lockstep on a single global clock instead:
///
///  * members are grouped at every step by their linearisation signature;
///    a member that finds the signature in its own cache uses that entry,
///    the first one to change to it opens a group, later members that miss
///    their own cache adopt the group's linearisation, and the terminal
///    elimination back-substitutes across the whole group through one
///    structure-of-arrays multi-RHS solve
///    (linalg::LuFactorization::solve_multi_inplace);
///  * members whose spec is identical up to a known divergence time (sweep
///    points sharing the pre-event prefix) follow a clone leader outright:
///    the leader marches exactly as the per-job path would and followers
///    copy its refresh and its stability cap, so a batch of pure duplicates
///    is bit-for-bit the per-job result. Followers take the leader's
///    linearisation only when they peel off at their divergence time (or
///    leave the batch), then re-merge into signature groups whenever
///    signatures coincide again.
///
/// Across time steps the members' own linearisation caches are the only
/// memory: adopted linearisations bypass them, so a member's cache holds
/// nothing but its own builds.
///
/// Every member runs through the public step pipeline of
/// core::LinearisedSolver — the same phase functions its advance_to()
/// composes (see linearised_solver.hpp) — so the grouping, adoption and
/// follower copies above are all this kernel adds.
///
/// Sharing is only engaged for a member once the global clock passes its
/// `share_after` horizon, which the caller sets so that batches whose
/// members are identical (or identical up to that horizon) reproduce the
/// per-job trajectories bit-for-bit; after the horizon results stay within
/// the documented io::compare tolerances of the serial reference (the
/// adopted Jacobians agree with a private rebuild only to the signature
/// quantum). docs/spec_format.md "Batch kernels" states the contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/linearised_solver.hpp"
#include "digital/kernel.hpp"

namespace ehsim::sim {

/// One sweep point in the lockstep march. The caller owns every pointee and
/// keeps it alive across run().
struct LockstepMember {
  static constexpr std::size_t kNoLeader = std::numeric_limits<std::size_t>::max();

  core::LinearisedSolver* solver = nullptr;  ///< initialised engine (required)
  digital::Kernel* kernel = nullptr;         ///< digital side; may be null
  double t_end = 0.0;                        ///< member horizon [s]
  /// Equivalence class of members with bitwise-identical device parameters;
  /// linearisations are only shared within a class.
  std::size_t param_class = 0;
  /// Clock time after which this member may adopt shared linearisations
  /// (bounded-error). 0: immediately; +inf: never (stays exact).
  double share_after = 0.0;
  /// Index of this member's clone leader (must be < this member's index), or
  /// kNoLeader. While the clock is below diverges_at the member copies the
  /// leader's refresh instead of evaluating — valid only when both specs are
  /// identical on that prefix.
  std::size_t clone_leader = kNoLeader;
  double diverges_at = 0.0;  ///< clone relation holds for t < diverges_at
};

/// Work-sharing counters surfaced through BatchStats / result JSON.
struct LockstepCounters {
  /// Shared linearisation groups materialised: refreshes (one per step per
  /// group) whose assembly + factorisation was consumed by at least one
  /// other member in the same step.
  std::uint64_t lockstep_groups = 0;
  /// Member-refreshes served by another member's Jacobian assembly +
  /// factorisation: clone-follower syncs plus signature-group adoptions.
  std::uint64_t shared_factorisations = 0;
};

/// Advances every member to its t_end on one global clock; see file header.
class LockstepBatch {
 public:
  /// Validates the batch: non-null initialised solvers, a common
  /// SolverConfig, clone leaders preceding their followers. Throws
  /// ModelError on violations.
  explicit LockstepBatch(std::vector<LockstepMember> members);

  /// Run the lockstep march to completion. Propagates SolverError from any
  /// member (the whole batch stops, like a failing job stops its sweep).
  void run();

  [[nodiscard]] const LockstepCounters& counters() const noexcept { return counters_; }

 private:
  /// March every live member to the barrier time \p target.
  void advance_to_barrier(const std::vector<std::size_t>& live, double target);
  /// Refresh phase across \p live members.
  void refresh_all(const std::vector<std::size_t>& live);
  /// Stability phase across \p live members.
  void stability_all(const std::vector<std::size_t>& live);
  /// End member \p i's clone relation if it followed its leader since the
  /// last call: hand it the leader's linearisation
  /// (core::LinearisedSolver::follow_linearisation).
  void stop_following(std::size_t i);

  std::vector<LockstepMember> members_;
  LockstepCounters counters_;
  std::vector<char> following_;  ///< member followed its leader since its last sync
  double clock_ = 0.0;
};

}  // namespace ehsim::sim
