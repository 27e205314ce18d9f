#include "sim/lockstep_batch.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace ehsim::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Certified signatures carry the assembler's marker bit; the others are
/// unique per refresh (and per assembler!) so they must never be matched
/// across members.
[[nodiscard]] bool signature_shareable(std::uint64_t signature) {
  return core::LinearisationCache::cacheable(signature);
}

}  // namespace

LockstepBatch::LockstepBatch(std::vector<LockstepMember> members)
    : members_(std::move(members)) {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const LockstepMember& m = members_[i];
    if (m.solver == nullptr) {
      throw ModelError("LockstepBatch: member has no solver");
    }
    if (m.solver->config() != members_.front().solver->config()) {
      // One global step is agreed every iteration; members marching under
      // different step policies could not reproduce their per-job selves.
      throw ModelError("LockstepBatch: members must share one SolverConfig");
    }
    if (m.clone_leader != LockstepMember::kNoLeader) {
      if (m.clone_leader >= i) {
        throw ModelError("LockstepBatch: clone leader must precede its follower");
      }
      const LockstepMember& leader = members_[m.clone_leader];
      if (leader.clone_leader != LockstepMember::kNoLeader) {
        throw ModelError("LockstepBatch: clone sets must be flat (leader has a leader)");
      }
      if (leader.param_class != m.param_class) {
        throw ModelError("LockstepBatch: clone follower/leader parameter mismatch");
      }
    }
  }
}

void LockstepBatch::run() {
  if (members_.empty()) {
    return;
  }
  for (const LockstepMember& m : members_) {
    m.solver->require_advance(m.t_end);
  }
  clock_ = members_.front().solver->time();
  for (const LockstepMember& m : members_) {
    if (m.solver->time() != clock_) {
      throw ModelError("LockstepBatch: members must start at one common time");
    }
  }

  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    live.push_back(i);
  }
  following_.assign(members_.size(), 0);

  while (!live.empty()) {
    // Barrier: the earliest digital event or member horizon. Mirrors the
    // per-job MixedSignalSimulator target selection, except the minimum runs
    // over the whole batch; running a member's kernel at a foreign barrier
    // merely advances its now() without executing anything.
    double target = kInf;
    for (std::size_t i : live) {
      const LockstepMember& m = members_[i];
      double member_target = m.t_end;
      if (m.kernel != nullptr) {
        if (const auto next = m.kernel->next_event_time()) {
          member_target = std::min(member_target, *next);
        }
      }
      target = std::min(target, member_target);
    }
    if (target > clock_) {
      advance_to_barrier(live, target);
    }
    for (std::size_t i : live) {
      if (members_[i].kernel != nullptr) {
        members_[i].kernel->run_until(target);
      }
    }
    // A finished follower leaves with its leader's linearisation, so every
    // solver holds its complete state (a checkpoint may be cut next).
    for (std::size_t i : live) {
      if (target >= members_[i].t_end) {
        stop_following(i);
      }
    }
    std::erase_if(live, [&](std::size_t i) { return target >= members_[i].t_end; });
  }
}

void LockstepBatch::stop_following(std::size_t i) {
  if (following_[i] != 0) {
    members_[i].solver->follow_linearisation(*members_[members_[i].clone_leader].solver);
    following_[i] = 0;
  }
}

void LockstepBatch::advance_to_barrier(const std::vector<std::size_t>& live, double target) {
  while (true) {
    // A follower whose clone relation ends at this clock takes its leader's
    // linearisation and LLE monitor before either solver moves on (the
    // discontinuity check below may reset a monitor).
    for (std::size_t i : live) {
      if (clock_ >= members_[i].diverges_at) {
        stop_following(i);
      }
    }
    for (std::size_t i : live) {
      members_[i].solver->check_for_discontinuity();
    }
    refresh_all(live);
    for (std::size_t i : live) {
      members_[i].solver->notify_observers();
    }
    const double remaining = target - clock_;
    if (remaining <= 0.0) {
      break;
    }
    stability_all(live);

    // Every live member sits at clock_ under one SolverConfig, so they all
    // reach the same sliver verdict.
    bool snapped = false;
    for (std::size_t i : live) {
      snapped = members_[i].solver->snap_sliver(target);
    }
    if (snapped) {
      clock_ = target;
      continue;
    }
    double h = kInf;
    for (std::size_t i : live) {
      h = std::min(h, members_[i].solver->propose_step(remaining));
    }
    for (std::size_t i : live) {
      members_[i].solver->commit_step(h);
    }
    // Read the new clock from a *live* member: a finished member's solver
    // stops advancing once it leaves the live set, so members_.front() may
    // be frozen at its own horizon while the rest march on.
    clock_ = members_[live.front()].solver->time();
  }
}

void LockstepBatch::refresh_all(const std::vector<std::size_t>& live) {
  // One shared linearisation per (param class, signature) per step: the
  // first member whose linearisation changes to it (built, or found in its
  // own cache) opens the group; later members that miss their own cache
  // adopt it and join the group's elimination.
  struct StepBuild {
    std::size_t param_class;
    std::uint64_t signature;
    std::vector<std::size_t> group;  // builder first, then adopters
  };
  std::vector<StepBuild> builds;
  std::vector<char> eliminated(members_.size(), 0);
  std::vector<char> leader_consumed(members_.size(), 0);
  std::vector<std::size_t> followers;

  for (std::size_t i : live) {
    LockstepMember& m = members_[i];
    core::LinearisedSolver& s = *m.solver;
    if (s.fresh()) {
      eliminated[i] = 1;
      continue;
    }
    if (m.clone_leader != LockstepMember::kNoLeader && clock_ < m.diverges_at) {
      // Clone following: the leader holds exactly this member's refreshed
      // state. The copy must wait until the leader's (possibly deferred)
      // elimination has completed, so followers sync in a dedicated pass
      // after the elimination below.
      followers.push_back(i);
      following_[i] = 1;
      eliminated[i] = 1;
      continue;
    }

    const bool stable = s.evaluate();
    // Signature held, or the member's own cache had the new one. A kept
    // linearisation eliminates solo below, with its own LU.
    const bool kept = s.reuse_linearisation(stable);
    if (!kept || !stable) {
      const std::uint64_t signature = s.jacobian_signature();
      const bool shareable = signature_shareable(signature);
      StepBuild* group = nullptr;
      if (shareable) {
        for (StepBuild& build : builds) {
          if (build.param_class == m.param_class && build.signature == signature) {
            group = &build;
            break;
          }
        }
      }
      if (!kept && !stable && group != nullptr && clock_ >= m.share_after) {
        s.adopt_linearisation(members_[group->group.front()].solver->linearisation());
        ++counters_.shared_factorisations;
        group->group.push_back(i);
      } else {
        if (!kept) {
          s.relinearise();
        }
        if (shareable && group == nullptr) {
          builds.push_back(StepBuild{m.param_class, signature, {i}});
        }
      }
    }
    s.observe_drift(stable);
  }

  // Elimination. Groups back-substitute through one SoA multi-RHS solve —
  // per-member rounding identical to a solo solve — everyone else solves
  // against their own cached factorisation.
  std::vector<double> block;
  std::vector<double> dy;
  for (const StepBuild& build : builds) {
    if (build.group.size() < 2) {
      continue;
    }
    ++counters_.lockstep_groups;
    const std::size_t k = build.group.size();
    const core::LinearisedSolver& builder = *members_[build.group.front()].solver;
    const std::size_t alg = builder.algebraic_residual().size();
    if (alg > 0) {
      block.resize(alg * k);
      for (std::size_t j = 0; j < k; ++j) {
        const auto fy = members_[build.group[j]].solver->algebraic_residual();
        for (std::size_t r = 0; r < alg; ++r) {
          block[r * k + j] = -fy[r];
        }
      }
      builder.linearisation().jyy_lu.solve_multi_inplace(std::span<double>(block), k);
    }
    dy.resize(alg);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t r = 0; r < alg; ++r) {
        dy[r] = block[r * k + j];
      }
      members_[build.group[j]].solver->eliminate(std::span<const double>(dy));
      eliminated[build.group[j]] = 1;
    }
  }
  for (std::size_t i : live) {
    if (!eliminated[i]) {
      members_[i].solver->eliminate();
    }
  }

  // Clone followers copy their (now fully refreshed) leader.
  for (std::size_t i : followers) {
    const LockstepMember& m = members_[i];
    m.solver->follow(*members_[m.clone_leader].solver);
    leader_consumed[m.clone_leader] = 1;
    ++counters_.shared_factorisations;
  }

  for (std::size_t i : live) {
    if (leader_consumed[i]) {
      ++counters_.lockstep_groups;
    }
  }
}

void LockstepBatch::stability_all(const std::vector<std::size_t>& live) {
  // Step-local registry of the caps installed this step, keyed like the
  // linearisation groups; cap updates after a batch-wide discontinuity all
  // land on the same step, which is exactly when sharing pays. A member's
  // own cached cap comes first: it is exact.
  struct StepCap {
    std::size_t param_class;
    std::uint64_t signature;
    std::size_t owner;
  };
  std::vector<StepCap> caps;

  for (std::size_t i : live) {
    LockstepMember& m = members_[i];
    core::LinearisedSolver& s = *m.solver;
    if (m.clone_leader != LockstepMember::kNoLeader && clock_ < m.diverges_at) {
      // Leaders precede their followers, so the leader's cap is final here.
      s.follow_stability(*members_[m.clone_leader].solver);
      continue;
    }
    if (!s.stability_due()) {
      continue;
    }
    const std::uint64_t signature = s.jacobian_signature();
    const bool shareable = signature_shareable(signature);
    if (!s.reuse_stability_cap()) {
      if (clock_ >= m.share_after && shareable) {
        const auto cap = std::find_if(caps.begin(), caps.end(), [&](const StepCap& c) {
          return c.param_class == m.param_class && c.signature == signature;
        });
        if (cap != caps.end()) {
          s.adopt_stability_cap(*members_[cap->owner].solver);
          continue;
        }
      }
      s.recompute_stability_cap();
    }
    if (shareable) {
      caps.push_back(StepCap{m.param_class, signature, i});
    }
  }
}

}  // namespace ehsim::sim
