/// \file test_linearisation_cache.cpp
/// \brief The solver's signature-keyed linearisation cache: its bound and
/// LRU eviction, bit-exact hits, Eq. 7 caps tied to their own entry, the
/// bypasses, and determinism across thread counts and checkpoint cuts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/linearisation_cache.hpp"
#include "core/linearised_solver.hpp"
#include "experiments/scenarios.hpp"
#include "io/json.hpp"
#include "sim/harvester_session.hpp"

namespace {

using ehsim::core::Linearisation;
using ehsim::core::LinearisationCache;
using ehsim::core::LinearisedSolver;
using ehsim::experiments::charging_scenario;
using ehsim::experiments::experiment_params;
using ehsim::sim::HarvesterSession;

constexpr std::uint64_t kMarker = std::uint64_t{1} << 63;

// ---- the cache on its own ---------------------------------------------------

TEST(LinearisationCache, CapacityIsBoundedAndEvictsTheLeastRecentlyUsedEntry) {
  LinearisationCache cache;
  const std::uint64_t n = LinearisationCache::kCapacity;
  for (std::uint64_t k = 0; k < n; ++k) {
    (void)cache.insert(kMarker | k);
  }
  ASSERT_EQ(cache.size(), n);
  Linearisation* first = cache.find(kMarker | 0);  // 0 becomes most recent; 1 is now oldest
  ASSERT_NE(first, nullptr);

  (void)cache.insert(kMarker | n);
  EXPECT_EQ(cache.size(), n);
  EXPECT_EQ(cache.find(kMarker | 1), nullptr);
  EXPECT_EQ(cache.find(kMarker | 0), first);  // entries never move
  (void)cache.insert(kMarker | (n + 1));
  EXPECT_EQ(cache.find(kMarker | 2), nullptr);
  EXPECT_NE(cache.find(kMarker | 3), nullptr);
  EXPECT_EQ(cache.size(), n);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(kMarker | 0), nullptr);
}

TEST(LinearisationCache, EvictionIsAPureFunctionOfTheLookupSequence) {
  // Two caches fed one pseudo-random lookup stream over twice the capacity
  // of signatures agree on every hit and miss.
  LinearisationCache a;
  LinearisationCache b;
  std::uint64_t state = 12345;
  std::size_t hits = 0;
  for (int i = 0; i < 20000; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t signature = kMarker | ((state >> 33) % (2 * LinearisationCache::kCapacity));
    const bool hit_a = a.find(signature) != nullptr;
    const bool hit_b = b.find(signature) != nullptr;
    ASSERT_EQ(hit_a, hit_b) << "lookup " << i;
    if (hit_a) {
      ++hits;
    } else {
      (void)a.insert(signature);
      (void)b.insert(signature);
    }
    ASSERT_LE(a.size(), LinearisationCache::kCapacity);
  }
  EXPECT_GT(hits, 0u);
}

TEST(LinearisationCache, AnEvictedSlotForgetsItsCap) {
  LinearisationCache cache;
  cache.insert(kMarker | 7).stability_cap = 1e-5;
  ASSERT_TRUE(cache.find(kMarker | 7)->stability_cap.has_value());
  for (std::uint64_t k = 1; k < LinearisationCache::kCapacity; ++k) {
    (void)cache.insert(kMarker | (100 + k));
  }
  // Full, with signature 7 the oldest: the next miss takes over its slot.
  const Linearisation& reused = cache.insert(kMarker | 99);
  EXPECT_EQ(cache.find(kMarker | 7), nullptr);
  EXPECT_FALSE(reused.stability_cap.has_value());
}

TEST(LinearisationCache, ACopyKeepsItsEntriesInPlaceWhileItFills) {
  // A prefix fork copies a leader's partly filled cache into a follower,
  // whose current linearisation then points into the copy. Filling the copy
  // past its copied size must not move that entry (the ASan build reads it
  // after every insert).
  LinearisationCache leader;
  for (std::uint64_t k = 0; k < 10; ++k) {
    Linearisation& entry = leader.insert(kMarker | k);
    entry.jxx = ehsim::linalg::Matrix(3, 3);
    entry.jxx(2, 2) = static_cast<double>(k);
    entry.stability_cap = 1e-6 * static_cast<double>(k + 1);
  }
  LinearisationCache copy = leader;
  LinearisationCache assigned;
  (void)assigned.insert(kMarker | 500);
  assigned = leader;
  for (LinearisationCache* cache : {&copy, &assigned}) {
    ASSERT_EQ(cache->size(), leader.size());
    Linearisation* current = cache->find(kMarker | 9);
    ASSERT_NE(current, nullptr);
    EXPECT_EQ(current->stability_cap, 1e-6 * 10.0);
    for (std::uint64_t k = 10; k < LinearisationCache::kCapacity; ++k) {
      (void)cache->insert(kMarker | k);
      ASSERT_EQ(current->jxx(2, 2), 9.0) << "after insert " << k;
    }
    EXPECT_EQ(cache->find(kMarker | 9), current);
    EXPECT_EQ(cache->size(), LinearisationCache::kCapacity);
  }
  // The copy replicates the recency order: both evict signature 0 next.
  LinearisationCache twin = leader;
  (void)leader.find(kMarker | 9);
  (void)twin.find(kMarker | 9);
  for (std::uint64_t k = 10; k <= LinearisationCache::kCapacity; ++k) {
    (void)leader.insert(kMarker | k);
    (void)twin.insert(kMarker | k);
  }
  EXPECT_EQ(leader.find(kMarker | 0), nullptr);
  EXPECT_EQ(twin.find(kMarker | 0), nullptr);
  EXPECT_NE(twin.find(kMarker | 1), nullptr);
}

TEST(LinearisationCache, OnlyCertifiedSignaturesAreCacheable) {
  EXPECT_TRUE(LinearisationCache::cacheable(kMarker | 42));
  EXPECT_FALSE(LinearisationCache::cacheable(42));  // the assembler's one-off counter range
}

// ---- the cache inside the solver ------------------------------------------

/// The Table I charging model (no MCU), initialised at t = 0.
struct ChargingModel {
  explicit ChargingModel(bool reuse = true)
      : session(experiment_params(charging_scenario(1.0)), options(reuse)) {
    session.initialise(0.0);
  }

  static HarvesterSession::Options options(bool reuse) {
    HarvesterSession::Options options;
    options.solver.enable_jacobian_reuse = reuse;
    return options;
  }

  LinearisedSolver& solver() { return dynamic_cast<LinearisedSolver&>(session.engine()); }

  HarvesterSession session;
};

/// LinearisedSolver::advance_to spelled out through the public step
/// pipeline, with a hook after each refresh's linearisation phase and after
/// each Eq. 7 cap update.
template <typename OnLinearisation, typename OnCap>
void march(LinearisedSolver& s, double t_end, OnLinearisation on_linearisation, OnCap on_cap) {
  s.require_advance(t_end);
  while (true) {
    s.check_for_discontinuity();
    if (!s.fresh()) {
      const bool stable = s.evaluate();
      const bool kept = s.reuse_linearisation(stable);
      if (!kept) {
        s.relinearise();
      }
      on_linearisation(stable, kept);
      s.observe_drift(stable);
      s.eliminate();
    }
    s.notify_observers();
    const double remaining = t_end - s.time();
    if (remaining <= 0.0) {
      break;
    }
    if (s.stability_due()) {
      const bool reused = s.reuse_stability_cap();
      if (!reused) {
        s.recompute_stability_cap();
      }
      on_cap(reused);
    }
    if (s.snap_sliver(t_end)) {
      continue;
    }
    s.commit_step(s.propose_step(remaining));
  }
}

TEST(LinearisationCache, TheSpelledOutMarchIsAdvanceTo) {
  ChargingModel by_hand;
  ChargingModel engine;
  march(by_hand.solver(), 0.3, [](bool, bool) {}, [](bool) {});
  engine.solver().advance_to(0.3);
  EXPECT_EQ(by_hand.solver().stats().steps, engine.solver().stats().steps);
  EXPECT_EQ(by_hand.solver().stats().jacobian_builds, engine.solver().stats().jacobian_builds);
  const auto x = by_hand.solver().state();
  const auto y = engine.solver().state();
  EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()));
}

TEST(LinearisationCache, StaysWithinItsCapacityOnTheTableIRun) {
  ChargingModel model;
  model.solver().advance_to(1.0);
  const auto& stats = model.solver().stats();
  EXPECT_EQ(model.solver().linearisation_cache().size(), LinearisationCache::kCapacity);
  // The drive cycle revisits its diode bands: most former rebuilds hit.
  EXPECT_LT(stats.jacobian_builds * 10, stats.steps);
  EXPECT_EQ(stats.jacobian_builds + stats.jacobian_reuses, stats.algebraic_solves);
}

TEST(LinearisationCache, AHitReproducesTheFirstVisitBitForBit) {
  ChargingModel model;
  LinearisedSolver& s = model.solver();
  std::map<std::uint64_t, Linearisation> built;  // signature -> copy taken at its build
  std::size_t hits = 0;
  march(
      s, 1.0,
      [&](bool stable, bool kept) {
        const std::uint64_t signature = s.jacobian_signature();
        if (!LinearisationCache::cacheable(signature)) {
          return;
        }
        if (!kept) {
          built[signature] = s.linearisation();
          return;
        }
        if (stable) {
          return;
        }
        ++hits;
        const Linearisation& first = built.at(signature);
        const Linearisation& now = s.linearisation();
        ASSERT_EQ(now.jxx, first.jxx);
        ASSERT_EQ(now.jxy, first.jxy);
        ASSERT_EQ(now.jyx, first.jyx);
        ASSERT_EQ(now.jyy, first.jyy);
        std::vector<double> from_first(first.jyy.rows());
        for (std::size_t i = 0; i < from_first.size(); ++i) {
          from_first[i] = 1.0 + static_cast<double>(i);
        }
        std::vector<double> from_now = from_first;
        first.jyy_lu.solve_inplace(from_first);
        now.jyy_lu.solve_inplace(from_now);
        ASSERT_EQ(from_now, from_first);
      },
      [](bool) {});
  EXPECT_GT(hits, 5000u);
}

TEST(LinearisationCache, ACapIsReusedOnlyWithItsOwnEntry) {
  ChargingModel model;
  LinearisedSolver& s = model.solver();
  // Cap evaluated for the entry currently cached under each signature.
  std::map<std::uint64_t, double> caps;
  std::size_t evictions_of_capped_entries = 0;
  std::size_t reuses = 0;
  std::size_t evaluations = 0;
  march(
      s, 4.0,
      [&](bool, bool kept) {
        if (!kept && caps.erase(s.jacobian_signature()) > 0) {
          ++evictions_of_capped_entries;  // rebuilt: its old entry was evicted
        }
      },
      [&](bool reused) {
        const std::uint64_t signature = s.jacobian_signature();
        const auto cap = caps.find(signature);
        if (reused) {
          ++reuses;
          ASSERT_NE(cap, caps.end()) << "a cap was reused without its own evaluation";
          ASSERT_EQ(s.stability_step_cap(), cap->second);
          return;
        }
        ++evaluations;
        ASSERT_EQ(cap, caps.end()) << "a cached cap was evaluated again";
        caps[signature] = s.stability_step_cap();
      });
  EXPECT_EQ(s.stats().stability_recomputes, evaluations);
  EXPECT_EQ(s.stats().stability_reuses, reuses);
  EXPECT_GT(reuses, evaluations);
  EXPECT_GT(evictions_of_capped_entries, 0u);
}

TEST(LinearisationCache, AMovingActuatorBypassesTheCache) {
  ChargingModel model;
  LinearisedSolver& s = model.solver();
  s.advance_to(0.2);
  const std::size_t cached = s.linearisation_cache().size();
  ASSERT_GT(cached, 0u);

  auto& actuator = model.session.system().actuator();
  actuator.command(actuator.position(s.time()) * 0.9, s.time());
  ASSERT_TRUE(actuator.moving(s.time()));
  const double arrival = std::min(actuator.arrival_time(), s.time() + 0.05);
  std::size_t refreshes = 0;
  march(
      s, arrival,
      [&](bool stable, bool kept) {
        if (s.time() >= actuator.arrival_time()) {
          return;
        }
        ++refreshes;
        EXPECT_FALSE(LinearisationCache::cacheable(s.jacobian_signature()));
        EXPECT_FALSE(stable);
        EXPECT_FALSE(kept);
        EXPECT_EQ(s.linearisation_cache().size(), cached);
      },
      [](bool) {});
  EXPECT_GT(refreshes, 100u);
}

TEST(LinearisationCache, ReuseOffNeverTouchesTheCache) {
  ChargingModel model(/*reuse=*/false);
  model.solver().advance_to(0.3);
  const auto& stats = model.solver().stats();
  EXPECT_EQ(model.solver().linearisation_cache().size(), 0u);
  EXPECT_EQ(stats.jacobian_reuses, 0u);
  EXPECT_EQ(stats.stability_reuses, 0u);
  EXPECT_EQ(stats.jacobian_builds, stats.algebraic_solves);
}

TEST(LinearisationCache, ACheckpointCutEmptiesItAndTheRunContinuesLikeARestore) {
  ChargingModel straight;
  straight.session.run_until(0.4);
  ASSERT_GT(straight.solver().linearisation_cache().size(), 0u);
  const ehsim::sim::Checkpoint checkpoint = straight.session.session().save_checkpoint();
  EXPECT_EQ(straight.solver().linearisation_cache().size(), 0u);

  ChargingModel restored;
  restored.session.restore_checkpoint(checkpoint);
  straight.session.run_until(1.0);
  restored.session.run_until(1.0);
  const auto& a = straight.solver().stats();
  const auto& b = restored.solver().stats();
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.jacobian_builds, b.jacobian_builds);
  EXPECT_EQ(a.jacobian_reuses, b.jacobian_reuses);
  EXPECT_EQ(a.stability_recomputes, b.stability_recomputes);
  EXPECT_EQ(a.stability_reuses, b.stability_reuses);
  const auto x = straight.solver().state();
  const auto y = restored.solver().state();
  EXPECT_TRUE(std::equal(x.begin(), x.end(), y.begin(), y.end()));
}

TEST(LinearisationCache, CheckpointsWithoutStabilityReusesAreRefusedByName) {
  ChargingModel model;
  model.solver().advance_to(0.05);
  ehsim::io::JsonValue state = model.solver().checkpoint_state();
  for (auto& [key, value] : state.as_object()) {
    if (key == "stats") {
      std::erase_if(value.as_object(), [](const auto& member) {
        return member.first == "stability_reuses";
      });
    }
  }
  ChargingModel fresh;
  try {
    fresh.solver().restore_checkpoint_state(state);
    ADD_FAILURE() << "a checkpoint without stability_reuses was restored";
  } catch (const ehsim::ModelError& error) {
    EXPECT_NE(std::string(error.what()).find("stability_reuses"), std::string::npos)
        << error.what();
  }
}

TEST(LinearisationCache, AJobsSweepIsBitIdenticalAcrossThreadCounts) {
  using ehsim::experiments::BatchOptions;
  using ehsim::experiments::ScenarioJob;
  std::vector<ScenarioJob> jobs;
  for (const double hz : {68.0, 69.5, 70.0, 71.5}) {
    auto spec = charging_scenario(1.0);
    spec.name = "thread-count-" + std::to_string(hz);
    spec.excitation.initial_frequency_hz = hz;
    spec.trace_interval = 0.01;
    jobs.push_back(ScenarioJob{spec, std::nullopt});
  }
  const auto serial = ehsim::experiments::run_scenario_batch(jobs, BatchOptions{.threads = 1});
  const auto parallel = ehsim::experiments::run_scenario_batch(jobs, BatchOptions{.threads = 4});
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].stats.steps, parallel[i].stats.steps);
    EXPECT_EQ(serial[i].stats.jacobian_builds, parallel[i].stats.jacobian_builds);
    EXPECT_EQ(serial[i].stats.stability_reuses, parallel[i].stats.stability_reuses);
    EXPECT_GT(serial[i].stats.jacobian_reuses, serial[i].stats.jacobian_builds);
    EXPECT_EQ(serial[i].vc, parallel[i].vc);
    EXPECT_EQ(serial[i].final_vc, parallel[i].final_vc);
  }
}

}  // namespace
