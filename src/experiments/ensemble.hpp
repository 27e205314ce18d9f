/// \file ensemble.hpp
/// \brief Monte Carlo ensembles: seed-varied replicas of one experiment.
///
/// The drifting-ambient scenarios are driven by seeded random-walk
/// excitation (excitation.hpp) — a single run is one realisation of the
/// drift process. An EnsembleSpec re-runs the same experiment under K
/// different walk seeds and reduces the per-replica scalars to ensemble
/// statistics (mean, standard error of the mean, min, max) per probe and
/// for the built-in summary figures. Replicas ride the ordinary
/// run_scenario_batch fan-out — its prefix forks (replicas share everything
/// before the walk starts) and the shared diode-table cache both apply —
/// and the reduction accumulates in job order, so the statistics are
/// bit-identical for any worker count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/scenarios.hpp"

namespace ehsim::experiments {

/// K seed-varied replicas of one base experiment. The base schedule must
/// contain at least one random-walk event — with nothing seeded there is
/// nothing to vary, and the "ensemble" would be K copies of one trajectory.
struct EnsembleSpec {
  ExperimentSpec base;
  /// Explicit replica seeds (each must be unique — replica names derive
  /// from them). Leave empty to generate 1..num_seeds instead.
  std::vector<std::uint64_t> seeds{};
  /// Replica count when `seeds` is empty: seeds 1, 2, ..., num_seeds.
  std::size_t num_seeds = 0;
  /// Worker threads for the replica batch (0: hardware concurrency).
  std::size_t threads = 0;

  /// Throws ModelError: base invalid, no random-walk event, fewer than two
  /// replicas, both/neither of seeds and num_seeds, or duplicate seeds.
  void validate() const;

  /// The effective seed list (explicit seeds, or 1..num_seeds).
  [[nodiscard]] std::vector<std::uint64_t> replica_seeds() const;

  /// One spec per replica, named "<base>/seed=<s>"; every random-walk event
  /// is reseeded as a deterministic mix of the replica seed and the event's
  /// position, so multiple walk events within one replica draw independent
  /// streams and the same event differs across replicas.
  [[nodiscard]] std::vector<ExperimentSpec> expand() const;

  [[nodiscard]] bool operator==(const EnsembleSpec&) const = default;
};

/// Ensemble statistics of one scalar across the replicas.
struct EnsembleStat {
  double mean = 0.0;
  double stderr_mean = 0.0;  ///< standard error of the mean
  double minimum = 0.0;
  double maximum = 0.0;
};

/// Per-probe ensemble statistics: each of the probe's scalar reductions,
/// reduced again across replicas.
struct EnsembleProbeStats {
  std::string label;
  EnsembleStat final_value;
  EnsembleStat minimum;
  EnsembleStat maximum;
  EnsembleStat mean;
  EnsembleStat rms;
};

struct EnsembleResult {
  std::string name;    ///< base experiment name
  std::string engine;  ///< engine id shared by every replica
  std::vector<std::uint64_t> seeds;
  /// Summed across replicas; a prefix they share counts once (see
  /// run_scenario_batch).
  double cpu_seconds = 0.0;

  EnsembleStat final_vc;
  EnsembleStat final_resonance_hz;
  EnsembleStat rms_power_before;
  EnsembleStat rms_power_after;
  std::vector<EnsembleProbeStats> probes;  ///< base-spec probe order

  /// Full per-replica results in seed order (each also lands on disk as an
  /// ordinary result/trace file pair next to the ensemble document).
  std::vector<ScenarioResult> runs;
};

/// Run the ensemble through run_scenario_batch and reduce (threads = 0 in
/// \p options falls back to spec.threads).
[[nodiscard]] EnsembleResult run_ensemble(const EnsembleSpec& ensemble,
                                          const BatchOptions& options = {},
                                          BatchStats* stats = nullptr);

}  // namespace ehsim::experiments
