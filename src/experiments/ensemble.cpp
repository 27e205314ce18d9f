#include "experiments/ensemble.hpp"

#include <algorithm>
#include <array>
#include <string>

#include "common/error.hpp"
#include "experiments/metrics.hpp"

namespace ehsim::experiments {

namespace {

/// splitmix64 finaliser — spreads (replica seed, event index) pairs over the
/// full seed space so adjacent replica seeds don't yield correlated walks.
std::uint64_t mix_seed(std::uint64_t replica_seed, std::size_t event_index) {
  std::uint64_t z = replica_seed + 0x9e3779b97f4a7c15ull * (event_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

[[nodiscard]] EnsembleStat reduce(const WelfordAccumulator& acc) {
  EnsembleStat stat;
  stat.mean = acc.mean();
  stat.stderr_mean = acc.standard_error();
  stat.minimum = acc.minimum();
  stat.maximum = acc.maximum();
  return stat;
}

}  // namespace

void EnsembleSpec::validate() const {
  base.validate();
  const bool has_walk =
      std::any_of(base.excitation.events.begin(), base.excitation.events.end(),
                  [](const ExcitationEvent& event) {
                    return event.kind == ExcitationEvent::Kind::kRandomWalk;
                  });
  if (!has_walk) {
    throw ModelError("EnsembleSpec '" + base.name +
                     "': the base excitation has no random_walk event — seed variation "
                     "would produce identical replicas");
  }
  if (seeds.empty() == (num_seeds == 0)) {
    throw ModelError("EnsembleSpec '" + base.name +
                     "': give exactly one of 'seeds' and 'num_seeds'");
  }
  const std::vector<std::uint64_t> all = replica_seeds();
  if (all.size() < 2) {
    throw ModelError("EnsembleSpec '" + base.name +
                     "': an ensemble needs at least two replicas");
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      if (all[i] == all[j]) {
        throw ModelError("EnsembleSpec '" + base.name + "': duplicate replica seed " +
                         std::to_string(all[i]) + " (replica names derive from them)");
      }
    }
  }
}

std::vector<std::uint64_t> EnsembleSpec::replica_seeds() const {
  if (!seeds.empty()) {
    return seeds;
  }
  std::vector<std::uint64_t> generated(num_seeds);
  for (std::size_t i = 0; i < num_seeds; ++i) {
    generated[i] = static_cast<std::uint64_t>(i + 1);
  }
  return generated;
}

std::vector<ExperimentSpec> EnsembleSpec::expand() const {
  validate();
  const std::vector<std::uint64_t> all = replica_seeds();
  std::vector<ExperimentSpec> specs;
  specs.reserve(all.size());
  for (const std::uint64_t seed : all) {
    ExperimentSpec spec = base;
    spec.name = base.name + "/seed=" + std::to_string(seed);
    for (std::size_t i = 0; i < spec.excitation.events.size(); ++i) {
      ExcitationEvent& event = spec.excitation.events[i];
      if (event.kind == ExcitationEvent::Kind::kRandomWalk) {
        event.walk.seed = mix_seed(seed, i);
      }
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

EnsembleResult run_ensemble(const EnsembleSpec& ensemble, const BatchOptions& options,
                            BatchStats* stats) {
  std::vector<ExperimentSpec> specs = ensemble.expand();
  std::vector<ScenarioJob> jobs;
  jobs.reserve(specs.size());
  for (ExperimentSpec& spec : specs) {
    jobs.push_back(ScenarioJob{std::move(spec), std::nullopt});
  }
  BatchOptions batch = options;
  if (batch.threads == 0) {
    batch.threads = ensemble.threads;
  }

  EnsembleResult result;
  result.name = ensemble.base.name;
  result.engine = engine_kind_id(ensemble.base.engine);
  result.seeds = ensemble.replica_seeds();
  result.runs = run_scenario_batch(jobs, batch, stats);

  WelfordAccumulator final_vc;
  WelfordAccumulator final_resonance;
  WelfordAccumulator rms_before;
  WelfordAccumulator rms_after;
  std::vector<std::array<WelfordAccumulator, 5>> probe_acc(ensemble.base.probes.size());
  for (const ScenarioResult& run : result.runs) {
    result.cpu_seconds += run.cpu_seconds;
    final_vc.add(run.final_vc);
    final_resonance.add(run.final_resonance_hz);
    rms_before.add(run.rms_power_before);
    rms_after.add(run.rms_power_after);
    for (std::size_t p = 0; p < probe_acc.size() && p < run.probes.size(); ++p) {
      probe_acc[p][0].add(run.probes[p].final_value);
      probe_acc[p][1].add(run.probes[p].minimum);
      probe_acc[p][2].add(run.probes[p].maximum);
      probe_acc[p][3].add(run.probes[p].mean);
      probe_acc[p][4].add(run.probes[p].rms);
    }
  }
  result.final_vc = reduce(final_vc);
  result.final_resonance_hz = reduce(final_resonance);
  result.rms_power_before = reduce(rms_before);
  result.rms_power_after = reduce(rms_after);
  result.probes.reserve(probe_acc.size());
  for (std::size_t p = 0; p < probe_acc.size(); ++p) {
    EnsembleProbeStats probe;
    probe.label = ensemble.base.probes[p].label;
    probe.final_value = reduce(probe_acc[p][0]);
    probe.minimum = reduce(probe_acc[p][1]);
    probe.maximum = reduce(probe_acc[p][2]);
    probe.mean = reduce(probe_acc[p][3]);
    probe.rms = reduce(probe_acc[p][4]);
    result.probes.push_back(std::move(probe));
  }
  return result;
}

}  // namespace ehsim::experiments
