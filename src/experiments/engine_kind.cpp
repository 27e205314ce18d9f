#include "experiments/engine_kind.hpp"

#include <string>

#include "baseline/nr_engine.hpp"
#include "common/error.hpp"
#include "core/linearised_solver.hpp"
#include "ref/reference_engine.hpp"

namespace ehsim::experiments {

const char* engine_kind_id(EngineKind kind) {
  switch (kind) {
    case EngineKind::kProposed:
      return "proposed";
    case EngineKind::kSystemVision:
      return "systemvision";
    case EngineKind::kPspice:
      return "pspice";
    case EngineKind::kSystemCA:
      return "systemca";
    case EngineKind::kReference:
      return "reference";
  }
  return "?";
}

EngineKind parse_engine_kind(std::string_view id) {
  for (const EngineKind kind : {EngineKind::kProposed, EngineKind::kSystemVision,
                                EngineKind::kPspice, EngineKind::kSystemCA,
                                EngineKind::kReference}) {
    if (id == engine_kind_id(kind)) {
      return kind;
    }
  }
  throw ModelError("unknown engine kind '" + std::string(id) +
                   "' (expected proposed | systemvision | pspice | systemca | reference)");
}

harvester::DeviceEvalMode device_mode_for(EngineKind kind) {
  // The oracle must be independent of the PWL tables it judges, so it joins
  // the baselines on the exact Shockley exponentials.
  return kind == EngineKind::kProposed ? harvester::DeviceEvalMode::kPwlTable
                                       : harvester::DeviceEvalMode::kExactShockley;
}

std::unique_ptr<core::AnalogEngine> make_engine(EngineKind kind,
                                                core::SystemAssembler& system) {
  return make_engine(kind, system, core::SolverConfig{});
}

std::unique_ptr<core::AnalogEngine> make_engine(EngineKind kind,
                                                core::SystemAssembler& system,
                                                const core::SolverConfig& solver) {
  switch (kind) {
    case EngineKind::kProposed:
      return std::make_unique<core::LinearisedSolver>(system, solver);
    case EngineKind::kSystemVision:
      return std::make_unique<baseline::NrEngine>(system, baseline::systemvision_profile());
    case EngineKind::kPspice:
      return std::make_unique<baseline::NrEngine>(system, baseline::pspice_profile());
    case EngineKind::kSystemCA:
      return std::make_unique<baseline::NrEngine>(system, baseline::systemca_profile());
    case EngineKind::kReference: {
      ref::ReferenceConfig config;
      if (solver.fixed_step > 0.0) {
        config.fixed_step = solver.fixed_step;
      }
      if (solver.init_tolerance < config.init_tolerance) {
        config.init_tolerance = solver.init_tolerance;
      }
      return std::make_unique<ref::ReferenceEngine>(system, config);
    }
  }
  throw ModelError("make_engine: invalid engine kind");
}

}  // namespace ehsim::experiments
