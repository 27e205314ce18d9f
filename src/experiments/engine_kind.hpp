/// \file engine_kind.hpp
/// \brief The four analogue engines a scenario can run on.
///
/// Proposed is the paper's linearised state-space engine; the other three
/// are Newton-Raphson baseline profiles mimicking the commercial simulators
/// of Tables I/II. The kind is part of the declarative experiment spec, so
/// it has stable string ids ("proposed", "systemvision", ...) for the JSON
/// round-trip.
#pragma once

#include <memory>
#include <string_view>

#include "core/engine.hpp"
#include "harvester/dickson_multiplier.hpp"

namespace ehsim::experiments {

enum class EngineKind {
  kProposed,      ///< linearised state-space + Adams-Bashforth (this paper)
  kSystemVision,  ///< VHDL-AMS / trapezoidal + NR baseline
  kPspice,        ///< OrCAD PSPICE / Gear-2 + NR baseline
  kSystemCA,      ///< SystemC-A / backward-Euler + NR baseline
  kReference,     ///< extended-precision fixed-step oracle (src/ref)
};

/// Stable spec/JSON token: "proposed", "systemvision", "pspice", "systemca",
/// "reference".
[[nodiscard]] const char* engine_kind_id(EngineKind kind);

/// Inverse of engine_kind_id; throws ModelError naming the bad token and the
/// accepted ones.
[[nodiscard]] EngineKind parse_engine_kind(std::string_view id);

/// Engine factory over an elaborated system. Proposed uses PWL tables
/// (paper §III-B); baselines and the reference oracle evaluate the exact
/// Shockley exponentials, as the commercial simulators do.
[[nodiscard]] std::unique_ptr<core::AnalogEngine> make_engine(EngineKind kind,
                                                              core::SystemAssembler& system);

/// make_engine with the spec's solver configuration. The proposed engine
/// consumes the full core::SolverConfig; the reference oracle maps
/// `fixed_step` (> 0) onto its trapezoidal step and tightens nothing else;
/// the Newton-Raphson baselines keep their historical profiles untouched —
/// their knobs model the commercial tools, not this repo's tuning surface.
[[nodiscard]] std::unique_ptr<core::AnalogEngine> make_engine(EngineKind kind,
                                                              core::SystemAssembler& system,
                                                              const core::SolverConfig& solver);

/// Diode evaluation mode matching the engine kind.
[[nodiscard]] harvester::DeviceEvalMode device_mode_for(EngineKind kind);

}  // namespace ehsim::experiments
