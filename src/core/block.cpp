#include "core/block.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ehsim::core {

AnalogBlock::AnalogBlock(std::string name, std::size_t num_states, std::size_t num_terminals,
                         std::size_t num_algebraic)
    : name_(std::move(name)),
      num_states_(num_states),
      num_terminals_(num_terminals),
      num_algebraic_(num_algebraic) {
  if (name_.empty()) {
    throw ModelError("AnalogBlock: name must not be empty");
  }
}

void AnalogBlock::initial_state(std::span<double> x) const {
  std::fill(x.begin(), x.end(), 0.0);
}

std::uint64_t AnalogBlock::jacobian_signature(double /*t*/, std::span<const double> /*x*/,
                                              std::span<const double> /*y*/) const {
  return kAlwaysRebuild;
}

std::uint64_t AnalogBlock::eval_with_signature(double t, std::span<const double> x,
                                               std::span<const double> y, std::span<double> fx,
                                               std::span<double> fy) const {
  eval(t, x, y, fx, fy);
  return jacobian_signature(t, x, y);
}

void AnalogBlock::varying_jacobian_entries(std::vector<JacobianEntry>& entries) const {
  const std::size_t rows[] = {num_states_, num_states_, num_algebraic_, num_algebraic_};
  const std::size_t cols[] = {num_states_, num_terminals_, num_states_, num_terminals_};
  for (std::size_t b = 0; b < 4; ++b) {
    for (std::size_t r = 0; r < rows[b]; ++r) {
      for (std::size_t c = 0; c < cols[b]; ++c) {
        entries.push_back(JacobianEntry{static_cast<JacobianBlock>(b), r, c});
      }
    }
  }
}

std::string AnalogBlock::state_name(std::size_t i) const {
  std::string name("x");
  name += std::to_string(i);
  return name;
}

std::string AnalogBlock::terminal_name(std::size_t i) const {
  std::string name("y");
  name += std::to_string(i);
  return name;
}

}  // namespace ehsim::core
