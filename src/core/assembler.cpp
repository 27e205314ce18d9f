#include "core/assembler.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/error.hpp"

namespace ehsim::core {

namespace {
constexpr std::size_t kUnbound = static_cast<std::size_t>(-1);
}

BlockHandle SystemAssembler::add_block(std::unique_ptr<AnalogBlock> block) {
  if (elaborated_) {
    throw ModelError("SystemAssembler: cannot add blocks after elaborate()");
  }
  if (!block) {
    throw ModelError("SystemAssembler: null block");
  }
  BlockRecord record;
  record.terminal_net.assign(block->num_terminals(), kUnbound);
  record.block = std::move(block);
  blocks_.push_back(std::move(record));
  return BlockHandle{blocks_.size() - 1};
}

NetHandle SystemAssembler::net(const std::string& name) {
  if (elaborated_) {
    throw ModelError("SystemAssembler: cannot create nets after elaborate()");
  }
  if (name.empty()) {
    throw ModelError("SystemAssembler: net name must not be empty");
  }
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (nets_[i] == name) {
      return NetHandle{i};
    }
  }
  nets_.push_back(name);
  return NetHandle{nets_.size() - 1};
}

void SystemAssembler::bind(BlockHandle block, std::size_t terminal, NetHandle net_handle) {
  if (elaborated_) {
    throw ModelError("SystemAssembler: cannot bind after elaborate()");
  }
  if (block.index >= blocks_.size()) {
    throw ModelError("SystemAssembler::bind: invalid block handle");
  }
  if (net_handle.index >= nets_.size()) {
    throw ModelError("SystemAssembler::bind: invalid net handle");
  }
  auto& record = blocks_[block.index];
  if (terminal >= record.block->num_terminals()) {
    throw ModelError("SystemAssembler::bind: terminal index out of range for block '" +
                     record.block->name() + "'");
  }
  if (record.terminal_net[terminal] != kUnbound) {
    throw ModelError("SystemAssembler::bind: terminal already bound on block '" +
                     record.block->name() + "'");
  }
  record.terminal_net[terminal] = net_handle.index;
}

void SystemAssembler::elaborate() {
  if (elaborated_) {
    return;
  }
  if (blocks_.empty()) {
    throw ModelError("SystemAssembler: no blocks to elaborate");
  }
  total_states_ = 0;
  total_algebraic_ = 0;
  for (auto& record : blocks_) {
    record.state_offset = total_states_;
    record.algebraic_offset = total_algebraic_;
    total_states_ += record.block->num_states();
    total_algebraic_ += record.block->num_algebraic();
    for (std::size_t t = 0; t < record.terminal_net.size(); ++t) {
      if (record.terminal_net[t] == kUnbound) {
        throw ModelError("SystemAssembler: unbound terminal '" +
                         record.block->terminal_name(t) + "' on block '" +
                         record.block->name() + "'");
      }
    }
    record.y_local.assign(record.block->num_terminals(), 0.0);
    record.fy_local.assign(record.block->num_algebraic(), 0.0);
    record.jxx.resize(record.block->num_states(), record.block->num_states());
    record.jxy.resize(record.block->num_states(), record.block->num_terminals());
    record.jyx.resize(record.block->num_algebraic(), record.block->num_states());
    record.jyy.resize(record.block->num_algebraic(), record.block->num_terminals());
  }
  if (total_algebraic_ != nets_.size()) {
    throw ModelError("SystemAssembler: algebraic system is not square: " +
                     std::to_string(total_algebraic_) + " constraint rows vs " +
                     std::to_string(nets_.size()) + " nets — the Eq. 4 elimination needs "
                     "exactly one constraint per terminal variable");
  }
  // Map each block's varying entries, in place, the way jacobians() scatters
  // its local matrices: state rows/columns by offset, terminal columns onto
  // their nets.
  std::vector<JacobianEntry> varying;
  varying.reserve(4 * (total_states_ + nets_.size()));  // one allocation for sparse declarations
  for (const auto& record : blocks_) {
    const AnalogBlock& block = *record.block;
    const std::size_t first = varying.size();
    block.varying_jacobian_entries(varying);
    for (std::size_t i = first; i < varying.size(); ++i) {
      JacobianEntry& e = varying[i];
      const bool state_row = e.block == JacobianBlock::kXX || e.block == JacobianBlock::kXY;
      const bool state_col = e.block == JacobianBlock::kXX || e.block == JacobianBlock::kYX;
      if (e.row >= (state_row ? block.num_states() : block.num_algebraic()) ||
          e.col >= (state_col ? block.num_states() : block.num_terminals())) {
        throw ModelError("SystemAssembler: block '" + block.name() +
                         "' declares a varying Jacobian entry outside its local block");
      }
      e.row += state_row ? record.state_offset : record.algebraic_offset;
      e.col = state_col ? record.state_offset + e.col : record.terminal_net[e.col];
    }
  }
  varying_entries_ = JacobianPattern(total_states_, nets_.size(), std::move(varying));
  elaborated_ = true;
}

void SystemAssembler::require_elaborated(const char* what) const {
  if (!elaborated_) {
    throw ModelError(std::string("SystemAssembler: ") + what + " requires elaborate()");
  }
}

AnalogBlock& SystemAssembler::block(BlockHandle handle) {
  if (handle.index >= blocks_.size()) {
    throw ModelError("SystemAssembler::block: invalid handle");
  }
  return *blocks_[handle.index].block;
}

std::size_t SystemAssembler::state_offset(BlockHandle handle) const {
  require_elaborated("state_offset");
  if (handle.index >= blocks_.size()) {
    throw ModelError("SystemAssembler::state_offset: invalid handle");
  }
  return blocks_[handle.index].state_offset;
}

std::size_t SystemAssembler::state_index(BlockHandle handle, std::size_t local_state) const {
  require_elaborated("state_index");
  if (handle.index >= blocks_.size()) {
    throw ModelError("SystemAssembler::state_index: invalid handle");
  }
  const auto& record = blocks_[handle.index];
  if (local_state >= record.block->num_states()) {
    throw ModelError("SystemAssembler::state_index: local state out of range");
  }
  return record.state_offset + local_state;
}

std::optional<NetHandle> SystemAssembler::find_net(const std::string& name) const {
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (nets_[i] == name) {
      return NetHandle{i};
    }
  }
  return std::nullopt;
}

std::vector<std::string> SystemAssembler::state_names() const {
  std::vector<std::string> names;
  names.reserve(total_states_);
  for (const auto& record : blocks_) {
    for (std::size_t i = 0; i < record.block->num_states(); ++i) {
      names.push_back(record.block->name() + "." + record.block->state_name(i));
    }
  }
  return names;
}

std::vector<std::string> SystemAssembler::net_names() const { return nets_; }

std::uint64_t SystemAssembler::total_epoch() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& record : blocks_) {
    sum += record.block->epoch();
  }
  return sum;
}

std::uint64_t SystemAssembler::jacobian_signature(double t, std::span<const double> x,
                                                  std::span<const double> y) const {
  require_elaborated("jacobian_signature");
  // 64-bit FNV-1a style mixing of per-block signatures plus epochs.
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](std::uint64_t v) {
    hash ^= v;
    hash *= 1099511628211ull;
  };
  for (const auto& record : blocks_) {
    for (std::size_t i = 0; i < record.terminal_net.size(); ++i) {
      record.y_local[i] = y[record.terminal_net[i]];
    }
    const std::uint64_t sig = record.block->jacobian_signature(
        t, x.subspan(record.state_offset, record.block->num_states()), record.y_local);
    if (sig == AnalogBlock::kAlwaysRebuild) {
      return ++fresh_signature_counter_;  // strictly fresh value
    }
    mix(sig);
    mix(record.block->epoch());
  }
  // Avoid colliding with the fresh-counter range near zero.
  return hash | (1ull << 63);
}

void SystemAssembler::initial_state(std::span<double> x) const {
  require_elaborated("initial_state");
  EHSIM_ASSERT(x.size() == total_states_, "initial_state dimension mismatch");
  for (const auto& record : blocks_) {
    record.block->initial_state(x.subspan(record.state_offset, record.block->num_states()));
  }
}

void SystemAssembler::eval(double t, std::span<const double> x, std::span<const double> y,
                           std::span<double> fx, std::span<double> fy) const {
  require_elaborated("eval");
  EHSIM_ASSERT(x.size() == total_states_ && fx.size() == total_states_,
               "eval state dimension mismatch");
  EHSIM_ASSERT(y.size() == nets_.size() && fy.size() == nets_.size(),
               "eval net dimension mismatch");
  for (const auto& record : blocks_) {
    const std::size_t ns = record.block->num_states();
    const std::size_t na = record.block->num_algebraic();
    for (std::size_t i = 0; i < record.terminal_net.size(); ++i) {
      record.y_local[i] = y[record.terminal_net[i]];
    }
    record.block->eval(t, x.subspan(record.state_offset, ns), record.y_local,
                       fx.subspan(record.state_offset, ns),
                       std::span<double>(record.fy_local));
    for (std::size_t i = 0; i < na; ++i) {
      fy[record.algebraic_offset + i] = record.fy_local[i];
    }
  }
}

void SystemAssembler::jacobians(double t, std::span<const double> x, std::span<const double> y,
                                linalg::Matrix& jxx, linalg::Matrix& jxy, linalg::Matrix& jyx,
                                linalg::Matrix& jyy) const {
  require_elaborated("jacobians");
  const std::size_t n = total_states_;
  const std::size_t m = nets_.size();
  if (jxx.rows() != n || jxx.cols() != n) {
    jxx.resize(n, n);
  } else {
    jxx.fill(0.0);
  }
  if (jxy.rows() != n || jxy.cols() != m) {
    jxy.resize(n, m);
  } else {
    jxy.fill(0.0);
  }
  if (jyx.rows() != m || jyx.cols() != n) {
    jyx.resize(m, n);
  } else {
    jyx.fill(0.0);
  }
  if (jyy.rows() != m || jyy.cols() != m) {
    jyy.resize(m, m);
  } else {
    jyy.fill(0.0);
  }

  for (const auto& record : blocks_) {
    const std::size_t ns = record.block->num_states();
    const std::size_t nt = record.block->num_terminals();
    const std::size_t na = record.block->num_algebraic();
    for (std::size_t i = 0; i < nt; ++i) {
      record.y_local[i] = y[record.terminal_net[i]];
    }
    record.jxx.fill(0.0);
    record.jxy.fill(0.0);
    record.jyx.fill(0.0);
    record.jyy.fill(0.0);
    record.block->jacobians(t, x.subspan(record.state_offset, ns), record.y_local, record.jxx,
                            record.jxy, record.jyx, record.jyy);
    const std::size_t so = record.state_offset;
    const std::size_t ao = record.algebraic_offset;
    for (std::size_t r = 0; r < ns; ++r) {
      for (std::size_t c = 0; c < ns; ++c) {
        jxx(so + r, so + c) += record.jxx(r, c);
      }
      for (std::size_t c = 0; c < nt; ++c) {
        jxy(so + r, record.terminal_net[c]) += record.jxy(r, c);
      }
    }
    for (std::size_t r = 0; r < na; ++r) {
      for (std::size_t c = 0; c < ns; ++c) {
        jyx(ao + r, so + c) += record.jyx(r, c);
      }
      for (std::size_t c = 0; c < nt; ++c) {
        jyy(ao + r, record.terminal_net[c]) += record.jyy(r, c);
      }
    }
  }
}

}  // namespace ehsim::core
