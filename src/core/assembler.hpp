/// \file assembler.hpp
/// \brief System assembly: blocks + terminal nets -> global equations.
///
/// "When combining the component blocks together, the terminal variables of
/// each component block will be represented by state variables and
/// eliminated. ... The combination of the mixed-technology energy harvester
/// model is automated by the method described in Section II." (paper §III-E)
///
/// The assembler gives every block a contiguous global state range, maps
/// block terminals onto shared *nets* (one global non-state variable per
/// net, e.g. `Vm`, `Im`, `Vc`, `Ic`), stacks the algebraic rows of all
/// blocks, and verifies at elaboration that the algebraic system is square —
/// the structural condition for the Eq. 4 elimination to be well-posed.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/block.hpp"
#include "core/jacobian_pattern.hpp"
#include "linalg/matrix.hpp"

namespace ehsim::core {

/// Opaque handle to a block registered with an assembler.
struct BlockHandle {
  std::size_t index = static_cast<std::size_t>(-1);
};

/// Opaque handle to a terminal net.
struct NetHandle {
  std::size_t index = static_cast<std::size_t>(-1);
};

/// Owns the blocks and the connectivity, and provides global evaluation /
/// Jacobian assembly for both simulation engines.
class SystemAssembler {
 public:
  SystemAssembler() = default;

  /// Register a block; the assembler takes ownership.
  BlockHandle add_block(std::unique_ptr<AnalogBlock> block);
  /// Create (or retrieve) a named net.
  NetHandle net(const std::string& name);
  /// Bind local terminal \p terminal of \p block to \p net.
  void bind(BlockHandle block, std::size_t terminal, NetHandle net);

  /// Finish construction: assign offsets, validate that every terminal is
  /// bound and that (total algebraic rows) == (number of nets). Throws
  /// ModelError with a diagnostic otherwise. Idempotent.
  void elaborate();
  [[nodiscard]] bool elaborated() const noexcept { return elaborated_; }

  // ---- Dimensions (valid after elaborate()) --------------------------------
  [[nodiscard]] std::size_t num_states() const noexcept { return total_states_; }
  [[nodiscard]] std::size_t num_nets() const noexcept { return nets_.size(); }
  [[nodiscard]] std::size_t num_blocks() const noexcept { return blocks_.size(); }

  // ---- Access --------------------------------------------------------------
  [[nodiscard]] AnalogBlock& block(BlockHandle handle);
  /// Typed convenience accessor: the caller asserts the concrete block type.
  template <typename T>
  [[nodiscard]] T& block_as(BlockHandle handle) {
    auto* p = dynamic_cast<T*>(&block(handle));
    if (p == nullptr) {
      throw ModelError("SystemAssembler::block_as: block type mismatch");
    }
    return *p;
  }

  /// Offset of the block's first state in the global state vector.
  [[nodiscard]] std::size_t state_offset(BlockHandle handle) const;
  /// Global state index of a block-local state.
  [[nodiscard]] std::size_t state_index(BlockHandle handle, std::size_t local_state) const;
  /// Global net index of a net handle.
  [[nodiscard]] std::size_t net_index(NetHandle handle) const noexcept { return handle.index; }
  /// Look up a net by name.
  [[nodiscard]] std::optional<NetHandle> find_net(const std::string& name) const;

  /// Fully-qualified global state names ("block.state").
  [[nodiscard]] std::vector<std::string> state_names() const;
  /// Net names in global y order.
  [[nodiscard]] std::vector<std::string> net_names() const;

  /// Aggregate epoch over all blocks; a change signals a discontinuity.
  [[nodiscard]] std::uint64_t total_epoch() const noexcept;

  /// Combined Jacobian signature over all blocks (see
  /// AnalogBlock::jacobian_signature). Returns a strictly fresh value when
  /// any block reports kAlwaysRebuild, so comparing successive results is
  /// always safe.
  [[nodiscard]] std::uint64_t jacobian_signature(double t, std::span<const double> x,
                                                 std::span<const double> y) const;

  /// The global Jacobian entries that may change within an epoch: every
  /// block's AnalogBlock::varying_jacobian_entries, mapped at elaborate().
  [[nodiscard]] const JacobianPattern& varying_jacobian_entries() const noexcept {
    return varying_entries_;
  }

  // ---- Global evaluation (valid after elaborate()) --------------------------
  /// Gather initial states from all blocks into \p x (size num_states()).
  void initial_state(std::span<double> x) const;

  /// Evaluate all blocks: \p fx (size num_states) receives global dx/dt,
  /// \p fy (size num_nets) the stacked algebraic residuals.
  void eval(double t, std::span<const double> x, std::span<const double> y,
            std::span<double> fx, std::span<double> fy) const;

  /// Assemble the global Jacobians of Eq. 2. Matrices are resized and
  /// zeroed here; dimensions: jxx NxN, jxy NxM, jyx MxN, jyy MxM with
  /// N = num_states(), M = num_nets().
  void jacobians(double t, std::span<const double> x, std::span<const double> y,
                 linalg::Matrix& jxx, linalg::Matrix& jxy, linalg::Matrix& jyx,
                 linalg::Matrix& jyy) const;

 private:
  struct BlockRecord {
    std::unique_ptr<AnalogBlock> block;
    std::size_t state_offset = 0;
    std::size_t algebraic_offset = 0;
    std::vector<std::size_t> terminal_net;  // local terminal -> global net
    // Per-block scratch (mutable through const methods via mutable below).
    mutable std::vector<double> y_local;
    mutable std::vector<double> fy_local;
    mutable linalg::Matrix jxx, jxy, jyx, jyy;
  };

  void require_elaborated(const char* what) const;

  std::vector<BlockRecord> blocks_;
  std::vector<std::string> nets_;
  JacobianPattern varying_entries_;
  mutable std::uint64_t fresh_signature_counter_ = 0;
  std::size_t total_states_ = 0;
  std::size_t total_algebraic_ = 0;
  bool elaborated_ = false;
};

}  // namespace ehsim::core
