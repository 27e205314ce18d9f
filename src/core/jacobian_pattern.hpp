/// \file jacobian_pattern.hpp
/// \brief Sets of Jacobian entries, laid out for the LLE monitor's scan.
///
/// Blocks declare which of their local Jacobian entries can change within an
/// epoch (AnalogBlock::varying_jacobian_entries); the assembler maps those
/// declarations once onto the global Jxx/Jxy/Jyx/Jyy (Eq. 2) and the LLE
/// monitor (Eq. 3) scans only them. A pattern groups its entries by row,
/// because the monitor must fold a whole row into that row's scale before it
/// divides any of the row's differences by it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ehsim::core {

/// The four Jacobian blocks of Eq. 2, in jacobians() argument order.
enum class JacobianBlock : std::uint8_t { kXX = 0, kXY = 1, kYX = 2, kYY = 3 };

/// One entry of the Jacobians: local to a block when a block declares it,
/// global when the assembler builds a pattern from it.
struct JacobianEntry {
  JacobianBlock block;
  std::size_t row;
  std::size_t col;
};

/// A set of entries of Jacobians with n states and m nets (Jxx n x n, Jxy
/// n x m, Jyx m x n, Jyy m x m): per block, the rows holding an entry, and
/// per row the row-major flat indices of its entries.
class JacobianPattern {
 public:
  /// One row holding at least one entry.
  struct Row {
    std::uint32_t row;
    /// One past the row's last index in indices(); the row's first index
    /// is the previous row's end (0 for the first row).
    std::uint32_t end;
  };

  /// The empty pattern of 0 states and 0 nets.
  JacobianPattern() = default;
  /// The entries of \p entries, in any order and with repeats. Throws
  /// ModelError on an entry outside its block.
  JacobianPattern(std::size_t n, std::size_t m, std::vector<JacobianEntry> entries);
  /// Every entry.
  [[nodiscard]] static JacobianPattern every_entry(std::size_t n, std::size_t m);

  [[nodiscard]] std::size_t num_states() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_nets() const noexcept { return m_; }
  /// Number of entries (repeats counted once).
  [[nodiscard]] std::size_t size() const noexcept { return indices_.size(); }
  /// Entries in \p block.
  [[nodiscard]] std::size_t size(JacobianBlock block) const noexcept;

  /// Rows of all four blocks, block by block, each block's in ascending order.
  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }
  /// rows()[first_row(b)] .. rows()[first_row(b + 1) - 1] belong to block b;
  /// first_row(4) == rows().size().
  [[nodiscard]] std::size_t first_row(std::size_t block) const noexcept {
    return first_row_[block];
  }
  /// Flat indices, row by row, each row's ascending.
  [[nodiscard]] const std::vector<std::uint32_t>& indices() const noexcept { return indices_; }

 private:
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::array<std::uint32_t, 5> first_row_{};
  std::vector<Row> rows_;
  std::vector<std::uint32_t> indices_;
};

}  // namespace ehsim::core
