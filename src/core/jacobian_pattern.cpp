#include "core/jacobian_pattern.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace ehsim::core {

namespace {

/// Rows and columns of \p block in Jacobians with n states and m nets.
std::array<std::size_t, 2> block_shape(JacobianBlock block, std::size_t n, std::size_t m) {
  switch (block) {
    case JacobianBlock::kXX:
      return {n, n};
    case JacobianBlock::kXY:
      return {n, m};
    case JacobianBlock::kYX:
      return {m, n};
    case JacobianBlock::kYY:
      return {m, m};
  }
  throw ModelError("JacobianPattern: invalid block");
}

}  // namespace

JacobianPattern::JacobianPattern(std::size_t n, std::size_t m,
                                 std::vector<JacobianEntry> entries)
    : n_(n), m_(m) {
  // Flat indices are 32-bit, and (block, row, col) sorts as one integer
  // of 16-bit fields.
  if (n + m > 0xffff) {
    throw ModelError("JacobianPattern: more than 65535 states and nets");
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(entries.size());
  for (const JacobianEntry& e : entries) {
    const auto [rows, cols] = block_shape(e.block, n, m);
    if (e.row >= rows || e.col >= cols) {
      throw ModelError("JacobianPattern: entry (" + std::to_string(e.row) + ", " +
                       std::to_string(e.col) + ") outside its " + std::to_string(rows) + " x " +
                       std::to_string(cols) + " block");
    }
    keys.push_back((static_cast<std::uint64_t>(e.block) << 32) | (e.row << 16) | e.col);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  rows_.reserve(keys.size());
  indices_.reserve(keys.size());
  std::size_t block = 0;
  for (const std::uint64_t key : keys) {
    const auto b = static_cast<std::size_t>(key >> 32);
    const auto row = static_cast<std::uint32_t>((key >> 16) & 0xffff);
    const auto col = static_cast<std::uint32_t>(key & 0xffff);
    const bool new_row = rows_.empty() || b != block || rows_.back().row != row;
    while (block < b) {
      first_row_[++block] = static_cast<std::uint32_t>(rows_.size());
    }
    if (new_row) {
      rows_.push_back(Row{row, 0});
    }
    const std::size_t cols = block_shape(static_cast<JacobianBlock>(b), n, m)[1];
    indices_.push_back(static_cast<std::uint32_t>(row * cols + col));
    rows_.back().end = static_cast<std::uint32_t>(indices_.size());
  }
  while (block < 4) {
    first_row_[++block] = static_cast<std::uint32_t>(rows_.size());
  }
}

JacobianPattern JacobianPattern::every_entry(std::size_t n, std::size_t m) {
  std::vector<JacobianEntry> entries;
  entries.reserve((n + m) * (n + m));
  for (const JacobianBlock block : {JacobianBlock::kXX, JacobianBlock::kXY, JacobianBlock::kYX,
                                    JacobianBlock::kYY}) {
    const auto [rows, cols] = block_shape(block, n, m);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        entries.push_back(JacobianEntry{block, r, c});
      }
    }
  }
  return JacobianPattern(n, m, std::move(entries));
}

std::size_t JacobianPattern::size(JacobianBlock block) const noexcept {
  const auto b = static_cast<std::size_t>(block);
  const std::size_t begin = first_row_[b] == 0 ? 0 : rows_[first_row_[b] - 1].end;
  const std::size_t end = first_row_[b + 1] == 0 ? 0 : rows_[first_row_[b + 1] - 1].end;
  return end - begin;
}

}  // namespace ehsim::core
