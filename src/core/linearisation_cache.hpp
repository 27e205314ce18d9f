/// \file linearisation_cache.hpp
/// \brief Signature-keyed cache of linearisations (the §III-B look-up economy).
///
/// A piecewise-linear model's Jacobians are piecewise constant, and the
/// blocks fingerprint the piece they sit on with a signature (diode
/// conductance bands, supercapacitor voltage quanta, actuator position).
/// One drive cycle walks the Dickson multiplier's diodes through the same
/// few hundred bands every period, so a solver that remembers each band's
/// linearisation can serve most signature changes by pointing at an entry
/// instead of re-assembling the Jacobians and refactorising Jyy. An entry
/// also keeps its Eq. 7 stability cap once evaluated: the cap is a pure
/// function of the entry's Jacobians (and the solver's fixed config), so
/// reusing it is exact.
///
/// A hit hands back the Jacobians of the signature's first visit, not of the
/// current point: state-dependent entries may differ within one signature.
/// That is the same approximation class as keeping a linearisation while the
/// signature holds from one step to the next (docs/accuracy.md).
///
/// Each core::LinearisedSolver owns one cache; nothing is shared across jobs
/// or threads. The cache is bounded (kCapacity entries; the entry headers are
/// reserved on the first insert so entries never move, their matrices are
/// allocated as entries fill), replaces its least recently used entry, and
/// is a pure function of the sequence of lookups, so runs stay
/// deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace ehsim::core {

/// One linearisation point (Eq. 2): the Jacobian blocks of the assembled
/// system, the LU factorisation of Jyy the elimination (Eq. 4) solves with,
/// and the Eq. 7 cap derived from them.
struct Linearisation {
  linalg::Matrix jxx, jxy, jyx, jyy;
  linalg::LuFactorization jyy_lu;
  /// Eq. 7 step cap of exactly these Jacobians, once evaluated.
  std::optional<double> stability_cap;
};

/// Bounded LRU map from signature to Linearisation; see the file header.
class LinearisationCache {
 public:
  /// One drive cycle's working set on the harvester model. On the 1 s
  /// Table I run, LRU serves 1.6% of the 10,005 signature changes at 128
  /// entries, 83% at 192, 95% at 256 and 95.2% at 512. An entry is ~2 KB.
  static constexpr std::size_t kCapacity = 256;

  /// Whether \p signature may key an entry. The assembler sets the top bit
  /// on every certified signature; values without it are one-off counters
  /// (a block reported kAlwaysRebuild) and never repeat.
  [[nodiscard]] static bool cacheable(std::uint64_t signature) noexcept {
    return (signature >> 63) != 0;
  }

  /// The entry for \p signature, now the most recently used; null on a miss.
  [[nodiscard]] Linearisation* find(std::uint64_t signature);
  /// The slot for a \p signature that just missed: a new entry below
  /// capacity, else the least recently used entry, evicted. The caller
  /// fills it. Entries never move, so the returned reference stays valid
  /// until the entry itself is evicted or the cache is cleared.
  [[nodiscard]] Linearisation& insert(std::uint64_t signature);
  /// Drop every entry.
  void clear();

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  static constexpr std::size_t kNone = kCapacity;  // no slot

  struct Entry {
    std::uint64_t signature = 0;
    std::size_t older = kNone;  // neighbours in the recency list
    std::size_t newer = kNone;
    Linearisation value;
  };

  /// Take \p slot out of the recency list.
  void unlink(std::size_t slot);
  /// Put \p slot (not in the list) at its most recently used end.
  void make_newest(std::size_t slot);

  std::vector<Entry> entries_;  // reserved to kCapacity on first insert
  std::unordered_map<std::uint64_t, std::size_t> index_;  // signature -> entries_ slot
  std::size_t newest_ = kNone;
  std::size_t oldest_ = kNone;  // the next eviction
};

}  // namespace ehsim::core
