/// \file probe.hpp
/// \brief Streaming probes over an AnalogEngine's accepted solution points.
///
/// A ProbeHub registers exactly one SolutionObserver on an engine and fans
/// every accepted point out to its ProbeChannels, so any number of probes
/// ride one engine hook instead of forking per-probe observers. Each channel
/// reduces one derived quantity v(t, x, y) on the fly — time-weighted
/// (trapezoidal) mean and RMS over an optional window, extremes, the last
/// value, and threshold statistics (upward-crossing count, time above) — so
/// multi-million-step runs produce per-probe scalars without storing the
/// waveform. The TraceRecorder remains the recording path; channels are the
/// reduction path, and the declarative spec layer (experiments/probes.hpp)
/// drives both from the same extractors.
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "io/json.hpp"

namespace ehsim::core {

/// Closed reduction window [start, end] in simulated seconds. The default
/// covers the whole run.
struct ProbeWindow {
  double start = 0.0;
  double end = std::numeric_limits<double>::infinity();
};

/// One probed quantity with streaming window-clipped statistics. Segments
/// between consecutive accepted points are treated as linear (the same
/// convention as experiments::BinnedAccumulator) and clipped to the window,
/// so a window edge falling between two solver steps contributes exactly the
/// in-window part of the segment.
class ProbeChannel {
 public:
  /// Derived quantity at an accepted point (t, x, y).
  using Extractor =
      std::function<double(double t, std::span<const double> x, std::span<const double> y)>;

  ProbeChannel(std::string label, Extractor extract, ProbeWindow window,
               std::optional<double> threshold);

  /// Feed one accepted solution point (called by the hub, in time order).
  void sample(double t, std::span<const double> x, std::span<const double> y);

  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] const ProbeWindow& window() const noexcept { return window_; }
  [[nodiscard]] bool has_threshold() const noexcept { return threshold_.has_value(); }
  [[nodiscard]] double threshold() const noexcept { return threshold_.value_or(0.0); }

  /// No point or segment has intersected the window yet. All statistics of
  /// an empty channel are *defined* (0 / 0 crossings), never NaN: the
  /// time-weighted reductions guard their covered-time divisions, so a
  /// window the run never reaches cannot leak non-finite values into result
  /// documents. The spec layer additionally rejects windows that can never
  /// intersect the simulated span (see experiments::install_probes).
  [[nodiscard]] bool empty() const noexcept { return !seen_; }
  /// Accepted points whose time fell inside the window.
  [[nodiscard]] std::size_t samples() const noexcept { return samples_; }
  /// Value at the last in-window point (0 when the window saw none).
  [[nodiscard]] double final_value() const noexcept { return final_; }
  [[nodiscard]] double minimum() const noexcept { return seen_ ? min_ : 0.0; }
  [[nodiscard]] double maximum() const noexcept { return seen_ ? max_ : 0.0; }
  /// Total in-window time integrated so far [s].
  [[nodiscard]] double covered_time() const noexcept { return covered_; }
  /// Time-weighted mean over the covered window (0 before any segment).
  [[nodiscard]] double mean() const noexcept;
  /// Time-weighted RMS over the covered window.
  [[nodiscard]] double rms() const noexcept;
  /// Upward threshold crossings inside the window (0 without a threshold).
  [[nodiscard]] std::uint64_t crossings() const noexcept { return crossings_; }
  /// In-window time spent strictly above the threshold [s].
  [[nodiscard]] double time_above() const noexcept { return time_above_; }
  /// time_above / covered_time (0 when nothing was covered).
  [[nodiscard]] double duty_cycle() const noexcept;

  /// Exact snapshot of every running reduction (label included so a restore
  /// onto the wrong channel fails loudly).
  [[nodiscard]] io::JsonValue checkpoint_state() const;
  void restore_checkpoint_state(const io::JsonValue& state);

 private:
  /// Deposit the clipped linear segment (t0, v0) -> (t1, v1), t1 > t0.
  void deposit(double t0, double v0, double t1, double v1);

  std::string label_;
  Extractor extract_;
  ProbeWindow window_;
  std::optional<double> threshold_;

  bool has_last_ = false;
  double last_t_ = 0.0;
  double last_v_ = 0.0;

  bool seen_ = false;  ///< any in-window value observed (point or clipped)
  std::size_t samples_ = 0;
  double final_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double integral_ = 0.0;     ///< integral of v dt
  double integral_sq_ = 0.0;  ///< integral of v^2 dt
  double covered_ = 0.0;
  double time_above_ = 0.0;
  std::uint64_t crossings_ = 0;
};

/// Owns the channels and the single engine observer feeding them. Channels
/// must be added before the engine produces points (the same contract as
/// TraceRecorder probes).
class ProbeHub {
 public:
  ProbeHub() = default;
  ProbeHub(const ProbeHub&) = delete;
  ProbeHub& operator=(const ProbeHub&) = delete;

  /// Register the hub's observer on \p engine. Call exactly once.
  void attach(AnalogEngine& engine);
  [[nodiscard]] bool attached() const noexcept { return attached_; }

  /// Add a channel; the reference stays valid for the hub's lifetime.
  ProbeChannel& add_channel(std::string label, ProbeChannel::Extractor extract,
                            ProbeWindow window = {},
                            std::optional<double> threshold = std::nullopt);

  [[nodiscard]] std::size_t size() const noexcept { return channels_.size(); }
  /// Channel by label; null when absent.
  [[nodiscard]] const ProbeChannel* find(std::string_view label) const noexcept;

  /// Snapshot of every channel, in registration order.
  [[nodiscard]] io::JsonValue checkpoint_state() const;
  /// Restore onto a hub whose channels were already re-registered in the
  /// checkpointed order (count and labels are verified).
  void restore_checkpoint_state(const io::JsonValue& state);

 private:
  std::vector<std::unique_ptr<ProbeChannel>> channels_;
  bool attached_ = false;
};

}  // namespace ehsim::core
