/// \file trace.hpp
/// \brief Waveform recording from an AnalogEngine.
///
/// Records named probes (states, nets, or derived expressions such as the
/// instantaneous microgenerator power Vm*Im) at every accepted solution
/// point, with optional time decimation so multi-thousand-second scenario
/// runs stay memory-bounded. Figures 8 and 9 of the paper are regenerated
/// from these traces.
#pragma once

#include <functional>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "io/json.hpp"

namespace ehsim::core {

/// Attaches to an engine at construction; probes must be added before the
/// simulation starts producing points.
class TraceRecorder {
 public:
  /// \param engine        engine to observe (must outlive the recorder)
  /// \param min_interval  minimum spacing between recorded points; 0 records
  ///                      every accepted point
  explicit TraceRecorder(AnalogEngine& engine, double min_interval = 0.0);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Probe a global state by qualified name "block.state" (see
  /// SystemAssembler::state_names).
  void probe_state(const std::string& qualified_name);
  /// Probe a terminal net by name (e.g. "Vc").
  void probe_net(const std::string& net_name);
  /// Probe a derived quantity of the solution point.
  void probe_expression(std::string label,
                        std::function<double(std::span<const double> x,
                                             std::span<const double> y)> expression);
  /// Probe a derived quantity that also depends on time (actuator
  /// kinematics, scheduled excitation terms, ...). \p t is the accepted
  /// point's time, so the column stays a pure function of (t, x, y).
  void probe_expression(std::string label,
                        std::function<double(double t, std::span<const double> x,
                                             std::span<const double> y)> expression);

  [[nodiscard]] std::size_t size() const noexcept { return times_.size(); }
  [[nodiscard]] const std::vector<double>& times() const noexcept { return times_; }
  /// Recorded samples of the probe labelled \p label; throws ModelError for
  /// unknown labels.
  [[nodiscard]] const std::vector<double>& column(const std::string& label) const;

  /// Write "time,label1,label2,..." CSV.
  void write_csv(std::ostream& os) const;

  /// Exact snapshot: decimation cursor plus the recorded times and every
  /// column's data, keyed by label for honesty at restore.
  [[nodiscard]] io::JsonValue checkpoint_state() const;
  /// Restore onto a recorder whose probes were already re-registered in the
  /// checkpointed order (labels are verified per column).
  void restore_checkpoint_state(const io::JsonValue& state);

 private:
  struct Column {
    std::string label;
    std::function<double(double, std::span<const double>, std::span<const double>)> extract;
    std::vector<double> data;
  };

  void on_point(double t, std::span<const double> x, std::span<const double> y);

  AnalogEngine* engine_;
  double min_interval_;
  double last_recorded_ = 0.0;
  bool any_recorded_ = false;
  std::vector<Column> columns_;
  std::vector<double> times_;
};

}  // namespace ehsim::core
