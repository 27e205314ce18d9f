#include "core/trace.hpp"

#include <algorithm>
#include <ostream>

#include "common/error.hpp"
#include "io/state_json.hpp"

namespace ehsim::core {

TraceRecorder::TraceRecorder(AnalogEngine& engine, double min_interval)
    : engine_(&engine), min_interval_(min_interval) {
  if (min_interval < 0.0) {
    throw ModelError("TraceRecorder: min_interval must be >= 0");
  }
  engine.add_observer([this](double t, std::span<const double> x, std::span<const double> y) {
    on_point(t, x, y);
  });
}

void TraceRecorder::probe_state(const std::string& qualified_name) {
  const auto names = engine_->system().state_names();
  const auto it = std::find(names.begin(), names.end(), qualified_name);
  if (it == names.end()) {
    throw ModelError("TraceRecorder: unknown state '" + qualified_name + "'");
  }
  const auto index = static_cast<std::size_t>(it - names.begin());
  columns_.push_back(Column{
      qualified_name,
      [index](double, std::span<const double> x, std::span<const double>) { return x[index]; },
      {}});
}

void TraceRecorder::probe_net(const std::string& net_name) {
  const auto net = engine_->system().find_net(net_name);
  if (!net) {
    throw ModelError("TraceRecorder: unknown net '" + net_name + "'");
  }
  const std::size_t index = net->index;
  columns_.push_back(Column{
      net_name,
      [index](double, std::span<const double>, std::span<const double> y) { return y[index]; },
      {}});
}

void TraceRecorder::probe_expression(
    std::string label,
    std::function<double(std::span<const double>, std::span<const double>)> expression) {
  if (!expression) {
    throw ModelError("TraceRecorder: null expression");
  }
  probe_expression(std::move(label),
                   [expression = std::move(expression)](double, std::span<const double> x,
                                                        std::span<const double> y) {
                     return expression(x, y);
                   });
}

void TraceRecorder::probe_expression(
    std::string label,
    std::function<double(double, std::span<const double>, std::span<const double>)>
        expression) {
  if (!expression) {
    throw ModelError("TraceRecorder: null expression");
  }
  columns_.push_back(Column{std::move(label), std::move(expression), {}});
}

const std::vector<double>& TraceRecorder::column(const std::string& label) const {
  for (const auto& col : columns_) {
    if (col.label == label) {
      return col.data;
    }
  }
  throw ModelError("TraceRecorder: unknown column '" + label + "'");
}

void TraceRecorder::on_point(double t, std::span<const double> x, std::span<const double> y) {
  if (any_recorded_ && min_interval_ > 0.0 && t - last_recorded_ < min_interval_) {
    return;
  }
  any_recorded_ = true;
  last_recorded_ = t;
  times_.push_back(t);
  for (auto& col : columns_) {
    col.data.push_back(col.extract(t, x, y));
  }
}

io::JsonValue TraceRecorder::checkpoint_state() const {
  io::JsonValue state = io::JsonValue::make_object();
  state.set("last_recorded", io::real_to_json(last_recorded_));
  state.set("any_recorded", io::JsonValue(any_recorded_));
  state.set("times", io::reals_to_json(times_));
  io::JsonValue columns = io::JsonValue::make_array();
  for (const auto& col : columns_) {
    io::JsonValue entry = io::JsonValue::make_object();
    entry.set("label", io::JsonValue(col.label));
    entry.set("data", io::reals_to_json(col.data));
    columns.push_back(std::move(entry));
  }
  state.set("columns", std::move(columns));
  return state;
}

void TraceRecorder::restore_checkpoint_state(const io::JsonValue& state) {
  const std::string what = "trace checkpoint";
  io::check_state_keys(state, what, {"last_recorded", "any_recorded", "times", "columns"});
  const io::JsonValue::Array& columns = io::require_key(state, what, "columns").as_array();
  if (columns.size() != columns_.size()) {
    throw ModelError(what + ": column count mismatch (checkpoint has " +
                     std::to_string(columns.size()) + ", recorder has " +
                     std::to_string(columns_.size()) + ")");
  }
  const std::vector<double> times =
      io::reals_from_json(io::require_key(state, what, "times"), what + ".times");
  std::vector<std::vector<double>> data(columns_.size());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    const std::string entry_what = what + ".columns[" + std::to_string(i) + "]";
    io::check_state_keys(columns[i], entry_what, {"label", "data"});
    const std::string& label = io::require_key(columns[i], entry_what, "label").as_string();
    if (label != columns_[i].label) {
      throw ModelError(entry_what + ": label '" + label + "' does not match probe '" +
                       columns_[i].label + "'");
    }
    data[i] = io::reals_from_json(io::require_key(columns[i], entry_what, "data"),
                                  entry_what + ".data");
    if (data[i].size() != times.size()) {
      throw ModelError(entry_what + ": column length does not match the time axis");
    }
  }
  last_recorded_ = io::real_from_json(io::require_key(state, what, "last_recorded"),
                                      what + ".last_recorded");
  any_recorded_ =
      io::bool_from_json(io::require_key(state, what, "any_recorded"), what + ".any_recorded");
  times_ = times;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].data = std::move(data[i]);
  }
}

void TraceRecorder::write_csv(std::ostream& os) const {
  os << "time";
  for (const auto& col : columns_) {
    os << ',' << col.label;
  }
  os << '\n';
  for (std::size_t i = 0; i < times_.size(); ++i) {
    os << times_[i];
    for (const auto& col : columns_) {
      os << ',' << col.data[i];
    }
    os << '\n';
  }
}

}  // namespace ehsim::core
