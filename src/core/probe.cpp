#include "core/probe.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "io/state_json.hpp"

namespace ehsim::core {

ProbeChannel::ProbeChannel(std::string label, Extractor extract, ProbeWindow window,
                           std::optional<double> threshold)
    : label_(std::move(label)),
      extract_(std::move(extract)),
      window_(window),
      threshold_(threshold) {
  if (label_.empty()) {
    throw ModelError("ProbeChannel: label must not be empty");
  }
  if (!extract_) {
    throw ModelError("ProbeChannel '" + label_ + "': extractor is required");
  }
  if (!(window_.end > window_.start)) {
    throw ModelError("ProbeChannel '" + label_ + "': window end must exceed its start");
  }
}

void ProbeChannel::sample(double t, std::span<const double> x, std::span<const double> y) {
  const double v = extract_(t, x, y);
  if (t >= window_.start && t <= window_.end) {
    ++samples_;
    final_ = v;
    min_ = seen_ ? std::min(min_, v) : v;
    max_ = seen_ ? std::max(max_, v) : v;
    seen_ = true;
  }
  if (has_last_ && t > last_t_) {
    // Clip the linear segment [last_t_, t] to the window.
    const double t0 = std::max(last_t_, window_.start);
    const double t1 = std::min(t, window_.end);
    if (t1 > t0) {
      const double span = t - last_t_;
      const double v0 = last_v_ + (v - last_v_) * (t0 - last_t_) / span;
      const double v1 = last_v_ + (v - last_v_) * (t1 - last_t_) / span;
      deposit(t0, v0, t1, v1);
    }
  }
  has_last_ = true;
  last_t_ = t;
  last_v_ = v;
}

void ProbeChannel::deposit(double t0, double v0, double t1, double v1) {
  const double dt = t1 - t0;
  integral_ += 0.5 * (v0 + v1) * dt;
  // Exact integral of the squared linear segment.
  integral_sq_ += dt * (v0 * v0 + v0 * v1 + v1 * v1) / 3.0;
  covered_ += dt;
  min_ = seen_ ? std::min({min_, v0, v1}) : std::min(v0, v1);
  max_ = seen_ ? std::max({max_, v0, v1}) : std::max(v0, v1);
  final_ = v1;
  seen_ = true;
  if (threshold_) {
    const double thr = *threshold_;
    if (v0 <= thr && v1 > thr) {
      ++crossings_;
    }
    // Portion of the linear segment strictly above the threshold.
    if (v0 > thr && v1 > thr) {
      time_above_ += dt;
    } else if (v0 > thr || v1 > thr) {
      const double above = std::max(v0, v1) - thr;
      const double below = thr - std::min(v0, v1);
      time_above_ += dt * above / (above + below);
    }
  }
}

double ProbeChannel::mean() const noexcept {
  return covered_ > 0.0 ? integral_ / covered_ : 0.0;
}

double ProbeChannel::rms() const noexcept {
  return covered_ > 0.0 ? std::sqrt(std::max(0.0, integral_sq_ / covered_)) : 0.0;
}

double ProbeChannel::duty_cycle() const noexcept {
  return covered_ > 0.0 ? time_above_ / covered_ : 0.0;
}

io::JsonValue ProbeChannel::checkpoint_state() const {
  io::JsonValue state = io::JsonValue::make_object();
  state.set("label", io::JsonValue(label_));
  state.set("has_last", io::JsonValue(has_last_));
  state.set("last_t", io::real_to_json(last_t_));
  state.set("last_v", io::real_to_json(last_v_));
  state.set("seen", io::JsonValue(seen_));
  state.set("samples", io::u64_to_json(samples_));
  state.set("final", io::real_to_json(final_));
  state.set("min", io::real_to_json(min_));
  state.set("max", io::real_to_json(max_));
  state.set("integral", io::real_to_json(integral_));
  state.set("integral_sq", io::real_to_json(integral_sq_));
  state.set("covered", io::real_to_json(covered_));
  state.set("time_above", io::real_to_json(time_above_));
  state.set("crossings", io::u64_to_json(crossings_));
  return state;
}

void ProbeChannel::restore_checkpoint_state(const io::JsonValue& state) {
  const std::string what = "probe checkpoint '" + label_ + "'";
  io::check_state_keys(state, what,
                       {"label", "has_last", "last_t", "last_v", "seen", "samples", "final",
                        "min", "max", "integral", "integral_sq", "covered", "time_above",
                        "crossings"});
  const std::string& label = io::require_key(state, what, "label").as_string();
  if (label != label_) {
    throw ModelError(what + ": snapshot belongs to channel '" + label + "'");
  }
  has_last_ = io::bool_from_json(io::require_key(state, what, "has_last"), what + ".has_last");
  last_t_ = io::real_from_json(io::require_key(state, what, "last_t"), what + ".last_t");
  last_v_ = io::real_from_json(io::require_key(state, what, "last_v"), what + ".last_v");
  seen_ = io::bool_from_json(io::require_key(state, what, "seen"), what + ".seen");
  samples_ = io::index_from_json(io::require_key(state, what, "samples"), what + ".samples");
  final_ = io::real_from_json(io::require_key(state, what, "final"), what + ".final");
  min_ = io::real_from_json(io::require_key(state, what, "min"), what + ".min");
  max_ = io::real_from_json(io::require_key(state, what, "max"), what + ".max");
  integral_ = io::real_from_json(io::require_key(state, what, "integral"), what + ".integral");
  integral_sq_ =
      io::real_from_json(io::require_key(state, what, "integral_sq"), what + ".integral_sq");
  covered_ = io::real_from_json(io::require_key(state, what, "covered"), what + ".covered");
  time_above_ =
      io::real_from_json(io::require_key(state, what, "time_above"), what + ".time_above");
  crossings_ = io::u64_from_json(io::require_key(state, what, "crossings"), what + ".crossings");
}

void ProbeHub::attach(AnalogEngine& engine) {
  if (attached_) {
    throw ModelError("ProbeHub: already attached to an engine");
  }
  engine.add_observer([this](double t, std::span<const double> x, std::span<const double> y) {
    for (const auto& channel : channels_) {
      channel->sample(t, x, y);
    }
  });
  attached_ = true;
}

ProbeChannel& ProbeHub::add_channel(std::string label, ProbeChannel::Extractor extract,
                                    ProbeWindow window, std::optional<double> threshold) {
  if (find(label) != nullptr) {
    throw ModelError("ProbeHub: duplicate channel label '" + label + "'");
  }
  channels_.push_back(std::make_unique<ProbeChannel>(std::move(label), std::move(extract),
                                                     window, threshold));
  return *channels_.back();
}

io::JsonValue ProbeHub::checkpoint_state() const {
  io::JsonValue state = io::JsonValue::make_array();
  for (const auto& channel : channels_) {
    state.push_back(channel->checkpoint_state());
  }
  return state;
}

void ProbeHub::restore_checkpoint_state(const io::JsonValue& state) {
  const io::JsonValue::Array& entries = state.as_array();
  if (entries.size() != channels_.size()) {
    throw ModelError("probe checkpoint: channel count mismatch (checkpoint has " +
                     std::to_string(entries.size()) + ", hub has " +
                     std::to_string(channels_.size()) + ")");
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    channels_[i]->restore_checkpoint_state(entries[i]);
  }
}

const ProbeChannel* ProbeHub::find(std::string_view label) const noexcept {
  for (const auto& channel : channels_) {
    if (channel->label() == label) {
      return channel.get();
    }
  }
  return nullptr;
}

}  // namespace ehsim::core
