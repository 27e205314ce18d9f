#include "ode/explicit_integrators.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "io/state_json.hpp"

namespace ehsim::ode {

AbHistory::AbHistory(std::size_t state_size, std::size_t max_order)
    : state_size_(state_size), max_order_(max_order) {
  if (max_order == 0 || max_order > kMaxAbOrder) {
    throw ModelError("AbHistory: max_order must be 1..4");
  }
  times_.resize(max_order, 0.0);
  storage_.resize(max_order * state_size, 0.0);
}

void AbHistory::push(double t, std::span<const double> f) {
  EHSIM_ASSERT(f.size() == state_size_, "AbHistory::push dimension mismatch");
  if (count_ > 0) {
    EHSIM_ASSERT(t > newest_time(), "AbHistory::push times must increase");
  }
  head_ = (head_ == 0 ? max_order_ : head_) - 1;  // move head to a free slot
  times_[head_] = t;
  std::copy(f.begin(), f.end(), storage_.begin() + static_cast<std::ptrdiff_t>(head_ * state_size_));
  count_ = std::min(count_ + 1, max_order_);
}

double AbHistory::newest_time() const {
  EHSIM_ASSERT(count_ > 0, "AbHistory::newest_time on empty history");
  return times_[head_];
}

std::size_t AbHistory::slot(std::size_t age) const {
  EHSIM_ASSERT(age < count_, "AbHistory::slot age out of range");
  const std::size_t idx = head_ + age;  // < 2 max_order_
  return idx < max_order_ ? idx : idx - max_order_;
}

void AbHistory::step(double t_next, std::span<double> x) const {
  EHSIM_ASSERT(count_ > 0, "AbHistory::step requires at least one sample");
  EHSIM_ASSERT(x.size() == state_size_, "AbHistory::step dimension mismatch");
  std::array<double, kMaxAbOrder> past{};
  for (std::size_t i = 0; i < count_; ++i) {
    past[i] = times_[slot(i)];
  }
  const AbCoefficients coeff =
      compute_ab_coefficients(std::span<const double>(past.data(), count_), t_next);
  for (std::size_t i = 0; i < coeff.order; ++i) {
    const double* f = storage_.data() + slot(i) * state_size_;
    const double beta = coeff.beta[i];
    for (std::size_t j = 0; j < state_size_; ++j) {
      x[j] += beta * f[j];
    }
  }
}

io::JsonValue AbHistory::checkpoint_state() const {
  io::JsonValue state = io::JsonValue::make_object();
  state.set("count", io::u64_to_json(count_));
  state.set("head", io::u64_to_json(head_));
  state.set("times", io::reals_to_json(times_));
  state.set("storage", io::reals_to_json(storage_));
  return state;
}

void AbHistory::restore_checkpoint_state(const io::JsonValue& state) {
  const std::string what = "checkpoint.history";
  io::check_state_keys(state, what, {"count", "head", "times", "storage"});
  const std::size_t count = io::index_from_json(io::require_key(state, what, "count"), what + ".count");
  const std::size_t head = io::index_from_json(io::require_key(state, what, "head"), what + ".head");
  if (count > max_order_ || (max_order_ > 0 && head >= max_order_)) {
    throw ModelError(what + ": ring indices out of range");
  }
  io::reals_into(io::require_key(state, what, "times"), std::span<double>(times_), what + ".times");
  io::reals_into(io::require_key(state, what, "storage"), std::span<double>(storage_),
                 what + ".storage");
  count_ = count;
  head_ = head;
}

}  // namespace ehsim::ode
