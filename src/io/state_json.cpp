#include "io/state_json.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace ehsim::io {

JsonValue real_to_json(double value) {
  if (std::isfinite(value)) {
    return JsonValue(value);
  }
  if (std::isnan(value)) {
    return JsonValue("nan");
  }
  return JsonValue(value > 0.0 ? "inf" : "-inf");
}

double real_from_json(const JsonValue& value, const std::string& what) {
  if (value.is_number()) {
    return value.as_number();
  }
  if (value.is_string()) {
    const std::string& text = value.as_string();
    if (text == "inf") {
      return std::numeric_limits<double>::infinity();
    }
    if (text == "-inf") {
      return -std::numeric_limits<double>::infinity();
    }
    if (text == "nan") {
      return std::numeric_limits<double>::quiet_NaN();
    }
    throw ModelError(what + ": unknown non-finite real encoding \"" + text + "\"");
  }
  throw ModelError(what + ": expected a real (number or \"inf\"/\"-inf\"/\"nan\")");
}

JsonValue reals_to_json(std::span<const double> values) {
  JsonValue array = JsonValue::make_array();
  for (double v : values) {
    array.push_back(real_to_json(v));
  }
  return array;
}

std::vector<double> reals_from_json(const JsonValue& value, const std::string& what) {
  if (!value.is_array()) {
    throw ModelError(what + ": expected an array of reals");
  }
  std::vector<double> out;
  out.reserve(value.as_array().size());
  for (const JsonValue& item : value.as_array()) {
    out.push_back(real_from_json(item, what));
  }
  return out;
}

void reals_into(const JsonValue& value, std::span<double> out, const std::string& what) {
  const std::vector<double> parsed = reals_from_json(value, what);
  if (parsed.size() != out.size()) {
    throw ModelError(what + ": expected " + std::to_string(out.size()) + " reals, got " +
                     std::to_string(parsed.size()));
  }
  std::copy(parsed.begin(), parsed.end(), out.begin());
}

JsonValue matrix_to_json(const linalg::Matrix& m) {
  JsonValue object = JsonValue::make_object();
  object.set("rows", JsonValue(static_cast<double>(m.rows())));
  object.set("cols", JsonValue(static_cast<double>(m.cols())));
  object.set("data", reals_to_json(std::span<const double>(m.data(), m.rows() * m.cols())));
  return object;
}

linalg::Matrix matrix_from_json(const JsonValue& value, const std::string& what) {
  if (!value.is_object()) {
    throw ModelError(what + ": expected a matrix object");
  }
  check_state_keys(value, what, {"rows", "cols", "data"});
  const std::size_t rows = index_from_json(require_key(value, what, "rows"), what + ".rows");
  const std::size_t cols = index_from_json(require_key(value, what, "cols"), what + ".cols");
  linalg::Matrix m(rows, cols);
  reals_into(require_key(value, what, "data"),
             std::span<double>(m.data(), rows * cols), what + ".data");
  return m;
}

JsonValue u64_to_json(std::uint64_t value) {
  // Exact-integer window of a double; larger counters go through a decimal
  // string (the spec layer's seed convention).
  if (value <= (std::uint64_t{1} << 53)) {
    return JsonValue(static_cast<double>(value));
  }
  return JsonValue(std::to_string(value));
}

std::uint64_t u64_from_json(const JsonValue& value, const std::string& what) {
  if (value.is_number()) {
    const double number = value.as_number();
    if (!(number >= 0.0) || number != std::floor(number) ||
        number > 9007199254740992.0 /* 2^53 */) {
      throw ModelError(what + ": expected an unsigned integer");
    }
    return static_cast<std::uint64_t>(number);
  }
  if (value.is_string()) {
    const std::string& text = value.as_string();
    if (text.empty()) {
      throw ModelError(what + ": empty integer string");
    }
    std::uint64_t result = 0;
    for (char c : text) {
      if (c < '0' || c > '9') {
        throw ModelError(what + ": malformed unsigned integer \"" + text + "\"");
      }
      const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
      if (result > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
        throw ModelError(what + ": unsigned integer overflow in \"" + text + "\"");
      }
      result = result * 10 + digit;
    }
    return result;
  }
  throw ModelError(what + ": expected an unsigned integer (number or decimal string)");
}

std::size_t index_from_json(const JsonValue& value, const std::string& what) {
  return static_cast<std::size_t>(u64_from_json(value, what));
}

bool bool_from_json(const JsonValue& value, const std::string& what) {
  if (!value.is_bool()) {
    throw ModelError(what + ": expected a boolean");
  }
  return value.as_bool();
}

JsonValue solver_stats_to_json(const core::SolverStats& stats) {
  JsonValue object = JsonValue::make_object();
  object.set("steps", u64_to_json(stats.steps));
  object.set("init_iterations", u64_to_json(stats.init_iterations));
  object.set("jacobian_builds", u64_to_json(stats.jacobian_builds));
  object.set("jacobian_reuses", u64_to_json(stats.jacobian_reuses));
  object.set("algebraic_solves", u64_to_json(stats.algebraic_solves));
  object.set("newton_iterations", u64_to_json(stats.newton_iterations));
  object.set("lu_factorisations", u64_to_json(stats.lu_factorisations));
  object.set("stability_recomputes", u64_to_json(stats.stability_recomputes));
  object.set("stability_reuses", u64_to_json(stats.stability_reuses));
  object.set("history_resets", u64_to_json(stats.history_resets));
  object.set("step_rejections", u64_to_json(stats.step_rejections));
  object.set("last_step", real_to_json(stats.last_step));
  object.set("min_step", real_to_json(stats.min_step));
  object.set("max_step", real_to_json(stats.max_step));
  return object;
}

core::SolverStats solver_stats_from_json(const JsonValue& value, const std::string& what) {
  if (!value.is_object()) {
    throw ModelError(what + ": expected a stats object");
  }
  check_state_keys(value, what,
                   {"steps", "init_iterations", "jacobian_builds", "jacobian_reuses",
                    "algebraic_solves", "newton_iterations", "lu_factorisations",
                    "stability_recomputes", "stability_reuses", "history_resets",
                    "step_rejections", "last_step", "min_step", "max_step"});
  core::SolverStats stats;
  stats.steps = u64_from_json(require_key(value, what, "steps"), what + ".steps");
  stats.init_iterations =
      u64_from_json(require_key(value, what, "init_iterations"), what + ".init_iterations");
  stats.jacobian_builds =
      u64_from_json(require_key(value, what, "jacobian_builds"), what + ".jacobian_builds");
  stats.jacobian_reuses =
      u64_from_json(require_key(value, what, "jacobian_reuses"), what + ".jacobian_reuses");
  stats.algebraic_solves =
      u64_from_json(require_key(value, what, "algebraic_solves"), what + ".algebraic_solves");
  stats.newton_iterations =
      u64_from_json(require_key(value, what, "newton_iterations"), what + ".newton_iterations");
  stats.lu_factorisations =
      u64_from_json(require_key(value, what, "lu_factorisations"), what + ".lu_factorisations");
  stats.stability_recomputes = u64_from_json(require_key(value, what, "stability_recomputes"),
                                             what + ".stability_recomputes");
  // Written since the linearisation cache; older checkpoints lack it and are
  // refused here, naming the key.
  stats.stability_reuses =
      u64_from_json(require_key(value, what, "stability_reuses"), what + ".stability_reuses");
  stats.history_resets =
      u64_from_json(require_key(value, what, "history_resets"), what + ".history_resets");
  stats.step_rejections =
      u64_from_json(require_key(value, what, "step_rejections"), what + ".step_rejections");
  stats.last_step = real_from_json(require_key(value, what, "last_step"), what + ".last_step");
  stats.min_step = real_from_json(require_key(value, what, "min_step"), what + ".min_step");
  stats.max_step = real_from_json(require_key(value, what, "max_step"), what + ".max_step");
  return stats;
}

void check_state_keys(const JsonValue& value, const std::string& what,
                      std::initializer_list<const char*> allowed) {
  if (!value.is_object()) {
    throw ModelError(what + ": expected an object");
  }
  for (const auto& [key, member] : value.as_object()) {
    (void)member;
    bool known = false;
    for (const char* candidate : allowed) {
      if (key == candidate) {
        known = true;
        break;
      }
    }
    if (!known) {
      throw ModelError(what + ": unknown key \"" + key + "\"");
    }
  }
}

const JsonValue& require_key(const JsonValue& value, const std::string& what, const char* key) {
  const JsonValue* member = value.find(key);
  if (member == nullptr) {
    throw ModelError(what + ": missing key \"" + key + "\"");
  }
  return *member;
}

}  // namespace ehsim::io
