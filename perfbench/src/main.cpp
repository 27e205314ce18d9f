/// \file main.cpp
/// \brief ehsim_perfbench: one workload, one measured run, one JSON verdict.
///
///   ehsim_perfbench --workload W --seed N --seconds S --trace 0|1
///
/// Prints an environment fingerprint line, a sample-statistics report line
/// and, last, {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics with --trace 0, the per-layer metrics of the traced pass with
/// --trace 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "io/json.hpp"
#include "stages.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using ehsim::io::JsonValue;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "ehsim_perfbench: %s\nusage: ehsim_perfbench --workload W --seed N "
               "--seconds S --trace 0|1\n  workloads:",
               problem.c_str());
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!have_seconds) usage("--seconds must be positive");
  return args;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

JsonValue environment() {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  JsonValue env = JsonValue::make_object();
  env.set("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  env.set("compiler", PERFBENCH_COMPILER);
  env.set("build_type", build_type);
  env.set("cpu_model", cpu_model());
  // Numbers from different build types or hosts are not comparable.
  env.set("comparable", build_type == "Release");
  if (build_type != "Release") {
    std::fprintf(stderr, "ehsim_perfbench: WARNING: %s build, timings are not comparable\n",
                 build_type.c_str());
  }
  return env;
}

JsonValue metrics_json(const perfbench::Metrics& metrics) {
  JsonValue json = JsonValue::make_object();
  for (const auto& entry : metrics.entries()) {
    JsonValue metric = JsonValue::make_object();
    metric.set("value", JsonValue::finite_or_null(entry.value));
    metric.set("unit", entry.unit);
    json.set(entry.name, std::move(metric));
  }
  return json;
}

JsonValue samples_json(const perfbench::Samples& samples) {
  JsonValue json = JsonValue::make_object();
  for (const auto& [name, values] : samples) {
    JsonValue entry = JsonValue::make_object();
    entry.set("n", static_cast<double>(values.size()));
    entry.set("min", perfbench::quantile(values, 0.0));
    entry.set("q1", perfbench::quantile(values, 0.25));
    entry.set("median", perfbench::quantile(values, 0.5));
    entry.set("q3", perfbench::quantile(values, 0.75));
    json.set(name, std::move(entry));
  }
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    const perfbench::WorkloadPlan plan = perfbench::make_plan(args.workload, args.seed);
    std::printf("%s\n", JsonValue(JsonValue::Object{{"environment", environment()}}).dump(-1).c_str());
    const perfbench::WorkloadResult result =
        perfbench::run_workload(plan, args.seconds, args.trace);

    JsonValue report = JsonValue::make_object();
    report.set("workload", plan.name);
    report.set("seed", static_cast<double>(args.seed));
    report.set("rounds", static_cast<double>(result.rounds));
    report.set("threads", static_cast<double>(plan.threads));
    report.set("samples", samples_json(result.samples));
    if (args.trace) report.set("end_to_end", metrics_json(result.end_to_end));
    std::printf("%s\n", JsonValue(JsonValue::Object{{"report", report}}).dump(-1).c_str());

    JsonValue verdict = JsonValue::make_object();
    verdict.set("correct", result.checks.failed() == 0);
    verdict.set("attempted", static_cast<double>(result.checks.attempted()));
    verdict.set("failed", static_cast<double>(result.checks.failed()));
    verdict.set("metrics", metrics_json(args.trace ? result.per_layer : result.end_to_end));
    std::printf("%s\n", verdict.dump(-1).c_str());
    return 0;
  } catch (const std::invalid_argument& error) {
    usage(error.what());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ehsim_perfbench: %s\n", error.what());
    return 1;
  }
}
