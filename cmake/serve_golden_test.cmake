# Serve-daemon determinism golden: drive `ehsim serve` end to end with a
# scripted session covering every job verb (run x2, sweep, optimise,
# ensemble, accuracy, autotune, stats, shutdown), then assert that every file
# the daemon wrote is BIT-IDENTICAL (rtol 0, atol 0) to the one-shot
# `ehsim <verb>` twin of the same spec — ignoring only the run-dependent
# key cpu_seconds (CSV traces are compared with no ignores) — and that the
# daemon exits 0 with no error events. Both sides run serve::execute, so
# this is the end-to-end gate for the shared executor.
#
# Required -D variables: EHSIM (binary), SPEC_DIR (checked-in specs:
# golden_charging.json, golden_serve_sweep.json, golden_optimise.json,
# golden_ensemble.json, golden_autotune.json), OUT_DIR (scratch).

foreach(required EHSIM SPEC_DIR OUT_DIR)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "serve_golden_test.cmake: missing -D${required}")
  endif()
endforeach()

set(ONESHOT_DIR ${OUT_DIR}/oneshot)
set(SERVE_DIR ${OUT_DIR}/serve)
file(REMOVE_RECURSE ${ONESHOT_DIR} ${SERVE_DIR})
file(MAKE_DIRECTORY ${ONESHOT_DIR} ${SERVE_DIR})

# ---- one-shot reference runs -----------------------------------------------
foreach(job
    "run;golden_charging.json"
    "sweep;golden_serve_sweep.json"
    "optimise;golden_optimise.json"
    "ensemble;golden_ensemble.json"
    "verify-accuracy;golden_charging.json"
    "autotune;golden_autotune.json")
  list(GET job 0 verb)
  list(GET job 1 spec)
  execute_process(
    COMMAND ${EHSIM} ${verb} ${SPEC_DIR}/${spec} --out ${ONESHOT_DIR} --quiet
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "one-shot ${verb} ${spec} failed (${rc})")
  endif()
endforeach()

# ---- scripted daemon session -----------------------------------------------
set(SCRIPT ${OUT_DIR}/serve_script.ndjson)
file(WRITE ${SCRIPT} "\
{\"id\": 1, \"type\": \"run\", \"spec_path\": \"${SPEC_DIR}/golden_charging.json\"}
{\"id\": 2, \"type\": \"run\", \"spec_path\": \"${SPEC_DIR}/golden_charging.json\"}
{\"id\": 3, \"type\": \"sweep\", \"spec_path\": \"${SPEC_DIR}/golden_serve_sweep.json\"}
{\"id\": 4, \"type\": \"optimise\", \"spec_path\": \"${SPEC_DIR}/golden_optimise.json\"}
{\"id\": 5, \"type\": \"ensemble\", \"spec_path\": \"${SPEC_DIR}/golden_ensemble.json\"}
{\"id\": 6, \"type\": \"accuracy\", \"spec_path\": \"${SPEC_DIR}/golden_charging.json\"}
{\"id\": 7, \"type\": \"autotune\", \"spec_path\": \"${SPEC_DIR}/golden_autotune.json\"}
{\"id\": 8, \"type\": \"stats\"}
{\"id\": 9, \"type\": \"shutdown\"}
")

execute_process(
  COMMAND ${EHSIM} serve --script ${SCRIPT} --out ${SERVE_DIR}
  OUTPUT_VARIABLE events
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ehsim serve exited ${rc}")
endif()

if(events MATCHES "\"event\":\"error\"")
  message(FATAL_ERROR "serve session emitted an error event:\n${events}")
endif()
if(NOT events MATCHES "\"event\":\"shutdown\"")
  message(FATAL_ERROR "serve session never acknowledged shutdown:\n${events}")
endif()

# ---- bit-identity: every daemon file equals its one-shot twin --------------
file(GLOB reference_files RELATIVE ${ONESHOT_DIR} ${ONESHOT_DIR}/*)
file(GLOB served_files RELATIVE ${SERVE_DIR} ${SERVE_DIR}/*)
if(NOT reference_files STREQUAL served_files)
  message(FATAL_ERROR "daemon wrote ${served_files}, one-shots wrote ${reference_files}")
endif()
list(LENGTH reference_files reference_count)
foreach(suffix .result.json .trace.csv .optimise.json .ensemble.json .accuracy.json
        .autotune.json)
  if(NOT reference_files MATCHES "\\${suffix}")
    message(FATAL_ERROR "no ${suffix} file among ${reference_files}")
  endif()
endforeach()
foreach(name ${reference_files})
  if(name MATCHES "\\.csv$")
    set(ignore_args "")
  else()
    set(ignore_args --ignore cpu_seconds)
  endif()
  execute_process(
    COMMAND ${EHSIM} compare ${ONESHOT_DIR}/${name} ${SERVE_DIR}/${name}
            --rtol 0 --atol 0 ${ignore_args}
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serve result ${name} is not bit-identical to the one-shot")
  endif()
endforeach()

message(STATUS "serve session bit-identical to one-shots across ${reference_count} files")
