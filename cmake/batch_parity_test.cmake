# Batch parity test: every checked-in spec given on the command line runs as
# a batch at 1 and 4 threads, and every result, trace and ensemble file must
# equal its reference bit for bit (--rtol 0 --atol 0), ignoring only
# cpu_seconds (wall clock) and shared_diode_table (which job builds the
# shared table depends on scheduling). A sweep's reference is the per-job
# path of a checkpointed run whose cadence lies beyond the span, so no job
# forks there; an ensemble, which has no checkpoint options, is compared
# across thread counts.
#
# Required -D variables: EHSIM (binary), SPECS (;-list of "verb=spec.json"
# pairs, verb one of run | ensemble), OUT_DIR (scratch directory).

foreach(required EHSIM SPECS OUT_DIR)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "batch_parity_test.cmake: missing -D${required}")
  endif()
endforeach()

function(run_ehsim)
  execute_process(COMMAND ${EHSIM} ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " command "${ARGN}")
    message(FATAL_ERROR "ehsim ${command} failed (${rc})")
  endif()
endfunction()

file(REMOVE_RECURSE ${OUT_DIR})
set(failures 0)
set(compared 0)
foreach(entry ${SPECS})
  string(REPLACE "=" ";" parts ${entry})
  list(GET parts 0 verb)
  list(GET parts 1 spec)
  get_filename_component(stem ${spec} NAME_WE)
  set(dir ${OUT_DIR}/${stem})
  if(verb STREQUAL "run")
    run_ehsim(run ${spec} --threads 1 --checkpoint-every 1000
              --checkpoint-dir ${dir}/checkpoints --out ${dir}/reference --quiet)
    set(runs threads-1 threads-4)
  else()
    set(runs threads-4)
  endif()
  foreach(threads 1 4)
    run_ehsim(${verb} ${spec} --threads ${threads} --out ${dir}/threads-${threads} --quiet)
  endforeach()
  if(verb STREQUAL "run")
    set(reference_run reference)
  else()
    set(reference_run threads-1)
  endif()
  file(GLOB reference RELATIVE ${dir}/${reference_run} ${dir}/${reference_run}/*)
  if(NOT reference)
    message(FATAL_ERROR "ehsim ${verb} ${spec} wrote no files")
  endif()
  foreach(run ${runs})
    file(GLOB written RELATIVE ${dir}/${run} ${dir}/${run}/*)
    if(NOT written STREQUAL reference)
      message(SEND_ERROR "${stem} ${run} wrote other files than ${reference_run}")
      math(EXPR failures "${failures} + 1")
    endif()
    foreach(name ${reference})
      execute_process(
        COMMAND ${EHSIM} compare ${dir}/${reference_run}/${name} ${dir}/${run}/${name}
                --rtol 0 --atol 0 --ignore cpu_seconds,shared_diode_table
        RESULT_VARIABLE cmp_rc)
      math(EXPR compared "${compared} + 1")
      if(NOT cmp_rc EQUAL 0)
        message(SEND_ERROR "${stem} ${run}/${name} differs from ${reference_run}")
        math(EXPR failures "${failures} + 1")
      endif()
    endforeach()
  endforeach()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} of ${compared} files differ from their reference")
endif()
message(STATUS "${compared} files identical to their reference at 1 and 4 threads")
