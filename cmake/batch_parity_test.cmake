# Batch parity test: every checked-in spec given on the command line runs as
# a batch at 1 and 4 threads, and every result, trace and ensemble file must
# equal its reference bit for bit (--rtol 0 --atol 0), ignoring only
# cpu_seconds (wall clock). Per verb:
#   run        a sweep's reference is the per-job path of a checkpointed run
#              whose cadence lies beyond the span, so no job forks there;
#              plain runs at 1 and 4 threads must equal it;
#   checkpoint the sweep checkpointed at CHECKPOINT_EVERY at 1 thread is the
#              reference; the same at 4 threads, and a 4-thread run killed
#              by --abort-after-checkpoints 1 (exit 3, no result files) and
#              then resumed, must equal it;
#   ensemble   which has no checkpoint options, is compared across thread
#              counts.
#
# Required -D variables: EHSIM (binary), SPECS (;-list of "verb=spec.json"
# pairs, verb one of run | checkpoint | ensemble), OUT_DIR (scratch
# directory). CHECKPOINT_EVERY is required by checkpoint entries.

foreach(required EHSIM SPECS OUT_DIR)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "batch_parity_test.cmake: missing -D${required}")
  endif()
endforeach()

# Run ehsim with ARGN and require exit code \p expected.
function(run_ehsim_expect expected)
  execute_process(COMMAND ${EHSIM} ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL expected)
    string(REPLACE ";" " " command "${ARGN}")
    message(FATAL_ERROR "ehsim ${command} exited ${rc}, expected ${expected}")
  endif()
endfunction()

function(run_ehsim)
  run_ehsim_expect(0 ${ARGN})
endfunction()

file(REMOVE_RECURSE ${OUT_DIR})
set(failures 0)
set(compared 0)
foreach(entry ${SPECS})
  string(REPLACE "=" ";" parts ${entry})
  list(GET parts 0 verb)
  list(GET parts 1 spec)
  get_filename_component(stem ${spec} NAME_WE)
  set(dir ${OUT_DIR}/${verb}-${stem})
  if(verb STREQUAL "run")
    run_ehsim(run ${spec} --threads 1 --checkpoint-every 1000
              --checkpoint-dir ${dir}/checkpoints --out ${dir}/reference --quiet)
    foreach(threads 1 4)
      run_ehsim(run ${spec} --threads ${threads} --out ${dir}/threads-${threads} --quiet)
    endforeach()
    set(reference_run reference)
    set(runs threads-1 threads-4)
  elseif(verb STREQUAL "checkpoint")
    if(NOT DEFINED CHECKPOINT_EVERY)
      message(FATAL_ERROR "batch_parity_test.cmake: checkpoint entries need "
                          "-DCHECKPOINT_EVERY")
    endif()
    set(every --checkpoint-every ${CHECKPOINT_EVERY})
    foreach(threads 1 4)
      run_ehsim(run ${spec} --threads ${threads} ${every}
                --checkpoint-dir ${dir}/checkpoints-${threads} --out ${dir}/threads-${threads}
                --quiet)
    endforeach()
    run_ehsim_expect(3 run ${spec} --threads 4 ${every} --abort-after-checkpoints 1
                     --checkpoint-dir ${dir}/checkpoints-killed --out ${dir}/killed --quiet)
    file(GLOB killed_files ${dir}/killed/*)
    if(killed_files)
      message(SEND_ERROR "${stem}: the killed run wrote ${killed_files}")
      math(EXPR failures "${failures} + 1")
    endif()
    run_ehsim(resume ${spec} --threads 4 ${every} --checkpoint-dir ${dir}/checkpoints-killed
              --out ${dir}/resumed --quiet)
    set(reference_run threads-1)
    set(runs threads-4 resumed)
  else()
    foreach(threads 1 4)
      run_ehsim(${verb} ${spec} --threads ${threads} --out ${dir}/threads-${threads} --quiet)
    endforeach()
    set(reference_run threads-1)
    set(runs threads-4)
  endif()
  file(GLOB reference RELATIVE ${dir}/${reference_run} ${dir}/${reference_run}/*)
  if(NOT reference)
    message(FATAL_ERROR "ehsim ${verb} ${spec} wrote no files")
  endif()
  foreach(run ${runs})
    file(GLOB written RELATIVE ${dir}/${run} ${dir}/${run}/*)
    if(NOT written STREQUAL reference)
      message(SEND_ERROR "${verb}-${stem} ${run} wrote other files than ${reference_run}")
      math(EXPR failures "${failures} + 1")
    endif()
    foreach(name ${reference})
      execute_process(
        COMMAND ${EHSIM} compare ${dir}/${reference_run}/${name} ${dir}/${run}/${name}
                --rtol 0 --atol 0 --ignore cpu_seconds
        RESULT_VARIABLE cmp_rc)
      math(EXPR compared "${compared} + 1")
      if(NOT cmp_rc EQUAL 0)
        message(SEND_ERROR "${verb}-${stem} ${run}/${name} differs from ${reference_run}")
        math(EXPR failures "${failures} + 1")
      endif()
    endforeach()
  endforeach()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} of ${compared} files differ from their reference")
endif()
message(STATUS "${compared} files identical to their reference")
