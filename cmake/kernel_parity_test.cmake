# Batch-kernel parity test: every checked-in spec given on the command line
# runs under both batch kernel ids at 1 and 4 threads, and every result,
# trace and ensemble file must equal the `jobs` kernel's single-thread
# output bit for bit (--rtol 0 --atol 0), ignoring only cpu_seconds (wall
# clock) and shared_diode_table (which job builds the shared table depends
# on scheduling).
#
# Required -D variables: EHSIM (binary), SPECS (;-list of "verb=spec.json"
# pairs, verb one of run | ensemble), OUT_DIR (scratch directory).

foreach(required EHSIM SPECS OUT_DIR)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "kernel_parity_test.cmake: missing -D${required}")
  endif()
endforeach()

file(REMOVE_RECURSE ${OUT_DIR})
set(failures 0)
set(compared 0)
foreach(entry ${SPECS})
  string(REPLACE "=" ";" parts ${entry})
  list(GET parts 0 verb)
  list(GET parts 1 spec)
  get_filename_component(stem ${spec} NAME_WE)
  foreach(run jobs-1 jobs-4 lockstep-1 lockstep-4)
    string(REPLACE "-" ";" knobs ${run})
    list(GET knobs 0 kernel)
    list(GET knobs 1 threads)
    execute_process(
      COMMAND ${EHSIM} ${verb} ${spec} --batch-kernel ${kernel} --threads ${threads}
              --out ${OUT_DIR}/${stem}/${run} --quiet
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "ehsim ${verb} ${spec} --batch-kernel ${kernel} --threads ${threads} "
                          "failed (${rc})")
    endif()
  endforeach()
  file(GLOB reference RELATIVE ${OUT_DIR}/${stem}/jobs-1 ${OUT_DIR}/${stem}/jobs-1/*)
  if(NOT reference)
    message(FATAL_ERROR "ehsim ${verb} ${spec} wrote no files")
  endif()
  foreach(run jobs-4 lockstep-1 lockstep-4)
    file(GLOB written RELATIVE ${OUT_DIR}/${stem}/${run} ${OUT_DIR}/${stem}/${run}/*)
    if(NOT written STREQUAL reference)
      message(SEND_ERROR "${stem} ${run} wrote other files than jobs-1")
      math(EXPR failures "${failures} + 1")
    endif()
    foreach(name ${reference})
      execute_process(
        COMMAND ${EHSIM} compare ${OUT_DIR}/${stem}/jobs-1/${name} ${OUT_DIR}/${stem}/${run}/${name}
                --rtol 0 --atol 0 --ignore cpu_seconds,shared_diode_table
        RESULT_VARIABLE cmp_rc)
      math(EXPR compared "${compared} + 1")
      if(NOT cmp_rc EQUAL 0)
        message(SEND_ERROR "${stem} ${run}/${name} differs from jobs-1")
        math(EXPR failures "${failures} + 1")
      endif()
    endforeach()
  endforeach()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} of ${compared} files differ between the batch kernels")
endif()
message(STATUS "${compared} files identical across batch kernels and thread counts")
