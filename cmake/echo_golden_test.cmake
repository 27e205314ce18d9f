# Canonical-spec golden test: `ehsim echo` every checked-in spec and
# byte-compare the output against tests/golden/echo/<file>. This pins key
# order, number formatting and which defaults the spec writer omits — the
# lossless round-trip tests compare parsed values only.
#
# Required -D variables: EHSIM (binary), SOURCE_DIR (repository root),
# OUT_DIR (scratch directory for the echoed files).

foreach(required EHSIM SOURCE_DIR OUT_DIR)
  if(NOT DEFINED ${required})
    message(FATAL_ERROR "echo_golden_test.cmake: missing -D${required}")
  endif()
endforeach()

file(MAKE_DIRECTORY ${OUT_DIR})
file(GLOB specs ${SOURCE_DIR}/examples/specs/*.json ${SOURCE_DIR}/tests/golden/golden_*.json)
set(failures 0)
foreach(spec ${specs})
  get_filename_component(name ${spec} NAME)
  set(expected ${SOURCE_DIR}/tests/golden/echo/${name})
  if(NOT EXISTS ${expected})
    message(SEND_ERROR "no echo golden for ${spec} (expected ${expected})")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  execute_process(
    COMMAND ${EHSIM} echo ${spec}
    OUTPUT_FILE ${OUT_DIR}/${name}
    RESULT_VARIABLE echo_rc)
  if(NOT echo_rc EQUAL 0)
    message(SEND_ERROR "ehsim echo ${spec} failed (${echo_rc})")
    math(EXPR failures "${failures} + 1")
    continue()
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${expected} ${OUT_DIR}/${name}
    RESULT_VARIABLE cmp_rc)
  if(NOT cmp_rc EQUAL 0)
    message(SEND_ERROR "ehsim echo ${name} differs from ${expected}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

list(LENGTH specs count)
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} of ${count} echoed specs differ from their goldens")
endif()
message(STATUS "echo output matches for ${count} specs")
