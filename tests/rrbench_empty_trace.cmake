# Asks for a trace of fig4_costs, whose figure is closed form and
# emits no events, and fails unless rrbench exits 2, names the figure
# on stderr and writes no TRACE_fig4_costs.json (docs/TRACE.md).
# Invoked by ctest; see tests/CMakeLists.txt.

foreach(var RRBENCH WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} is required")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})

execute_process(
    COMMAND ${RRBENCH} --filter fig4_costs --fast --quiet
        --trace-figure fig4_costs --out-dir ${WORK_DIR}
    RESULT_VARIABLE status
    ERROR_VARIABLE err)
if(NOT status EQUAL 2)
    message(FATAL_ERROR "expected exit 2, got '${status}'")
endif()
if(NOT err MATCHES "trace: fig4_costs emitted no events")
    message(FATAL_ERROR "missing diagnostic; stderr was: ${err}")
endif()
if(EXISTS ${WORK_DIR}/TRACE_fig4_costs.json)
    message(FATAL_ERROR "an empty trace file was written")
endif()
