# Runs the Figure 5 and 6 sweeps with every simulation audited and
# fails unless each BENCH_<figure>.json is byte-identical to its
# committed baseline: attaching the cycle-conservation auditor may
# cost time, never a byte (docs/TRACE.md). Invoked by ctest; see
# tests/CMakeLists.txt.

foreach(var RRBENCH BASELINE_DIR WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} is required")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})

execute_process(
    COMMAND ${RRBENCH} --filter fig5_cache --filter fig6_sync --fast
        --jobs 2 --quiet --audit --out-dir ${WORK_DIR}
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "rrbench --audit failed with status ${status}")
endif()

foreach(figure fig5_cache fig6_sync)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/BENCH_${figure}.json
            ${BASELINE_DIR}/BENCH_${figure}.json
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR
            "audited BENCH_${figure}.json differs from its baseline")
    endif()
endforeach()
