# Runs every figure's fast sweep and fails unless each
# BENCH_<figure>.json is byte-identical to its committed baseline: a
# change may only move the clock, never a byte of any figure's --fast
# output (docs/PERF.md). The baselines directory is the one list of
# figures; the perf microbenchmarks (BENCH_perf_*), which rrbench
# writes only under --perf, are skipped. A figure written without a
# baseline fails too. Invoked by ctest (tests/CMakeLists.txt) and by
# CI's bench-smoke job:
#
#   cmake -DRRBENCH=build/tools/rrbench -DBASELINE_DIR=bench/baselines \
#       -DWORK_DIR=bench-results -P tests/rrbench_baselines.cmake

foreach(var RRBENCH BASELINE_DIR WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} is required")
    endif()
    # Relative paths are taken from the working directory.
    get_filename_component(${var} "${${var}}" ABSOLUTE)
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})

execute_process(
    COMMAND ${RRBENCH} --fast --jobs 4 --quiet --out-dir ${WORK_DIR}
        --compare ${BASELINE_DIR} --tolerance 0.05
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "rrbench --fast failed with status ${status}")
endif()

file(GLOB baselines RELATIVE ${BASELINE_DIR} ${BASELINE_DIR}/BENCH_*.json)
file(GLOB outputs RELATIVE ${WORK_DIR} ${WORK_DIR}/BENCH_*.json)
set(checked 0)
foreach(name ${baselines})
    if(name MATCHES "^BENCH_perf_")
        continue()
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORK_DIR}/${name} ${BASELINE_DIR}/${name}
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR "${WORK_DIR}/${name} differs from its "
            "baseline (or is missing)")
    endif()
    math(EXPR checked "${checked} + 1")
endforeach()
if(checked EQUAL 0)
    message(FATAL_ERROR "no figure baselines under ${BASELINE_DIR}")
endif()
foreach(name ${outputs})
    if(NOT EXISTS ${BASELINE_DIR}/${name})
        message(FATAL_ERROR "${name} has no baseline in ${BASELINE_DIR}")
    endif()
endforeach()
message(STATUS "${checked} figures byte-identical to ${BASELINE_DIR}")
