# Runs rrsim over the example programs (examples/asm and examples/os)
# twice — with the predecoded instruction cache forced off
# (RR_CPU_PREDECODE=0, the decode-per-step reference) and on (run()
# executes cached superblocks) — and fails unless the structured
# traces and final-state JSON dumps are byte-identical: the cache and
# the superblock engine must be architecturally invisible
# (docs/PERF.md). Invoked by ctest; see tests/CMakeLists.txt.

foreach(var RRSIM EXAMPLES_DIR WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} is required")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

file(GLOB programs ${EXAMPLES_DIR}/asm/*.s ${EXAMPLES_DIR}/os/*.s)
list(SORT programs)
if(programs STREQUAL "")
    message(FATAL_ERROR "no example programs under ${EXAMPLES_DIR}")
endif()

foreach(program ${programs})
    get_filename_component(name ${program} NAME_WE)
    get_filename_component(dir ${program} DIRECTORY)
    get_filename_component(group ${dir} NAME)
    set(name ${group}-${name})
    foreach(leg off on)
        if(leg STREQUAL "off")
            set(predecode 0)
        else()
            set(predecode 1)
        endif()
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E env RR_CPU_PREDECODE=${predecode}
                ${RRSIM} --trace=${WORK_DIR}/${name}.${leg}.jsonl
                --json ${program}
            OUTPUT_FILE ${WORK_DIR}/${name}.${leg}.json
            RESULT_VARIABLE status)
        if(NOT status EQUAL 0)
            message(FATAL_ERROR
                "rrsim failed on ${name} (predecode ${leg})")
        endif()
    endforeach()
    foreach(ext jsonl json)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORK_DIR}/${name}.off.${ext}
                ${WORK_DIR}/${name}.on.${ext}
            RESULT_VARIABLE diff)
        if(NOT diff EQUAL 0)
            message(FATAL_ERROR
                "${name}: ${ext} output differs between the uncached "
                "run and superblocks")
        endif()
    endforeach()
endforeach()
