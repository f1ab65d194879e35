# Runs one example binary and fails unless it exits 0 and its stdout
# matches the committed golden file byte for byte. Invoked by ctest;
# see examples/CMakeLists.txt.

foreach(var EXAMPLE GOLDEN WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} is required")
    endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})
get_filename_component(name ${EXAMPLE} NAME)
set(out ${WORK_DIR}/${name}.out)

execute_process(COMMAND ${EXAMPLE} OUTPUT_FILE ${out}
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${name} exited '${status}'")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${out} ${GOLDEN}
    RESULT_VARIABLE differ)
if(differ)
    message(FATAL_ERROR "${name} stdout (${out}) differs from ${GOLDEN}")
endif()
