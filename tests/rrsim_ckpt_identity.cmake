# End-to-end rr.ckpt.v1 contract for rrsim (docs/CKPT.md): for every
# example program, a run that snapshots, "dies", and resumes in a
# fresh process must retrace the straight run exactly — the
# concatenated traces are byte-identical modulo the per-file
# "rr.trace.v1" header line, and the final-state JSON matches modulo
# the input path and per-process trace-event count. --rewind N must
# re-emit exactly the straight trace's last N events, and hostile
# checkpoint files must be rejected with exit 2 and an "rr.ckpt"
# message, never a crash. Invoked by ctest; see tests/CMakeLists.txt.

foreach(var RRSIM ASM_DIR WORK_DIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "${var} is required")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Drop the "rr.trace.v1" schema header (the first line) so trace
# bodies from separate processes can be concatenated and compared.
function(trace_body in out)
    file(READ ${in} content)
    string(FIND "${content}" "\n" header_end)
    if(header_end GREATER -1)
        math(EXPR body_start "${header_end} + 1")
        string(SUBSTRING "${content}" ${body_start} -1 content)
    endif()
    file(WRITE ${out} "${content}")
endfunction()

# Blank out the fields that legitimately differ between a straight
# run and a resumed one: the input path (program vs checkpoint) and
# the number of trace events this process emitted. Both the compact
# `"key":value` and the JSON writer's `"key": value` spacing match; the
# input pattern steps over escaped characters inside the string.
function(normalized_state in out)
    file(READ ${in} content)
    string(REGEX REPLACE "\"input\": ?\"([^\"\\\\]|\\\\.)*\""
        "\"input\": \"-\"" content "${content}")
    string(REGEX REPLACE "\"traceEvents\": ?[0-9]+" "\"traceEvents\": 0"
        content "${content}")
    file(WRITE ${out} "${content}")
endfunction()

function(must_match a b what)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b}
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR "${what}: ${a} and ${b} differ")
    endif()
endfunction()

file(GLOB programs ${ASM_DIR}/*.s)
list(SORT programs)
if(programs STREQUAL "")
    message(FATAL_ERROR "no example programs under ${ASM_DIR}")
endif()

foreach(program ${programs})
    get_filename_component(name ${program} NAME_WE)
    set(work ${WORK_DIR}/${name})

    # The oracle: one uninterrupted run.
    execute_process(
        COMMAND ${RRSIM} --trace=${work}.straight.jsonl --json
            ${program}
        OUTPUT_FILE ${work}.straight.json
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "rrsim failed on ${name} (straight run)")
    endif()
    trace_body(${work}.straight.jsonl ${work}.straight.body)
    normalized_state(${work}.straight.json ${work}.straight.norm)

    # Snapshot at several boundaries (including past-the-end for the
    # short programs), kill the process, resume fresh: the head and
    # tail traces must concatenate to the straight trace and the
    # final states must agree.
    foreach(split 7 64 100000)
        set(leg ${work}.s${split})
        execute_process(
            COMMAND ${RRSIM} --steps ${split}
                --checkpoint ${leg}.ckpt
                --trace=${leg}.head.jsonl --quiet ${program}
            RESULT_VARIABLE status)
        if(NOT status EQUAL 0)
            message(FATAL_ERROR
                "rrsim failed on ${name} (head, split ${split})")
        endif()
        execute_process(
            COMMAND ${RRSIM} --resume ${leg}.ckpt
                --trace=${leg}.tail.jsonl --json
            OUTPUT_FILE ${leg}.json
            RESULT_VARIABLE status)
        if(NOT status EQUAL 0)
            message(FATAL_ERROR
                "rrsim failed on ${name} (resume, split ${split})")
        endif()
        trace_body(${leg}.head.jsonl ${leg}.head.body)
        trace_body(${leg}.tail.jsonl ${leg}.tail.body)
        file(READ ${leg}.head.body head)
        file(READ ${leg}.tail.body tail)
        file(WRITE ${leg}.concat.body "${head}${tail}")
        must_match(${leg}.concat.body ${work}.straight.body
            "${name} split ${split}: head+tail trace vs straight")
        normalized_state(${leg}.json ${leg}.norm)
        must_match(${leg}.norm ${work}.straight.norm
            "${name} split ${split}: resumed final state")
    endforeach()

    # Flight-recorder rewind: the re-executed suffix must be exactly
    # the straight trace's last N events, ending in the same state.
    set(rewind 25)
    execute_process(
        COMMAND ${RRSIM} --rewind ${rewind}
            --trace=${work}.rewind.jsonl --json ${program}
        OUTPUT_FILE ${work}.rewind.json
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR "rrsim failed on ${name} (--rewind)")
    endif()
    trace_body(${work}.rewind.jsonl ${work}.rewind.body)
    file(STRINGS ${work}.straight.body straight_lines)
    list(LENGTH straight_lines total)
    if(total LESS rewind)
        set(keep ${total})
    else()
        set(keep ${rewind})
    endif()
    math(EXPR from "${total} - ${keep}")
    list(SUBLIST straight_lines ${from} ${keep} suffix_lines)
    if(keep EQUAL 0)
        file(WRITE ${work}.suffix.body "")
    else()
        list(JOIN suffix_lines "\n" suffix)
        file(WRITE ${work}.suffix.body "${suffix}\n")
    endif()
    must_match(${work}.rewind.body ${work}.suffix.body
        "${name}: --rewind ${rewind} trace vs straight suffix")
    normalized_state(${work}.rewind.json ${work}.rewind.norm)
    must_match(${work}.rewind.norm ${work}.straight.norm
        "${name}: --rewind final state")
endforeach()

# --rewind edge cases. The flight recorder snapshots every 1024
# instructions into a 64-deep ring, so two rewind targets need their
# own legs: N larger than the whole run, and N landing *before* the
# oldest surviving ring snapshot (only reachable once the ring has
# evicted, i.e. past 65 * 1024 executed instructions). Both must
# replay from the start and exit 0 — never fail, never clamp wrong.
function(must_match_suffix full part what)
    file(READ ${full} full_content)
    file(READ ${part} part_content)
    string(LENGTH "${full_content}" full_len)
    string(LENGTH "${part_content}" part_len)
    if(part_len GREATER full_len)
        message(FATAL_ERROR "${what}: suffix longer than the trace")
    endif()
    math(EXPR from "${full_len} - ${part_len}")
    string(SUBSTRING "${full_content}" ${from} -1 tail)
    if(NOT tail STREQUAL part_content)
        message(FATAL_ERROR "${what}: ${part} is not a suffix of "
            "${full}")
    endif()
endfunction()

# A two-instruction infinite loop, bounded by --steps: cheap to
# execute well past the point where the snapshot ring starts
# evicting its oldest entries.
set(longloop ${WORK_DIR}/longloop.s)
file(WRITE ${longloop} "entry:
loop:
    addi  r1, r1, 1
    beq   r0, r0, loop
")
set(long_steps 67000)
execute_process(
    COMMAND ${RRSIM} --steps ${long_steps}
        --trace=${WORK_DIR}/longloop.straight.jsonl --json
        ${longloop}
    OUTPUT_FILE ${WORK_DIR}/longloop.straight.json
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "rrsim failed on longloop (straight run)")
endif()
trace_body(${WORK_DIR}/longloop.straight.jsonl
    ${WORK_DIR}/longloop.straight.body)
normalized_state(${WORK_DIR}/longloop.straight.json
    ${WORK_DIR}/longloop.straight.norm)

# Leg 1: N > executed instructions. The whole run is re-executed
# from the initial state and the full trace re-emitted.
# Leg 2: N inside the run but before the oldest ring snapshot
# (target 1000 < the post-eviction ring floor of 2048): the recorder
# must fall back to the initial snapshot and replay from the start.
foreach(rewind 100000 66000)
    set(leg ${WORK_DIR}/longloop.r${rewind})
    execute_process(
        COMMAND ${RRSIM} --steps ${long_steps} --rewind ${rewind}
            --trace=${leg}.jsonl --json ${longloop}
        OUTPUT_FILE ${leg}.json
        RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
        message(FATAL_ERROR
            "rrsim --rewind ${rewind} on longloop: expected exit 0, "
            "got '${status}'")
    endif()
    trace_body(${leg}.jsonl ${leg}.body)
    must_match_suffix(${WORK_DIR}/longloop.straight.body ${leg}.body
        "longloop --rewind ${rewind}: trace vs straight suffix")
    normalized_state(${leg}.json ${leg}.norm)
    must_match(${leg}.norm ${WORK_DIR}/longloop.straight.norm
        "longloop --rewind ${rewind}: final state")
endforeach()

# Leg 1 specifically promises the *entire* trace back, not just some
# suffix: with N past the end the replay starts at instruction 0.
must_match(${WORK_DIR}/longloop.r100000.body
    ${WORK_DIR}/longloop.straight.body
    "longloop --rewind past the end: full trace re-emitted")

# And on a program that halts almost immediately, an oversized N
# must still exit 0 with the complete trace.
list(GET programs 0 first_short)
get_filename_component(short_name ${first_short} NAME_WE)
set(leg ${WORK_DIR}/${short_name}.rbig)
execute_process(
    COMMAND ${RRSIM} --rewind 1000000 --trace=${leg}.jsonl --json
        ${first_short}
    OUTPUT_FILE ${leg}.json
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR
        "rrsim --rewind 1000000 on ${short_name}: expected exit 0, "
        "got '${status}'")
endif()
trace_body(${leg}.jsonl ${leg}.body)
must_match(${leg}.body ${WORK_DIR}/${short_name}.straight.body
    "${short_name} --rewind 1000000: full trace re-emitted")
normalized_state(${leg}.json ${leg}.norm)
must_match(${leg}.norm ${WORK_DIR}/${short_name}.straight.norm
    "${short_name} --rewind 1000000: final state")

# Hostile checkpoints: a text file, an empty file, and a valid
# document with trailing garbage must all be rejected with exit 2
# and an rr.ckpt error — never a crash or an abort.
list(GET programs 0 first_program)
set(valid ${WORK_DIR}/hostile.valid.ckpt)
execute_process(
    COMMAND ${RRSIM} --steps 7 --checkpoint ${valid} --quiet
        ${first_program}
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "could not produce a hostile-test checkpoint")
endif()

file(WRITE ${WORK_DIR}/hostile.empty.ckpt "")
configure_file(${valid} ${WORK_DIR}/hostile.trailing.ckpt COPYONLY)
file(APPEND ${WORK_DIR}/hostile.trailing.ckpt "trailing garbage")

foreach(hostile ${first_program} ${WORK_DIR}/hostile.empty.ckpt
        ${WORK_DIR}/hostile.trailing.ckpt)
    execute_process(
        COMMAND ${RRSIM} --resume ${hostile} --quiet
        RESULT_VARIABLE status
        ERROR_VARIABLE stderr)
    if(NOT status EQUAL 2)
        message(FATAL_ERROR
            "--resume ${hostile}: expected exit 2, got '${status}'")
    endif()
    if(NOT stderr MATCHES "rr\\.ckpt")
        message(FATAL_ERROR
            "--resume ${hostile}: stderr lacks an rr.ckpt error: "
            "${stderr}")
    endif()
endforeach()
