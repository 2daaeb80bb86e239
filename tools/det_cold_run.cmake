# ctest script for the cross-process reproducibility gates: run one
# bench cold, in a process of its own with a fresh, empty trace cache,
# and keep its stdout and JSON report for a later comparison. With
# -DPAD=ON the bench runs under an environment padded by 4 KB (which
# moves its stack and heap). With -DGOLDEN=FILE the report's
# determinism stage digests must equal the constants FILE records
# under -DKEY: captures hold synthetic addresses only, so a cold run
# reproduces them in any process.
#
# Inputs: -DBENCH=<exe> -DARGS=<;-list> -DWORK=<dir> -DTAG=<name>
#         [-DPAD=ON] [-DGOLDEN=<json> -DKEY=<name>]

set(cache ${WORK}/${TAG}-tc)
file(REMOVE_RECURSE ${cache})
file(MAKE_DIRECTORY ${WORK})
set(cmd ${BENCH} ${ARGS} --det-probe --trace-cache=${cache}
        --json=${WORK}/${TAG}.json)
if(PAD)
    string(REPEAT "x" 4096 pad)
    set(cmd ${CMAKE_COMMAND} -E env TLSIM_DET_PAD=${pad} ${cmd})
endif()
execute_process(COMMAND ${cmd}
    OUTPUT_FILE ${WORK}/${TAG}.out
    RESULT_VARIABLE rc)
file(REMOVE_RECURSE ${cache})
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${ARGS} failed (exit ${rc})")
endif()

if(GOLDEN)
    file(READ ${WORK}/${TAG}.json report)
    file(READ ${GOLDEN} golden)
    string(JSON want GET "${golden}" ${KEY})
    string(JSON count LENGTH "${want}")
    if(count EQUAL 0)
        message(FATAL_ERROR "${GOLDEN} records no digests for ${KEY}")
    endif()
    math(EXPR last "${count} - 1")
    set(bad "")
    foreach(i RANGE ${last})
        string(JSON stage MEMBER "${want}" ${i})
        string(JSON expect GET "${want}" ${stage})
        string(JSON got ERROR_VARIABLE err
               GET "${report}" determinism stages ${stage})
        if(NOT got STREQUAL expect)
            string(APPEND bad "\n  ${stage}: got '${got}', want ${expect}")
        endif()
    endforeach()
    if(bad)
        message(FATAL_ERROR "${KEY}: cold digests differ from ${GOLDEN}:"
                "${bad}")
    endif()
endif()
