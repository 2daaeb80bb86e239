# ctest script: a damaged trace file is rejected by name. Capture a
# small trace with tlsim, flip one bit in the middle of the file, and
# expect `tlsim info` and `tlsim check` each to exit non-zero with a
# stderr line that names the file and the digest mismatch.
#
# Inputs: -DTLSIM=<exe> -DPYTHON=<exe> -DTRACE=<path>

execute_process(
    COMMAND ${TLSIM} capture --benchmark=NEW_ORDER --quick --txns=2
            --out=${TRACE}
    OUTPUT_QUIET ERROR_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "tlsim capture failed (exit ${rc})")
endif()

execute_process(
    COMMAND ${PYTHON} -c
            "import sys; p = sys.argv[1]; b = bytearray(open(p, 'rb').read()); b[len(b) // 2] ^= 1; open(p, 'wb').write(b)"
            ${TRACE}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "could not flip a bit of ${TRACE}")
endif()

foreach(cmd info check)
    execute_process(
        COMMAND ${TLSIM} ${cmd} --trace=${TRACE}
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(rc EQUAL 0)
        file(REMOVE ${TRACE})
        message(FATAL_ERROR "tlsim ${cmd} accepted a damaged trace")
    endif()
    string(FIND "${err}" "${TRACE}: digest mismatch" at)
    if(at EQUAL -1)
        file(REMOVE ${TRACE})
        message(FATAL_ERROR "tlsim ${cmd} failed without naming the "
                "file and the digest mismatch; stderr:\n${err}")
    endif()
endforeach()
file(REMOVE ${TRACE})
