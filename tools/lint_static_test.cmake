# ctest script for lint_static: run every static-analysis pass (T, A,
# D and P families, one parse) over the tree with the manifests
# required and --json, then validate the report with
# check_bench_json.py. Not -q: a failing run prints its diagnostics.
#
# Inputs: -DPYTHON=... -DSOURCE_DIR=... -DOUT=...

execute_process(
    COMMAND ${PYTHON} ${SOURCE_DIR}/tools/tlslint.py
            --root ${SOURCE_DIR} --require-manifests --json ${OUT}
    RESULT_VARIABLE lint_rc)
if(NOT lint_rc EQUAL 0)
    message(FATAL_ERROR "tlslint found violations (exit ${lint_rc})")
endif()

execute_process(
    COMMAND ${PYTHON} ${SOURCE_DIR}/tools/check_bench_json.py ${OUT}
    RESULT_VARIABLE check_rc)
if(NOT check_rc EQUAL 0)
    message(FATAL_ERROR
        "check_bench_json rejected the tlslint report (exit ${check_rc})")
endif()
