# ReproUsage: smthill_repro must refuse an unknown figure id, and a
# one-file export (SMTHILL_STATS_JSON) asked of more than one figure.
# Each case must exit non-zero; its output is echoed only then, so
# the test's PASS_REGULAR_EXPRESSION sees both messages only when
# both cases were refused.
#
#   cmake -DREPRO=<smthill_repro> -P repro_usage.cmake
execute_process(COMMAND ${REPRO} fig02 nosuch
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(status EQUAL 0)
    message(FATAL_ERROR "an unknown figure id was accepted")
endif()
message("${out}${err}")

execute_process(COMMAND ${CMAKE_COMMAND} -E env SMTHILL_STATS_JSON=unused.json
                        ${REPRO} tab03 fig02
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(status EQUAL 0)
    message(FATAL_ERROR "SMTHILL_STATS_JSON was accepted for two figures")
endif()
message("${out}${err}")
