# ReproUsage: smthill_repro must refuse an unknown figure id, a
# one-file export (SMTHILL_STATS_JSON) asked of more than one figure,
# and a size knob of 0 (SMTHILL_EPOCHS used to print nan cells,
# SMTHILL_SURFACE_STEP=0 to loop forever); smthill_cli must refuse
# epochs=0. Each case must exit non-zero; its output is echoed only
# then, so the test's PASS_REGULAR_EXPRESSION sees every message only
# when every case was refused.
#
#   cmake -DREPRO=<smthill_repro> -DCLI=<smthill_cli> -P repro_usage.cmake
function(expect_refused what)
    execute_process(COMMAND ${ARGN}
                    OUTPUT_VARIABLE out ERROR_VARIABLE err
                    RESULT_VARIABLE status)
    if(status EQUAL 0)
        message(FATAL_ERROR "${what} was accepted")
    endif()
    message("${out}${err}")
endfunction()

set(env ${CMAKE_COMMAND} -E env)
expect_refused("an unknown figure id" ${REPRO} fig02 nosuch)
expect_refused("SMTHILL_STATS_JSON for two figures"
               ${env} SMTHILL_STATS_JSON=unused.json ${REPRO} tab03 fig02)
expect_refused("SMTHILL_EPOCHS=0" ${env} SMTHILL_EPOCHS=0 ${REPRO} fig07)
expect_refused("SMTHILL_SURFACE_STEP=0"
               ${env} SMTHILL_SURFACE_STEP=0 ${REPRO} fig02)
expect_refused("smthill_cli epochs=0" ${CLI} epochs=0)
