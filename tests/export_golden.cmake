# ExportGolden: run smthill_cli on a short art-mcf HILL-WIPC run and
# compare every versioned export, byte for byte, against its golden
# file: the stats document (which embeds smthill.report.v1), the
# smthill.epoch-trace.v1 trace as JSON and CSV, and the
# smthill.events.v1 trace as Perfetto JSON and JSONL.
#
#   cmake -DCLI=<smthill_cli> -DGOLDEN_DIR=<golden dir>
#         -DOUT_DIR=<scratch dir> -P export_golden.cmake
set(run workload=art-mcf policy=hill-wipc epochs=4 warmup=20000)
set(prefix export_art_mcf_hill_)
file(MAKE_DIRECTORY ${OUT_DIR})

# One path per export key, so the two forms of each trace need two runs.
execute_process(
    COMMAND ${CLI} ${run} stats_json=${OUT_DIR}/${prefix}stats.json
            epoch_trace=${OUT_DIR}/${prefix}epochs.json
            event_trace=${OUT_DIR}/${prefix}events.json
    OUTPUT_QUIET
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "smthill_cli (json exports) exited with ${status}")
endif()
execute_process(
    COMMAND ${CLI} ${run} epoch_trace=${OUT_DIR}/${prefix}epochs.csv
            event_trace=${OUT_DIR}/${prefix}events.jsonl
    OUTPUT_QUIET
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "smthill_cli (csv/jsonl exports) exited with ${status}")
endif()

set(failed "")
foreach(name stats.json epochs.json epochs.csv events.json events.jsonl)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                ${OUT_DIR}/${prefix}${name} ${GOLDEN_DIR}/${prefix}${name}
        RESULT_VARIABLE differs)
    if(differs)
        list(APPEND failed
             "diff ${OUT_DIR}/${prefix}${name} ${GOLDEN_DIR}/${prefix}${name}")
    endif()
endforeach()
if(failed)
    string(REPLACE ";" "\n  " failed "${failed}")
    message(FATAL_ERROR "exports differ from their goldens:\n  ${failed}")
endif()
