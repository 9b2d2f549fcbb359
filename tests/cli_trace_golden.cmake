# CliTraceGolden: run smthill_cli with trace=200 on a short art-mcf
# FLUSH run and compare its "last N pipeline events" block, byte for
# byte, against the golden file.
#
#   cmake -DCLI=<smthill_cli> -DGOLDEN=<golden file> -DOUT=<scratch file>
#         -P cli_trace_golden.cmake
execute_process(
    COMMAND ${CLI} workload=art-mcf policy=flush int_regs=128 trace=200
            epochs=2 warmup=20000
    OUTPUT_VARIABLE out
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "smthill_cli exited with ${status}")
endif()
string(REGEX MATCH "last [0-9]+ pipeline events:\n.*" block "${out}")
if(block STREQUAL "")
    message(FATAL_ERROR "no 'last N pipeline events' block in the output")
endif()
file(WRITE ${OUT} "${block}")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "pipeline event block differs: diff ${OUT} ${GOLDEN}")
endif()
