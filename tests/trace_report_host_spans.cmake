# TraceReportHostSpans: a profiled figure run writes one `host` span
# per profiler scope instance into its event trace, and
# `smthill_trace_report summarize` must know every one of them (the
# `host` family of the event catalog) instead of warning that its
# name is unknown.
#
#   cmake -DREPRO=<smthill_repro> -DREPORT=<smthill_trace_report>
#         -DTRACE=<trace.json> -P trace_report_host_spans.cmake
execute_process(COMMAND ${CMAKE_COMMAND} -E env
                        SMTHILL_PROFILE=1 SMTHILL_EVENT_TRACE=${TRACE}
                        SMTHILL_EPOCHS=2 SMTHILL_EPOCH_SIZE=8192
                        SMTHILL_WARMUP=65536 SMTHILL_OFFLINE_STRIDE=64
                        ${REPRO} fig05
                OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "smthill_repro fig05 failed (${status}): ${err}")
endif()

execute_process(COMMAND ${REPORT} summarize ${TRACE}
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "summarize failed (${status}): ${err}")
endif()
if(NOT out MATCHES "\nhost +cpu\\.run ")
    message(FATAL_ERROR "the trace holds no host spans:\n${out}")
endif()
if(out MATCHES "unknown event name")
    message(FATAL_ERROR "summarize flagged catalog events:\n${out}")
endif()
