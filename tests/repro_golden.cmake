# ReproGolden: run `smthill_repro all` at a reduced size and compare
# its stdout, byte for byte, against the golden file. Any change to a
# figure's printed numbers or layout fails here; a deliberate change
# must regenerate the golden.
#
#   cmake -DREPRO=<smthill_repro> -DGOLDEN=<golden file> -DOUT=<scratch file>
#         -P repro_golden.cmake
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
            SMTHILL_EPOCHS=2 SMTHILL_EPOCH_SIZE=8192 SMTHILL_WARMUP=65536
            SMTHILL_OFFLINE_STRIDE=64 SMTHILL_RANDHILL_ITERS=4
            SMTHILL_SURFACE_STEP=128 SMTHILL_OS_JOBS=4
            SMTHILL_OS_HORIZON=400000 SMTHILL_JOBS=4
            ${REPRO} all
    OUTPUT_FILE ${OUT}
    RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "smthill_repro exited with ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "figure output differs: diff ${OUT} ${GOLDEN}")
endif()
