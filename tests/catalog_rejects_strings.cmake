# CatalogRejectsStrings: naming an event or a stat by a string must not
# compile. tests/catalog/rejects_strings.cc does both and must fail to
# build, with an error at each of the two calls; its typed twin
# tests/catalog/accepts_ids.cc must build.
#
#   cmake -DBUILD_DIR=<build tree> -P catalog_rejects_strings.cmake
execute_process(COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR}
                        --target catalog_accepts_ids
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "the typed fixture failed to build:\n${out}${err}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR}
                        --target catalog_rejects_strings
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE status)
if(status EQUAL 0)
    message(FATAL_ERROR "string-named events and stats compiled")
endif()
set(log "${out}${err}")
set(at "rejects_strings\\.cc:[0-9:]+ error: [^\n]*")
if(NOT log MATCHES "${at}(instant|InstantEvent)" OR
   NOT log MATCHES "${at}(counter|CounterId)")
    message(FATAL_ERROR "the build failed, but not at both calls:\n${log}")
endif()
