# End-to-end check of the persisted result cache (FRIEDA_RESULT_CACHE_FILE).
#
# Runs bench_fig7b twice against one fresh cache file: the first run
# executes all three cells and checkpoints them, the second must serve every
# cell from the file without executing any.  Both runs' fig7b.csv must be
# byte-identical to the committed one.  Scratch files go under the current
# (build) directory.
#
#   cmake -DBENCH=<bench_fig7b> -DSOURCE_DIR=<repo root> -P check_result_cache.cmake
set(EXPECTED "${SOURCE_DIR}/fig7b.csv")
set(WORK_DIR "${CMAKE_CURRENT_BINARY_DIR}/fig7b_result_cache")

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/cold" "${WORK_DIR}/warm")
set(ENV{FRIEDA_RESULT_CACHE_FILE} "${WORK_DIR}/result_cache.txt")

foreach(pass cold warm)
  execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${WORK_DIR}/${pass}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${pass} run failed (${rc}):\n${out}\n${err}")
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK_DIR}/${pass}/fig7b.csv" "${EXPECTED}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${pass} run: fig7b.csv differs from ${EXPECTED}")
  endif()
endforeach()

if(NOT out MATCHES "0 executed, 3 cache hits")
  message(FATAL_ERROR "warm run did not serve every cell from the cache file:\n${out}")
endif()
message(STATUS "warm run: 0 executed, 3 cache hits; fig7b.csv identical")
