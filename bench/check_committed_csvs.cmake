# Reproduce every committed CSV: run each paper, ablation and service driver
# with its default arguments in a fresh directory and require the CSV it
# writes to be byte-identical to the copy at the repo root.  All drivers run
# before the verdict, so one failure lists every missing or differing file.
# The environment passes through, so FRIEDA_SWEEP_BACKEND=process or
# FRIEDA_TEMPLATE_AUDIT=1 checks the same files under that mode.
#
#   cmake -DBENCH_DIR=<dir of the bench_* binaries> -DSOURCE_DIR=<repo root>
#         -P check_committed_csvs.cmake
set(CSVS table1 fig6a fig6b fig7a fig7b
    ablation_bandwidth ablation_capacity ablation_failures ablation_locality
    ablation_recovery ablation_scaling ablation_skew ablation_streams
    ablation_service)
set(WORK_DIR "${CMAKE_CURRENT_BINARY_DIR}/committed_csvs")

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(failures "")
foreach(csv IN LISTS CSVS)
  # ablation_service.csv is the one CSV whose driver is not bench_<csv>.
  if(csv STREQUAL "ablation_service")
    set(driver bench_service)
  else()
    set(driver "bench_${csv}")
  endif()
  execute_process(COMMAND "${BENCH_DIR}/${driver}" WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    list(APPEND failures "${driver} failed (${rc}):\n${err}")
  elseif(NOT EXISTS "${WORK_DIR}/${csv}.csv")
    list(APPEND failures "${driver} wrote no ${csv}.csv")
  else()
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                            "${WORK_DIR}/${csv}.csv" "${SOURCE_DIR}/${csv}.csv"
                    RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      list(APPEND failures "${csv}.csv differs from the committed copy")
    endif()
  endif()
endforeach()

list(LENGTH CSVS total)
if(failures)
  list(JOIN failures "\n" report)
  message(FATAL_ERROR "committed CSVs not reproduced:\n${report}")
endif()
message(STATUS "all ${total} committed CSVs reproduced byte-identically")
