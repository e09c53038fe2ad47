# Checks perf_diff's direction on a latency row: the two fixtures differ
# only in cat1_mean_ttft_ms (1000 vs 1200 ms, past every tolerance), so a
# TTFT rise must exit 1 (regression) and a TTFT drop must exit 0.
#
#   cmake -DPERF_DIFF=<perf_diff> -P direction_test.cmake
foreach(case IN ITEMS "ttft_low;ttft_high;1" "ttft_high;ttft_low;0")
  list(GET case 0 baseline)
  list(GET case 1 candidate)
  list(GET case 2 want)
  execute_process(
    COMMAND ${PERF_DIFF} ${CMAKE_CURRENT_LIST_DIR}/${baseline}.json
            ${CMAKE_CURRENT_LIST_DIR}/${candidate}.json
    RESULT_VARIABLE got OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT got EQUAL want)
    message(FATAL_ERROR "perf_diff ${baseline} -> ${candidate}: exit ${got}, want ${want}\n${out}")
  endif()
endforeach()
