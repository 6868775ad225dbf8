# Run three copies of one gtest binary at once, each with the same
# filter and repeat count; every copy must pass:
#   cmake -DBINARY=<test binary> -DFILTER=<gtest filter> -DREPEAT=<n>
#         -P contended.cmake
# A test that lets host timing leak into a recovery can pass alone in
# its process and fail while other processes contend for the CPUs (the
# seed-561 two-board lock passed 10 of 10 repeats alone and failed 13 of
# 15 with three copies at once).  Each copy is this script again with
# COPY set, as in bench/check_golden.cmake.
if(DEFINED COPY)
  execute_process(
    COMMAND "${BINARY}" --gtest_filter=${FILTER} --gtest_repeat=${REPEAT}
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${BINARY} (copy ${COPY}): exit ${code}\n${out}")
  endif()
else()
  set(args -DBINARY=${BINARY} -DFILTER=${FILTER} -DREPEAT=${REPEAT})
  # The three COMMANDs run concurrently (as one pipeline; no copy writes
  # to stdout, so nothing flows between them).
  execute_process(
    COMMAND ${CMAKE_COMMAND} ${args} -DCOPY=a -P ${CMAKE_CURRENT_LIST_FILE}
    COMMAND ${CMAKE_COMMAND} ${args} -DCOPY=b -P ${CMAKE_CURRENT_LIST_FILE}
    COMMAND ${CMAKE_COMMAND} ${args} -DCOPY=c -P ${CMAKE_CURRENT_LIST_FILE}
    RESULTS_VARIABLE codes ERROR_VARIABLE err)
  foreach(code IN LISTS codes)
    if(NOT code EQUAL 0)
      message(FATAL_ERROR "${err}")
    endif()
  endforeach()
endif()
