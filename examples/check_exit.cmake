# Run one example and check its exit code and stderr line count:
#   cmake -DCODE=<exit code> -DSTDERR_LINES=<n> -P check_exit.cmake \
#         -- <binary> [args...]
# Everything after `--` is the command line.
set(cmd)
set(seen_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(seen_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(seen_dashes TRUE)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE code OUTPUT_QUIET
                ERROR_VARIABLE err)
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT code STREQUAL CODE OR NOT lines EQUAL STDERR_LINES OR
   (NOT err STREQUAL "" AND NOT err MATCHES "\n$"))
  list(JOIN cmd " " shown)
  message(FATAL_ERROR "${shown}: exit ${code} with ${lines} stderr line(s), "
                      "expected exit ${CODE} with ${STDERR_LINES}:\n${err}")
endif()
