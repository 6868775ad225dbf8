# Run one bench in a fresh working directory and compare the JSON file it
# writes with the committed copy:
#   cmake -DBENCH=<binary> -DJSON=<file name> -DGOLDEN=<committed file>
#         -DWORKDIR=<directory to create afresh> -P check_golden.cmake
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${BENCH}" WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BENCH}: exit ${code}\n${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${WORKDIR}/${JSON}" "${GOLDEN}"
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  file(READ "${WORKDIR}/${JSON}" written)
  message(FATAL_ERROR "${WORKDIR}/${JSON} differs from ${GOLDEN}:\n"
                      "${written}")
endif()
