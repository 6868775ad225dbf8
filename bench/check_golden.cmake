# Run two copies of one bench at once, each in a fresh working directory
# of its own, and compare the JSON file each writes with the committed
# copy:
#   cmake -DBENCH=<binary> -DJSON=<file name> -DGOLDEN=<committed file>
#         -DWORKDIR=<directory to create afresh> [-DTASKSET=<taskset>]
#         -P check_golden.cmake
# With TASKSET, both copies run under `taskset -c 0`, on one CPU.
# The JSON is a pure function of the bench's seeded fault plans, so the
# host contention between the copies must not move a byte of either
# file.  Each copy is this script again with COPY set to its directory
# name under WORKDIR.
if(DEFINED COPY)
  set(dir "${WORKDIR}/${COPY}")
  file(MAKE_DIRECTORY "${dir}")
  set(launch)
  if(TASKSET)
    set(launch "${TASKSET}" -c 0)
  endif()
  execute_process(COMMAND ${launch} "${BENCH}" WORKING_DIRECTORY "${dir}"
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${BENCH} (copy ${COPY}): exit ${code}\n${err}")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${dir}/${JSON}" "${GOLDEN}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    file(READ "${dir}/${JSON}" written)
    message(FATAL_ERROR "${dir}/${JSON} differs from ${GOLDEN}:\n"
                        "${written}")
  endif()
else()
  file(REMOVE_RECURSE "${WORKDIR}")
  # The two COMMANDs run concurrently (as one pipeline; neither copy
  # writes to stdout, so nothing flows between them).
  set(args -DBENCH=${BENCH} -DJSON=${JSON} -DGOLDEN=${GOLDEN}
           -DWORKDIR=${WORKDIR} -DTASKSET=${TASKSET})
  execute_process(
    COMMAND ${CMAKE_COMMAND} ${args} -DCOPY=a -P ${CMAKE_CURRENT_LIST_FILE}
    COMMAND ${CMAKE_COMMAND} ${args} -DCOPY=b -P ${CMAKE_CURRENT_LIST_FILE}
    RESULTS_VARIABLE codes ERROR_VARIABLE err)
  foreach(code IN LISTS codes)
    if(NOT code EQUAL 0)
      message(FATAL_ERROR "${err}")
    endif()
  endforeach()
endif()
