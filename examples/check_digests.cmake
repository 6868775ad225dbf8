# Run one example in a fresh working directory and compare what it
# prints and writes with digests captured from a known-good build:
#   cmake -DDIGESTS=<file> -DWORKDIR=<directory to create afresh>
#         [-DRUNS=<n>] -P check_digests.cmake -- <binary> [args...]
# Everything after `--` is the command line; relative paths in it land in
# WORKDIR.  DIGESTS holds `<sha256>  <name>` lines (sha256sum's format).
# The name `stdout` is the run's stdout and stderr together; every other
# name is a file the run writes under WORKDIR, and the run must write
# exactly those files.  With RUNS > 1 the command runs that many times,
# and every run must print the same digest.
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
if(NOT RUNS)
  set(RUNS 1)
endif()
list(JOIN cmd " " shown)

set(expected_files)
file(STRINGS "${DIGESTS}" lines)
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
    message(FATAL_ERROR "${DIGESTS}: bad line '${line}'")
  endif()
  set(digest_${CMAKE_MATCH_2} "${CMAKE_MATCH_1}")
  if(NOT CMAKE_MATCH_2 STREQUAL "stdout")
    list(APPEND expected_files "${CMAKE_MATCH_2}")
  endif()
endforeach()

set(failures)
foreach(run RANGE 1 ${RUNS})
  file(REMOVE_RECURSE "${WORKDIR}")
  file(MAKE_DIRECTORY "${WORKDIR}")
  execute_process(COMMAND ${cmd} WORKING_DIRECTORY "${WORKDIR}"
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "${shown}: exit ${code} in run ${run}\n${out}")
  endif()
  string(SHA256 got "${out}")
  if(NOT "${got}" STREQUAL "${digest_stdout}")
    list(APPEND failures "run ${run}: stdout+stderr ${got}")
  endif()
endforeach()
if(failures)
  list(JOIN failures "\n" shown_failures)
  message(FATAL_ERROR "${shown}: expected stdout+stderr ${digest_stdout}\n"
                      "${shown_failures}\nlast output:\n${out}")
endif()

# The files of the last run.
file(GLOB_RECURSE written RELATIVE "${WORKDIR}" "${WORKDIR}/*")
list(SORT written)
list(SORT expected_files)
if(NOT "${written}" STREQUAL "${expected_files}")
  message(FATAL_ERROR "${shown} wrote [${written}], expected "
                      "[${expected_files}]")
endif()
foreach(name IN LISTS expected_files)
  file(SHA256 "${WORKDIR}/${name}" got)
  if(NOT "${got}" STREQUAL "${digest_${name}}")
    list(APPEND failures "${name}: ${got}, expected ${digest_${name}}")
  endif()
endforeach()
if(failures)
  list(JOIN failures "\n" shown_failures)
  message(FATAL_ERROR "${shown}: written files differ\n${shown_failures}")
endif()
