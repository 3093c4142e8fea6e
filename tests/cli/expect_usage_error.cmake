# Runs EXE with ARGS ('|'-separated) in an empty working directory WORKDIR
# and passes only when it exits with status 2, prints MATCH on stderr, and
# leaves no tuned_schedules.json behind: a malformed command line is a
# usage error, never a run with a silently substituted value.
#   cmake -DEXE=... -DARGS=stream|--requests|-1 -DMATCH=... -DWORKDIR=...
#         -P <this file>
string(REPLACE "|" ";" args "${ARGS}")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${EXE}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${rc}'; stderr: ${err}")
endif()
if(NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "stderr does not match '${MATCH}': ${err}")
endif()
if(EXISTS "${WORKDIR}/tuned_schedules.json")
  message(FATAL_ERROR "usage error wrote ${WORKDIR}/tuned_schedules.json")
endif()
