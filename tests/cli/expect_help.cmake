# Runs EXE with ARGS ('|'-separated) in an empty working directory WORKDIR
# and passes only when it exits 0, prints the usage text on stdout, and
# leaves no tuned_schedules.json behind: a help request must never run
# the command it names.
#   cmake -DEXE=... -DARGS=tune|--help -DWORKDIR=... -P <this file>
string(REPLACE "|" ";" args "${ARGS}")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
execute_process(COMMAND "${EXE}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "expected exit status 0, got '${rc}'; stderr: ${err}")
endif()
if(NOT out MATCHES "usage: ls_experiment")
  message(FATAL_ERROR "stdout does not show the usage text: ${out}")
endif()
if(EXISTS "${WORKDIR}/tuned_schedules.json")
  message(FATAL_ERROR "help request wrote ${WORKDIR}/tuned_schedules.json")
endif()
