# Runs EXE with ARGS ('|'-separated) in an empty working directory WORKDIR
# and passes only when it exits 0, prints the usage text on stdout whose
# entry for the command (the first of ARGS: its line plus the indented
# continuation lines) names every flag in LISTS ('|'-separated), and
# leaves no tuned_schedules.json behind: a help request must never run the
# command it names.
#   cmake -DEXE=... -DARGS=tune|--help -DLISTS=--budget -DWORKDIR=...
#         -P <this file>
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
list(GET args 0 cmd)
string(REGEX MATCH "\n  ${cmd} [^\n]*(\n             [^\n]*)*" entry "${out}")
string(REPLACE "|" ";" lists "${LISTS}")
foreach(flag IN LISTS lists)
  string(FIND "${entry}" "[${flag} " at)
  if(at EQUAL -1)
    string(FIND "${entry}" "[${flag}]" at)
  endif()
  if(at EQUAL -1)
    message(FATAL_ERROR "usage entry for '${cmd}' does not list ${flag}: "
                        "${out}")
  endif()
endforeach()
if(EXISTS "${WORKDIR}/tuned_schedules.json")
  message(FATAL_ERROR "help request wrote ${WORKDIR}/tuned_schedules.json")
endif()
