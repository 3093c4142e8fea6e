# Runs EXE with ARGS ('|'-separated) and passes only when it exits with
# status 2 and prints MATCH on stderr: a malformed flag value is a usage
# error, never a run with a silently substituted number.
#   cmake -DEXE=... -DARGS=stream|--requests|-1 -DMATCH=... -P <this file>
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit status 2, got '${rc}'; stderr: ${err}")
endif()
if(NOT err MATCHES "${MATCH}")
  message(FATAL_ERROR "stderr does not match '${MATCH}': ${err}")
endif()
