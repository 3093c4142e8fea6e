# Runs EXE with ARGS ('|'-separated) in an empty working directory WORKDIR
# that holds one tuned store, store.json, and passes only when it exits
# with status 1 and prints MATCH (stdout and stderr together): a store
# entry that breaks a tuning-knob rule is an error with a diagnostic,
# never a crash and never a run. The store has one entry, for ConvNet on
# 16 cores with the default NoC, with the layer dims DIMS and the
# placement PLACEMENT (both '|'-separated).
#   cmake -DEXE=... -DARGS=infer|--net|convnet|--tuned-cache|store.json
#         -DDIMS=width|kernel -DPLACEMENT=99|1 -DMATCH=... -DWORKDIR=...
#         -P <this file>
string(REPLACE "|" ";" args "${ARGS}")
string(REPLACE "|" "\",\"" dims "${DIMS}")
string(REPLACE "|" "," placement "${PLACEMENT}")
set(key "ConvNet|cores=16|traditional|noc=fb64,mp20,vc3,vd4,rl3,pc2,xy|div=1|chips=1")
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")
file(WRITE "${WORKDIR}/store.json"
     "{\"version\":2,\"entries\":{\"${key}\":{\"layer_dims\":[\"${dims}\"],"
     "\"placement\":[${placement}],\"overlap\":false,\"est_cycles\":1,"
     "\"sim_cycles\":1,\"baseline_sim_cycles\":1,\"seed\":1,\"budget\":1}}}\n")
execute_process(COMMAND "${EXE}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${rc}'; stdout: ${out} "
                      "stderr: ${err}")
endif()
if(NOT "${out}${err}" MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}': ${out}${err}")
endif()
