# Validates the BENCH_*.json contract (invoked by the bench_json_contract
# ctest entry).  Runs bench_net and bench_rpc in WORK_DIR so reports exist,
# then requires every BENCH_*.json found there, and every committed one in
# ROOT_DIR (the source root) when given, to be parseable JSON carrying a
# string "bench" key — the shape the plotting/tooling side consumes.
if(NOT DEFINED BENCH_NET OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DBENCH_NET=<bin> -DBENCH_RPC=<bin> -DWORK_DIR=<dir> [-DROOT_DIR=<dir>] -P check_bench_json.cmake")
endif()

execute_process(COMMAND ${BENCH_NET}
                WORKING_DIRECTORY ${WORK_DIR}
                RESULT_VARIABLE rc
                OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_net exited with ${rc}")
endif()

if(DEFINED BENCH_RPC)
  execute_process(COMMAND ${BENCH_RPC}
                  WORKING_DIRECTORY ${WORK_DIR}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_rpc exited with ${rc}")
  endif()
endif()

file(GLOB reports "${WORK_DIR}/BENCH_*.json")
list(LENGTH reports count)
if(count EQUAL 0)
  message(FATAL_ERROR "no BENCH_*.json produced in ${WORK_DIR}")
endif()
if(DEFINED ROOT_DIR)
  file(GLOB committed "${ROOT_DIR}/BENCH_*.json")
  if(NOT committed)
    message(FATAL_ERROR "no committed BENCH_*.json in ${ROOT_DIR}")
  endif()
  list(APPEND reports ${committed})
endif()

foreach(report IN LISTS reports)
  file(READ "${report}" body)
  string(JSON bench ERROR_VARIABLE err GET "${body}" "bench")
  if(err)
    message(FATAL_ERROR "${report}: missing/invalid \"bench\" key: ${err}")
  endif()
  string(JSON kind ERROR_VARIABLE err TYPE "${body}" "bench")
  if(NOT kind STREQUAL "STRING" OR bench STREQUAL "")
    message(FATAL_ERROR "${report}: \"bench\" must be a non-empty string")
  endif()
  # The parallel-scaling report additionally carries per-phase engine timings
  # and scheduler health counters; downstream tooling plots them, so their
  # absence is a contract break, not a soft degradation.
  if(bench STREQUAL "parallel_scaling")
    foreach(key generate_seconds generate_cases_per_sec)
      string(JSON val ERROR_VARIABLE err GET "${body}" "${key}")
      if(err)
        message(FATAL_ERROR "${report}: missing \"${key}\": ${err}")
      endif()
    endforeach()
    foreach(key plan_seconds execute_seconds merge_seconds shards
                contended_steals machine_rebuilds)
      string(JSON val ERROR_VARIABLE err GET "${body}" "runs" 0 "${key}")
      if(err)
        message(FATAL_ERROR "${report}: missing runs[0].\"${key}\": ${err}")
      endif()
    endforeach()
  endif()
  message(STATUS "${report}: ok (bench=${bench})")
endforeach()
