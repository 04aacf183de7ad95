# Golden-fingerprint check: runs one mgap_bench case into a scratch directory
# and compares fingerprint fields of its fresh BENCH_<case>.json with the
# committed one, read at test time so each value lives only in that file.
#
# Inputs: -DBENCH=<mgap_bench path> -DCASE=<bench case>
#         -DFIELDS=<json key>[,<json key>...]
#         -DEXPECTED=<committed BENCH_<case>.json> -DOUT_DIR=<scratch dir>
cmake_minimum_required(VERSION 3.19)  # string(JSON)

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(COMMAND "${BENCH}" "${CASE}" --out "${OUT_DIR}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mgap_bench ${CASE} exited with ${rc}\n${out}${err}")
endif()

file(READ "${EXPECTED}" expected_json)
file(READ "${OUT_DIR}/BENCH_${CASE}.json" fresh_json)
string(REPLACE "," ";" fields "${FIELDS}")
set(drifted "")
foreach(field IN LISTS fields)
  string(JSON expected GET "${expected_json}" "${field}")
  string(JSON fresh GET "${fresh_json}" "${field}")
  if(fresh STREQUAL expected)
    message(STATUS "${CASE} ${field} ${fresh} matches ${EXPECTED}")
  else()
    string(APPEND drifted "${CASE} ${field} drifted: ${fresh} (fresh) != ${expected}\n")
  endif()
endforeach()
if(drifted)
  message(FATAL_ERROR "${drifted}(committed ${EXPECTED})")
endif()
