# Golden world -DSPEC=<dir>/<name>.campaign: run by -DCAMPAIGN (mgap_campaign) at
# --threads 4, unscaled, into -DOUT_DIR, its JSON and CSV minus the code_version
# line must equal the committed <dir>/<name>.json and .csv (written at --threads 1).
get_filename_component(dir "${SPEC}" DIRECTORY)
get_filename_component(name "${SPEC}" NAME_WE)
file(MAKE_DIRECTORY "${OUT_DIR}")
unset(ENV{MGAP_TIME_SCALE})
execute_process(COMMAND "${CAMPAIGN}" "${SPEC}" --threads 4 --quiet
                        --json "${OUT_DIR}/raw.json" --csv "${OUT_DIR}/raw.csv"
                OUTPUT_QUIET COMMAND_ERROR_IS_FATAL ANY)
foreach(ext json csv)
  file(READ "${OUT_DIR}/raw.${ext}" fresh)
  string(REGEX REPLACE "[^\n]*code_version[^\n]*\n" "" fresh "${fresh}")
  file(WRITE "${OUT_DIR}/${name}.${ext}" "${fresh}")
  file(READ "${dir}/${name}.${ext}" expected)
  set(line 1)
  while(NOT fresh STREQUAL expected)  # drop equal lines up to the first drift
    string(FIND "${fresh}" "\n" i)
    string(FIND "${expected}" "\n" j)
    string(SUBSTRING "${fresh}" 0 ${i} f)
    string(SUBSTRING "${expected}" 0 ${j} e)
    if(NOT f STREQUAL e OR i EQUAL -1 OR j EQUAL -1)
      message(FATAL_ERROR "${OUT_DIR}/${name}.${ext} differs from ${dir}/${name}.${ext} "
                          "at line ${line}:\n  fresh:    ${f}\n  expected: ${e}")
    endif()
    math(EXPR i "${i} + 1")
    string(SUBSTRING "${fresh}" ${i} -1 fresh)
    string(SUBSTRING "${expected}" ${i} -1 expected)
    math(EXPR line "${line} + 1")
  endwhile()
endforeach()
