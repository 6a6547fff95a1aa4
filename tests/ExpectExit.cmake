# Runs COMMAND (program and arguments separated by '|') with STDIN as
# its standard input (/dev/null when not given) and fails unless it
# exits with EXPECTED_EXIT and, when EXPECTED_STDOUT is given, prints
# something matching that regular expression.
#
#   cmake -DCOMMAND=prog|arg... -DEXPECTED_EXIT=2 [-DSTDIN=file]
#         [-DEXPECTED_STDOUT=regex] -P ExpectExit.cmake

string(REPLACE "|" ";" Command "${COMMAND}")
if(NOT STDIN)
  set(STDIN /dev/null)
endif()
execute_process(COMMAND ${Command}
                INPUT_FILE "${STDIN}"
                RESULT_VARIABLE Code
                OUTPUT_VARIABLE Out
                ERROR_VARIABLE Err)
if(NOT "${Code}" STREQUAL "${EXPECTED_EXIT}")
  message(FATAL_ERROR "expected exit status ${EXPECTED_EXIT}, got '${Code}'\n"
                      "stdout:\n${Out}\nstderr:\n${Err}")
endif()
if(DEFINED EXPECTED_STDOUT AND NOT Out MATCHES "${EXPECTED_STDOUT}")
  message(FATAL_ERROR "stdout does not match '${EXPECTED_STDOUT}':\n${Out}")
endif()
