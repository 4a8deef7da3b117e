# Runs BENCH with --out pointing at a regular file (so no report can be
# written) and requires exit code 1 plus an "error: " line on stderr.
# Exit code 134 (an uncaught exception aborting) fails the check.
#   cmake -DBENCH=<binary> -DOUT_FILE=<path> -P expect_exit_1.cmake
file(WRITE "${OUT_FILE}" "a regular file, not a directory\n")
execute_process(COMMAND "${BENCH}" --smoke --jobs 2 --out "${OUT_FILE}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "expected exit code 1, got '${rc}'; stderr:\n${err}")
endif()
if(NOT err MATCHES "(^|\n)error: [^\n]*cannot create output directory")
  message(FATAL_ERROR "expected an 'error: ' line on stderr, got:\n${err}")
endif()
