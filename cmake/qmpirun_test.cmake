# Runs one test binary as a two-process job under qmpirun on the
# distributed backend and gates on both the exit code and qmpirun's
# acceptance line: every quantum op must have stayed off the hub.
#
#   cmake -DQMPIRUN=<qmpirun> -DTEST_BIN=<test binary> -P qmpirun_test.cmake
set(ENV{QMPI_BACKEND} distributed)
execute_process(
  COMMAND ${QMPIRUN} -n 2 ${TEST_BIN}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "qmpirun -n 2 ${TEST_BIN} exited with ${rc}")
endif()
if(NOT err MATCHES "qmpirun: hub quantum ops: 0 \\(distributed\\)")
  message(FATAL_ERROR
          "qmpirun did not report 'hub quantum ops: 0 (distributed)'")
endif()
