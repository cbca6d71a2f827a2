# Runs one launcher with a flag value it must reject, and passes only on a
# usage error: exit status 2 with the usage text on stderr. A launcher that
# accepts the value instead would serve or run, so the run is time-boxed.
#
#   cmake -DPROGRAM=<qmpid|qmpirun> -DFLAG=<flag> "-DVALUE=<value>"
#         [-DREST=<trailing args>] -P expect_usage.cmake
execute_process(
  COMMAND ${PROGRAM} ${FLAG} "${VALUE}" ${REST}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 10)
message("${out}${err}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${PROGRAM} ${FLAG} \"${VALUE}\" exited with ${rc}, "
                      "want 2")
endif()
if(NOT err MATCHES "usage: ")
  message(FATAL_ERROR "${PROGRAM} ${FLAG} \"${VALUE}\" printed no usage text")
endif()
