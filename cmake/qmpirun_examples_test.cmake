# Runs each example as a two-process job under qmpirun, once on the serial
# backend rank 0's process hosts and once on the distributed backend, and
# requires the two runs' stdout to be byte-identical once sorted (the two
# processes' lines may interleave differently).
#
#   cmake -DQMPIRUN=<qmpirun> "-DEXAMPLES=<binary>;<binary>..."
#         -P qmpirun_examples_test.cmake
cmake_policy(SET CMP0007 NEW)  # keep empty lines as list elements

function(run_sorted example backend out_var)
  set(ENV{QMPI_BACKEND} ${backend})
  execute_process(
    COMMAND ${QMPIRUN} -n 2 ${example}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message("${out}${err}")
    message(FATAL_ERROR
            "QMPI_BACKEND=${backend} qmpirun -n 2 ${example} exited with ${rc}")
  endif()
  # One list element per line: protect the list separator first.
  string(REPLACE ";" "\\;" out "${out}")
  string(REPLACE "\n" ";" lines "${out}")
  list(SORT lines)
  set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

foreach(example ${EXAMPLES})
  run_sorted(${example} serial hosted)
  run_sorted(${example} distributed distributed)
  if(NOT hosted STREQUAL distributed)
    string(REPLACE ";" "\n" hosted "${hosted}")
    string(REPLACE ";" "\n" distributed "${distributed}")
    message(FATAL_ERROR "${example}: sorted stdout differs between backends\n"
                        "--- serial ---\n${hosted}\n"
                        "--- distributed ---\n${distributed}")
  endif()
  message("${example}: identical on the serial and distributed backends")
endforeach()
