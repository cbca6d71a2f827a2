# Runs each example as a two-process job under qmpirun, once on the serial
# backend rank 0's process hosts and twice on the distributed backend (at
# the default shard count and at QMPI_SHARDS=8, four slices per process,
# where the first qubits of a register gather across processes), and
# requires every run's stdout to be byte-identical once sorted (the two
# processes' lines may interleave differently).
#
#   cmake -DQMPIRUN=<qmpirun> "-DEXAMPLES=<binary>;<binary>..."
#         -P qmpirun_examples_test.cmake
cmake_policy(SET CMP0007 NEW)  # keep empty lines as list elements

function(run_sorted example backend shards out_var)
  set(ENV{QMPI_BACKEND} ${backend})
  if(shards STREQUAL "default")
    unset(ENV{QMPI_SHARDS})
  else()
    set(ENV{QMPI_SHARDS} ${shards})
  endif()
  execute_process(
    COMMAND ${QMPIRUN} -n 2 ${example}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message("${out}${err}")
    message(FATAL_ERROR "QMPI_BACKEND=${backend} QMPI_SHARDS=${shards} "
                        "qmpirun -n 2 ${example} exited with ${rc}")
  endif()
  # One list element per line: protect the list separator first.
  string(REPLACE ";" "\\;" out "${out}")
  string(REPLACE "\n" ";" lines "${out}")
  list(SORT lines)
  set(${out_var} "${lines}" PARENT_SCOPE)
endfunction()

foreach(example ${EXAMPLES})
  run_sorted(${example} serial default hosted)
  foreach(shards default 8)
    run_sorted(${example} distributed "${shards}" distributed)
    if(NOT hosted STREQUAL distributed)
      string(REPLACE ";" "\n" hosted "${hosted}")
      string(REPLACE ";" "\n" distributed "${distributed}")
      message(FATAL_ERROR
              "${example}: sorted stdout differs between backends "
              "(QMPI_SHARDS=${shards})\n"
              "--- serial ---\n${hosted}\n"
              "--- distributed ---\n${distributed}")
    endif()
  endforeach()
  message("${example}: identical on the serial and distributed backends "
          "(default and 8 shards)")
endforeach()
