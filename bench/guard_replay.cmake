# Replay check for bench_guard's deterministic half: runs it twice into a
# scratch directory and byte-compares the two full-precision dumps.  Any
# difference means some row depends on more than the code (wall time,
# addresses, uninitialized state).
#
#   cmake -DGUARD=<path to bench_guard> -DOUT=<scratch dir> -P guard_replay.cmake
file(MAKE_DIRECTORY "${OUT}")
foreach(run a b)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "OMX_BENCH_OUT_DIR=${OUT}"
            "${GUARD}" --dump "${OUT}/guard_${run}.txt"
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_guard --dump (run ${run}) failed: ${rc}")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT}/guard_a.txt"
          "${OUT}/guard_b.txt"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  file(READ "${OUT}/guard_a.txt" a)
  file(READ "${OUT}/guard_b.txt" b)
  message(FATAL_ERROR "deterministic guard rows differ between runs:\n"
                      "--- run a\n${a}--- run b\n${b}")
endif()
message(STATUS "deterministic guard rows byte-identical across two runs")
