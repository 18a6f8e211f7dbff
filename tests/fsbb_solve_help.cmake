# CLI smoke test: `fsbb_solve --help` prints usage on stdout and exits 0.
#   cmake -DEXE=<path to fsbb_solve> -P tests/fsbb_solve_help.cmake
execute_process(COMMAND "${EXE}" --help
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "fsbb_solve --help exited ${rc}: ${err}")
endif()
if(NOT out MATCHES "usage: fsbb_solve" OR NOT out MATCHES "--backend")
  message(FATAL_ERROR "fsbb_solve --help printed no usage: ${out}")
endif()
