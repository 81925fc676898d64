# Bench knob check, run via `cmake -DBENCH=<path> -P bench_knobs.cmake`
# with a cycle-level bench: a malformed or too small SRS_BENCH_CYCLES,
# or a malformed SRS_BENCH_THREADS, exits 1 naming the knob instead of
# running with a misread value (1.2e6 used to read as 1 cycle).

if(NOT DEFINED BENCH)
  message(FATAL_ERROR "pass -DBENCH=<path to a cycle-level bench>")
endif()

function(expect_knob_rejected name value)
  set(ENV{${name}} "${value}")
  execute_process(COMMAND ${BENCH}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  unset(ENV{${name}})
  string(FIND "${err}" "${name}='${value}'" at)
  if(NOT rc EQUAL 1 OR at EQUAL -1)
    message(FATAL_ERROR "${name}=${value}: ${BENCH} exited ${rc} "
            "without naming the knob:\n${err}")
  endif()
endfunction()

expect_knob_rejected(SRS_BENCH_CYCLES "1.2e6")
expect_knob_rejected(SRS_BENCH_CYCLES "20000")
expect_knob_rejected(SRS_BENCH_THREADS "two")
