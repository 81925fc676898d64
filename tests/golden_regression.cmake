# Golden-regression test, run via
#   cmake -DSRS_SIM=<path> -DGOLDEN=<tests/golden/tiny_sweep.csv> \
#         -P golden_regression.cmake
#
# Re-runs the tiny reference sweep committed under tests/golden/ and
# byte-compares the regenerated CSV against the checked-in file.  Any
# drift in the CSV schema, the axes spellings, the per-cell seeding,
# or the simulation itself is caught here *by name* instead of as a
# downstream resume/merge failure.
#
# The grid deliberately crosses the identity-bearing axes (page
# policy, DDR4/DDR5 preset, a DRAM organization, a tREFI override)
# at a tiny cycle budget,
# and uses a low T_RH so the mitigations actually swap rows — the
# payload columns lock down mitigation behaviour, not just identity
# formatting.  A zipf and a blend generator cell ride next to the
# synthetic workload so the generator sampling paths and the
# schema-v6 latency-percentile and Monte-Carlo-confidence columns
# are locked down
# too, and the multi-channel multi-rank org cells pin down the
# controller's cross-channel scheduling order.  The
# regeneration runs at the default thread count:
# sweep CSVs are byte-identical for any --threads value (that
# invariant has its own tests), so the comparison is exact while the
# regeneration parallelizes.
#
# If a change intentionally alters simulation results or the schema,
# regenerate the reference with the command below and commit the new
# file together with the change that explains it.

if(NOT DEFINED SRS_SIM)
  message(FATAL_ERROR "pass -DSRS_SIM=<path to srs_sim>")
endif()
if(NOT DEFINED GOLDEN)
  message(FATAL_ERROR "pass -DGOLDEN=<path to the committed reference CSV>")
endif()
if(NOT EXISTS ${GOLDEN})
  message(FATAL_ERROR "reference CSV '${GOLDEN}' does not exist")
endif()

set(regen ${CMAKE_CURRENT_BINARY_DIR}/golden_regen.csv)
execute_process(
  COMMAND ${SRS_SIM} sweep
          --workloads=gups,zipf:4096@s=0.99,blend:zipf:4096@s=0.9+attack@0.05
          --mitigations=rrs,scale-srs --trh=60
          --rates=6 --page-policy=closed,open --preset=ddr4,ddr5
          --org=2x1x16,2x2x32
          --trefi=0,3900 --cycles=120000 --epoch=30000 --threads=0
          --out=${regen} --journal=none
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "golden sweep exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${GOLDEN} ${regen}
                RESULT_VARIABLE golden_diff)
if(NOT golden_diff EQUAL 0)
  message(FATAL_ERROR
          "regenerated sweep CSV differs from the committed reference "
          "${GOLDEN} (regenerated copy: ${regen}).  If the change is "
          "intentional, regenerate the reference with the command in "
          "tests/golden_regression.cmake and commit it.")
endif()

message(STATUS "golden_regression passed")
