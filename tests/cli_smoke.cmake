# CLI smoke test, run via `cmake -DSRS_SIM=<path> -P cli_smoke.cmake`.
#
# Asserts that the cheap srs_sim subcommands exit 0 and that an
# unknown flag is rejected with a fatal error (nonzero exit) instead
# of being silently ignored.

if(NOT DEFINED SRS_SIM)
  message(FATAL_ERROR "pass -DSRS_SIM=<path to srs_sim>")
endif()

function(run_expect_ok)
  execute_process(COMMAND ${SRS_SIM} ${ARGV}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "srs_sim ${ARGV} exited ${rc}\nstdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

function(run_expect_fail)
  execute_process(COMMAND ${SRS_SIM} ${ARGV}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET ERROR_QUIET)
  if(rc EQUAL 0)
    message(FATAL_ERROR "srs_sim ${ARGV} unexpectedly exited 0")
  endif()
endfunction()

# Expect srs_sim to fail with every NEEDLES string (matched
# literally) on its stderr:
#   run_expect_fail_saying(NEEDLES <needle>... ARGS <arg>...)
function(run_expect_fail_saying)
  cmake_parse_arguments(PARSE_ARGV 0 call "" "" "NEEDLES;ARGS")
  execute_process(COMMAND ${SRS_SIM} ${call_ARGS}
                  RESULT_VARIABLE rc
                  OUTPUT_QUIET
                  ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "srs_sim ${call_ARGS} unexpectedly exited 0")
  endif()
  foreach(needle IN LISTS call_NEEDLES)
    string(FIND "${err}" "${needle}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "srs_sim ${call_ARGS} failed without saying "
              "'${needle}':\n${err}")
    endif()
  endforeach()
endfunction()

# Tiny cycle budgets keep the smoke test fast.
run_expect_ok(list)
# A bare word after the subcommand is fatal, named, never ignored.
run_expect_fail_saying(NEEDLES "unexpected argument 'stray'"
                       ARGS storage --trh=1200 stray words)

# Unsigned options are base-10 digits that fit their type: a leading
# zero is not octal, and a sign or a value past 32 bits is fatal,
# quoting the input.  Seeds alone also take the CSV's 0x spelling.
execute_process(COMMAND ${SRS_SIM} storage --trh=02260
                RESULT_VARIABLE storage_rc OUTPUT_VARIABLE storage_out
                ERROR_QUIET)
if(NOT storage_rc EQUAL 0 OR NOT storage_out MATCHES "T_RH = 2260\n")
  message(FATAL_ERROR "storage --trh=02260 did not read 2260:\n"
          "${storage_out}")
endif()
foreach(bad "-1" "4294968496")
  run_expect_fail_saying(NEEDLES "'${bad}'" ARGS storage --trh=${bad})
endforeach()
# StorageModel alone sizes the pin buffer: 96 entries (420 B) below
# T_RH 4800, as in table4_storage.  A T_S of zero at either swap rate
# is fatal by its pair, as in perf.
execute_process(COMMAND ${SRS_SIM} storage --trh=1200
                RESULT_VARIABLE storage_rc OUTPUT_VARIABLE storage_out
                ERROR_QUIET)
if(NOT storage_rc EQUAL 0
   OR NOT storage_out MATCHES "\nPin Buffer +0\\.0K +0\\.4K\n")
  message(FATAL_ERROR "storage --trh=1200 did not print a 0.4K pin "
          "buffer:\n${storage_out}")
endif()
run_expect_fail_saying(
  NEEDLES "trh=5 rate=6: T_S = trh/rate must be at least 1"
  ARGS storage --trh=5)
# The trackers are the two the paper evaluates.
run_expect_fail_saying(
  NEEDLES "unknown tracker 'cbt' (want misra-gries|hydra)"
  ARGS perf --workload=gups --mitigation=rrs --tracker=cbt
       --cycles=20000 --epoch=10000)
set(seed_args sweep --workloads=gups --mitigations=rrs --trh=1200
    --rates=6 --cycles=20000 --epoch=10000 --threads=1 --journal=none)
foreach(seed 0x5eed 24301)
  run_expect_ok(${seed_args} --seed=${seed}
                --out=${CMAKE_CURRENT_BINARY_DIR}/seed_${seed}.csv)
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${CMAKE_CURRENT_BINARY_DIR}/seed_0x5eed.csv
                ${CMAKE_CURRENT_BINARY_DIR}/seed_24301.csv
                RESULT_VARIABLE seed_diff)
if(NOT seed_diff EQUAL 0)
  message(FATAL_ERROR "--seed=0x5eed and --seed=24301 differ")
endif()
# perf runs a one-cell sweep: its CSV is the sweep's for the same flags.
execute_process(COMMAND ${SRS_SIM} perf --workload=gups --mitigation=rrs
                --trh=1200 --rate=6 --cycles=60000 --epoch=25000 --csv
                RESULT_VARIABLE perf_rc
                OUTPUT_FILE ${CMAKE_CURRENT_BINARY_DIR}/perf_cell.csv)
run_expect_ok(sweep --workloads=gups --mitigations=rrs --trh=1200
              --rates=6 --cycles=60000 --epoch=25000 --threads=2
              --out=${CMAKE_CURRENT_BINARY_DIR}/perf_sweep.csv
              --journal=none)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${CMAKE_CURRENT_BINARY_DIR}/perf_cell.csv
                ${CMAKE_CURRENT_BINARY_DIR}/perf_sweep.csv
                RESULT_VARIABLE perf_diff)
if(NOT perf_rc EQUAL 0 OR NOT perf_diff EQUAL 0)
  message(FATAL_ERROR "perf --csv (exit ${perf_rc}) differs from the "
          "sweep CSV of its cell")
endif()

# MIX points and Monte-Carlo validation.
run_expect_ok(sweep --workloads= --mix=1 --mitigations=rrs --trh=1200
              --rates=6 --cycles=60000 --epoch=25000 --threads=2)
# A MIX point is a workload spec: `--mix=N` is shorthand for spelling
# mix0..mix<N-1> after the other workloads, a plan shards the one list
# (no --mix flags on its shard lines), and the sharded run merges to
# the one-process bytes.  Off-grammar spellings are fatal, named.
set(mix_grid --mitigations=rrs --trh=1200 --rates=6 --cycles=60000
    --epoch=25000)
run_expect_ok(sweep --workloads=gups --mix=3 ${mix_grid} --threads=2
              --out=${CMAKE_CURRENT_BINARY_DIR}/mix_short.csv --journal=none)
run_expect_ok(sweep --workloads=gups,mix0,mix1,mix2 ${mix_grid} --threads=1
              --out=${CMAKE_CURRENT_BINARY_DIR}/mix_spelled.csv
              --journal=none)
file(REMOVE_RECURSE ${CMAKE_CURRENT_BINARY_DIR}/mix_shards)
execute_process(COMMAND ${SRS_SIM} orchestrate --workloads=gups --mix=3
                ${mix_grid} --shards=2 --plan
                --dir=${CMAKE_CURRENT_BINARY_DIR}/mix_shards
                OUTPUT_VARIABLE mix_plan RESULT_VARIABLE mix_plan_rc
                ERROR_QUIET)
if(NOT mix_plan_rc EQUAL 0
   OR NOT mix_plan MATCHES " --workloads=gups,mix0 "
   OR NOT mix_plan MATCHES " --workloads=mix1,mix2 "
   OR mix_plan MATCHES " --mix")
  message(FATAL_ERROR "the MIX plan does not slice the workload list:\n"
          "${mix_plan}")
endif()
run_expect_ok(orchestrate --workloads=gups --mix=3 ${mix_grid} --shards=2
              --jobs=2 --dir=${CMAKE_CURRENT_BINARY_DIR}/mix_shards
              --out=${CMAKE_CURRENT_BINARY_DIR}/mix_merged.csv)
foreach(mix_csv mix_spelled mix_merged)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${CMAKE_CURRENT_BINARY_DIR}/mix_short.csv
                  ${CMAKE_CURRENT_BINARY_DIR}/${mix_csv}.csv
                  RESULT_VARIABLE mix_diff)
  if(NOT mix_diff EQUAL 0)
    message(FATAL_ERROR "${mix_csv}.csv differs from the --mix=3 sweep")
  endif()
endforeach()
foreach(bad mix mix01 mix-1 mix4294967296)
  run_expect_fail_saying(NEEDLES "'${bad}'" "mix<N>"
                         ARGS sweep --workloads=${bad} ${mix_grid})
endforeach()
# The attack reports the strata its campaign sampled and rejects --shards.
set(attack_args attack --defense=rrs --trh=2400 --rate=6 --rounds=900
    --montecarlo=2000 --threads=2)
execute_process(COMMAND ${SRS_SIM} ${attack_args}
                RESULT_VARIABLE attack_rc OUTPUT_VARIABLE attack_out
                ERROR_VARIABLE attack_err)
if(NOT attack_rc EQUAL 0)
  message(FATAL_ERROR "srs_sim ${attack_args} exited ${attack_rc}\n"
          "${attack_out}${attack_err}")
endif()
if(NOT attack_out MATCHES "2000 iters, 16 strata")
  message(FATAL_ERROR "attack does not report its 16 strata:\n${attack_out}")
endif()
run_expect_fail(${attack_args} --shards=4)
# --banks above 1 is modelled for analytic RRS only: the campaign and
# the SRS model are single-bank, so they refuse it instead of
# echoing a bank count they ignore.
run_expect_ok(attack --defense=rrs --trh=2400 --rate=6 --banks=4)
run_expect_fail(attack --defense=rrs --trh=2400 --rate=6 --banks=4
                --montecarlo=2000)
run_expect_fail(attack --defense=srs --trh=2400 --rate=6 --banks=4)
# --rounds is `best` or base-10 digits below the best-N sentinel:
# anything else (and an empty attack --rounds=) is fatal, quoting it.
foreach(bad "-1" "abc" "1e3" "18446744073709551615")
  run_expect_fail_saying(NEEDLES "--rounds: '${bad}'"
                         ARGS attack --defense=rrs --trh=4800 --rate=6
                              --rounds=${bad})
  run_expect_fail_saying(NEEDLES "--rounds: '${bad}'"
                         ARGS security --defenses=rrs --trh=4800 --rates=6
                              --rounds=${bad})
endforeach()
run_expect_fail_saying(NEEDLES "--rounds: ''"
                       ARGS attack --defense=rrs --trh=4800 --rate=6
                            --rounds=)
run_expect_ok(security --defenses=rrs --trh=4800 --rates=6
              --rounds=best,900)

# Resume roundtrip: a full CSV resumes to byte-identical output
# without recomputing anything.
set(smoke_dir ${CMAKE_CURRENT_BINARY_DIR})
set(smoke_args sweep --workloads=gups --mitigations=rrs,scale-srs
    --trh=1200 --rates=6 --cycles=60000 --epoch=25000 --threads=2)
run_expect_ok(${smoke_args} --out=${smoke_dir}/smoke_full.csv)
run_expect_ok(${smoke_args} --resume=${smoke_dir}/smoke_full.csv
              --out=${smoke_dir}/smoke_resumed.csv --journal=none)
# The journal of the full run is itself a resumable checkpoint.
run_expect_ok(${smoke_args} --resume=${smoke_dir}/smoke_full.csv.journal
              --out=${smoke_dir}/smoke_journal.csv --journal=none)
# A copy cut mid-line at byte 300 (inside the first row: a sweep
# killed mid-write) resumes to the same bytes, recomputing the torn
# line, and that run's journal resumes to them again.
# (file(READ ... LIMIT) would end a cut line with a newline.)
file(READ ${smoke_dir}/smoke_full.csv smoke_full)
string(SUBSTRING "${smoke_full}" 0 300 smoke_head)
file(WRITE ${smoke_dir}/smoke_cut.csv "${smoke_head}")
run_expect_ok(${smoke_args} --resume=${smoke_dir}/smoke_cut.csv
              --out=${smoke_dir}/smoke_cut_resumed.csv)
run_expect_ok(${smoke_args}
              --resume=${smoke_dir}/smoke_cut_resumed.csv.journal
              --out=${smoke_dir}/smoke_cut_journal.csv --journal=none)
foreach(resumed smoke_resumed smoke_journal smoke_cut_resumed
        smoke_cut_journal)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${smoke_dir}/smoke_full.csv ${smoke_dir}/${resumed}.csv
                  RESULT_VARIABLE smoke_diff)
  if(NOT smoke_diff EQUAL 0)
    message(FATAL_ERROR "${resumed}.csv differs from the fresh run")
  endif()
endforeach()

# Trace-file workloads and the system axes: record a synthetic
# workload as a USIMM trace, then sweep the recorded file next to a
# synthetic workload across both page policies — threads=1 and
# threads=2 must produce byte-identical CSVs, and the identity
# columns must carry the trace spelling and both policy names.
run_expect_ok(trace --workload=gups --records=20000 --seed=7
              --out=${smoke_dir}/smoke_trace.usimm)
set(axes_grid --workloads=gcc --trace=${smoke_dir}/smoke_trace.usimm
    --mitigations=rrs --trh=1200 --rates=6 --page-policy=closed,open
    --cycles=60000 --epoch=25000)
run_expect_ok(sweep ${axes_grid} --threads=1
              --out=${smoke_dir}/axes_t1.csv --journal=none)
run_expect_ok(sweep ${axes_grid} --threads=2
              --out=${smoke_dir}/axes_t2.csv --journal=none)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/axes_t1.csv ${smoke_dir}/axes_t2.csv
                RESULT_VARIABLE axes_diff)
if(NOT axes_diff EQUAL 0)
  message(FATAL_ERROR "trace/page-policy sweep is thread-count dependent")
endif()
file(READ ${smoke_dir}/axes_t1.csv axes_csv)
foreach(needle "trace:${smoke_dir}/smoke_trace.usimm" ",closed," ",open,")
  if(NOT axes_csv MATCHES "${needle}")
    message(FATAL_ERROR "sweep CSV lacks identity field '${needle}'")
  endif()
endforeach()
# A tRC-override axis sweeps through the same mechanism.
run_expect_ok(sweep --workloads=gups --mitigations=rrs --trh=1200
              --rates=6 --trc=48 --cycles=60000 --epoch=25000
              --threads=2)

# The DDR5 preset and the per-knob timing overrides are system axes
# too: a preset + timing-override grid must be thread-count invariant,
# carry the chained axes spellings in the identity column, and ride
# manifest, shard command line and merge byte-identically (the
# Section VIII-5 recipe).
set(ddr5_grid --workloads=gups --mitigations=rrs --trh=1200 --rates=6
    --preset=ddr4,ddr5 --trcd=0,15 --trp=0,15 --trefi=0,5000 --trfc=0,295
    --cycles=60000 --epoch=25000)
run_expect_ok(sweep ${ddr5_grid} --threads=1
              --out=${smoke_dir}/ddr5_t1.csv --journal=none)
run_expect_ok(sweep ${ddr5_grid} --threads=2
              --out=${smoke_dir}/ddr5_t2.csv --journal=none)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/ddr5_t1.csv ${smoke_dir}/ddr5_t2.csv
                RESULT_VARIABLE ddr5_diff)
if(NOT ddr5_diff EQUAL 0)
  message(FATAL_ERROR "preset/timing sweep is thread-count dependent")
endif()
file(READ ${smoke_dir}/ddr5_t1.csv ddr5_csv)
foreach(needle ",closed," ",closed@ddr5," ",closed@trefi=5000,"
        ",closed@ddr5@trefi=5000,"
        ",closed@ddr5@trcd=15@trp=15@trefi=5000@trfc=295,")
  if(NOT ddr5_csv MATCHES "${needle}")
    message(FATAL_ERROR "sweep CSV lacks axes field '${needle}'")
  endif()
endforeach()
file(REMOVE_RECURSE ${smoke_dir}/ddr5_shards)
run_expect_ok(orchestrate ${ddr5_grid} --shards=2 --jobs=2 --threads=1
              --out=${smoke_dir}/ddr5_merged.csv
              --dir=${smoke_dir}/ddr5_shards)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/ddr5_t1.csv ${smoke_dir}/ddr5_merged.csv
                RESULT_VARIABLE ddr5_orch_diff)
if(NOT ddr5_orch_diff EQUAL 0)
  message(FATAL_ERROR "orchestrated preset/timing CSV differs")
endif()
run_expect_ok(merge --manifest=${smoke_dir}/ddr5_shards/manifest
              --out=${smoke_dir}/ddr5_stitched.csv)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/ddr5_t1.csv ${smoke_dir}/ddr5_stitched.csv
                RESULT_VARIABLE ddr5_merge_diff)
if(NOT ddr5_merge_diff EQUAL 0)
  message(FATAL_ERROR "stitch-only preset/timing CSV differs")
endif()

# The recorded trace rides orchestrate/merge too: the merged CSV is
# byte-identical to the single-process sweep of the same grid.
file(REMOVE_RECURSE ${smoke_dir}/axes_shards)
run_expect_ok(orchestrate ${axes_grid} --shards=2 --jobs=2 --threads=1
              --out=${smoke_dir}/axes_merged.csv
              --dir=${smoke_dir}/axes_shards)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/axes_t1.csv ${smoke_dir}/axes_merged.csv
                RESULT_VARIABLE axes_orch_diff)
if(NOT axes_orch_diff EQUAL 0)
  message(FATAL_ERROR "orchestrated trace/page-policy CSV differs")
endif()

# A text plan is shell-safe: a per-core trace list spells its paths
# with `;`, which the plan single-quotes.  Run the first shard's line
# through `sh`, as a scheduler on another machine would, then finish
# the plan with orchestrate on the same flags and --dir: shard 0 is
# already complete, only shard 1 launches, and the merged CSV is the
# single-process sweep's.
set(trace8 "${smoke_dir}/smoke_trace.usimm")
foreach(core RANGE 1 7)
  string(APPEND trace8 "\;${smoke_dir}/smoke_trace.usimm")
endforeach()
set(sh_grid "--workloads=trace:${trace8},gups" --mitigations=rrs
    --trh=1200 --rates=6 --cycles=60000 --epoch=25000)
file(REMOVE_RECURSE ${smoke_dir}/sh_shards)
# (Not through run_expect_ok: ${ARGV} would split the path list.)
execute_process(COMMAND ${SRS_SIM} sweep ${sh_grid} --threads=2
                --out=${smoke_dir}/sh_single.csv --journal=none
                RESULT_VARIABLE sh_single_rc)
if(NOT sh_single_rc EQUAL 0)
  message(FATAL_ERROR "the single-process sweep of the plan grid failed")
endif()
execute_process(COMMAND ${SRS_SIM} orchestrate ${sh_grid} --shards=2 --plan
                --dir=${smoke_dir}/sh_shards
                OUTPUT_VARIABLE sh_plan RESULT_VARIABLE sh_plan_rc
                ERROR_QUIET)
string(REGEX MATCH "\n([^#\n][^\n]*)" sh_line "${sh_plan}")
if(NOT sh_plan_rc EQUAL 0 OR sh_line STREQUAL "")
  message(FATAL_ERROR "orchestrate --plan printed no shard line:\n${sh_plan}")
endif()
file(WRITE ${smoke_dir}/sh_shard0.sh "${CMAKE_MATCH_1}\n")
execute_process(COMMAND sh ${smoke_dir}/sh_shard0.sh
                RESULT_VARIABLE sh_rc OUTPUT_VARIABLE sh_out
                ERROR_VARIABLE sh_err)
if(NOT sh_rc EQUAL 0 OR NOT sh_out STREQUAL "")
  message(FATAL_ERROR "sh exited ${sh_rc} on the plan line "
          "${smoke_dir}/sh_shard0.sh:\n${sh_out}${sh_err}")
endif()
execute_process(COMMAND ${SRS_SIM} orchestrate ${sh_grid} --shards=2
                --jobs=2 --dir=${smoke_dir}/sh_shards
                --out=${smoke_dir}/sh_merged.csv
                RESULT_VARIABLE sh_orch_rc ERROR_VARIABLE sh_orch_err
                OUTPUT_QUIET)
if(NOT sh_orch_rc EQUAL 0
   OR NOT sh_orch_err MATCHES "shard 0 already complete"
   OR sh_orch_err MATCHES "shard 0 of 2 launched"
   OR NOT sh_orch_err MATCHES "shard 1 of 2 launched")
  message(FATAL_ERROR "orchestrate did not finish the plan run by hand "
          "(exit ${sh_orch_rc}):\n${sh_orch_err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/sh_single.csv ${smoke_dir}/sh_merged.csv
                RESULT_VARIABLE sh_diff)
if(NOT sh_diff EQUAL 0)
  message(FATAL_ERROR "the plan finished after a shard run through sh "
          "differs from the single-process sweep")
endif()

# Orchestrate: split the same grid into 3 shards (one per workload),
# run them as supervised child processes two at a time, and require
# the merged CSV to be byte-identical to a single-process sweep.
set(orch_grid --workloads=gups,gcc,hmmer --mitigations=rrs --trh=1200
    --rates=3,6 --cycles=60000 --epoch=25000)
file(REMOVE_RECURSE ${smoke_dir}/orch_shards ${smoke_dir}/orch_plan)
run_expect_ok(sweep ${orch_grid} --threads=2
              --out=${smoke_dir}/orch_single.csv --journal=none)
run_expect_ok(orchestrate ${orch_grid} --shards=3 --jobs=2 --threads=1
              --out=${smoke_dir}/orch_merged.csv
              --dir=${smoke_dir}/orch_shards)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/orch_single.csv
                ${smoke_dir}/orch_merged.csv
                RESULT_VARIABLE orch_diff)
if(NOT orch_diff EQUAL 0)
  message(FATAL_ERROR "orchestrated CSV differs from single-process sweep")
endif()
# Re-orchestrating a finished run launches nothing and still merges
# identically; stitch-only `merge` reads the same manifest.
run_expect_ok(orchestrate ${orch_grid} --shards=3 --jobs=2 --threads=1
              --out=${smoke_dir}/orch_again.csv
              --dir=${smoke_dir}/orch_shards)
run_expect_ok(merge --manifest=${smoke_dir}/orch_shards/manifest
              --out=${smoke_dir}/orch_stitched.csv)
foreach(redone orch_again orch_stitched)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${smoke_dir}/orch_single.csv
                  ${smoke_dir}/${redone}.csv
                  RESULT_VARIABLE orch_rediff)
  if(NOT orch_rediff EQUAL 0)
    message(FATAL_ERROR "${redone}.csv differs from single-process sweep")
  endif()
endforeach()
# --plan writes the manifest and the per-shard commands without
# running anything; merging the unrun plan must fail (no shard CSVs).
run_expect_ok(orchestrate ${orch_grid} --shards=3 --plan
              --dir=${smoke_dir}/orch_plan)
if(NOT EXISTS ${smoke_dir}/orch_plan/manifest)
  message(FATAL_ERROR "orchestrate --plan did not write a manifest")
endif()
if(EXISTS ${smoke_dir}/orch_plan/shard0.csv)
  message(FATAL_ERROR "orchestrate --plan ran a shard")
endif()
run_expect_fail(merge --manifest=${smoke_dir}/orch_plan/manifest)
# The plan has one format, the shell lines above.
run_expect_fail_saying(NEEDLES "unknown option --plan-format"
                       ARGS orchestrate ${orch_grid} --shards=3 --plan
                            --plan-format=json --dir=${smoke_dir}/orch_plan)

# A tampered shard must be rejected by merge, never mixed in.
file(READ ${smoke_dir}/orch_shards/shard1.csv shard1_text)
string(REPLACE ",1200,3," ",4800,3," shard1_bad "${shard1_text}")
file(WRITE ${smoke_dir}/orch_shards/shard1.csv "${shard1_bad}")
run_expect_fail(merge --manifest=${smoke_dir}/orch_shards/manifest
                --out=${smoke_dir}/orch_rejected.csv)
file(WRITE ${smoke_dir}/orch_shards/shard1.csv "${shard1_text}")

# A killed shard: the wrapper --sim logs every argv and, on the first
# launch overall only, runs the real srs_sim, cuts the shard journal
# back to its header and first row, deletes the shard CSV, saves a
# `monitor` snapshot of the live run and dies by SIGKILL.  The
# supervisor must relaunch that shard from its journal and merge the
# single-process bytes.  With --retries=0 the run fails instead, and
# re-running it resumes and merges the same bytes.
string(CONFIGURE [=[#!/bin/sh
for arg in "$@"; do
  case "$arg" in --out=*) out="${arg#--out=}" ;; esac
done
dir=$(dirname "$out")
echo "$*" >> "$dir/argv.log"
if mkdir "$dir/first_launch" 2>/dev/null; then
  "@SRS_SIM@" "$@" || exit 1
  head -n 2 "$out.journal" > "$out.journal.cut"
  mv "$out.journal.cut" "$out.journal"
  rm -f "$out"
  echo "$out" > "$dir/killed"
  "@SRS_SIM@" monitor --dir="$dir" > "$dir/monitor_live.json" 2>/dev/null
  kill -KILL $$
fi
exec "@SRS_SIM@" "$@"
]=] kill_script @ONLY)
set(kill_sim ${smoke_dir}/kill_sim.sh)
file(WRITE ${kill_sim} "${kill_script}")
file(CHMOD ${kill_sim} PERMISSIONS OWNER_READ OWNER_WRITE OWNER_EXECUTE)
# Run an orchestrate whose first shard launch goes through the wrapper
# and dies; require the relaunch from that shard's journal, a mid-run
# monitor snapshot with fleet and shard lines, and the single-process
# bytes:
#   run_killing_one_shard(<shard dir> <merged csv> <argv>...)
function(run_killing_one_shard dir merged)
  execute_process(COMMAND ${SRS_SIM} ${ARGN} --out=${merged}
                  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "srs_sim ${ARGN} did not survive a killed "
            "shard:\n${err}")
  endif()
  if(NOT err MATCHES "relaunching")
    message(FATAL_ERROR "srs_sim ${ARGN} did not relaunch the killed "
            "shard:\n${err}")
  endif()
  file(STRINGS ${dir}/killed killed_csv)
  file(READ ${dir}/argv.log argv_log)
  string(FIND "${argv_log}" "--resume=${killed_csv}.journal" resumed)
  if(resumed EQUAL -1)
    message(FATAL_ERROR "the relaunch of ${killed_csv} did not resume "
            "from its journal:\n${argv_log}")
  endif()
  file(READ ${dir}/monitor_live.json live)
  foreach(needle "\"type\":\"fleet\"" "\"type\":\"shard\"")
    if(NOT live MATCHES "${needle}")
      message(FATAL_ERROR "the monitor snapshot taken before the kill "
              "lacks '${needle}':\n${live}")
    endif()
  endforeach()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${smoke_dir}/orch_single.csv ${merged}
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "CSV merged after a killed shard differs")
  endif()
endfunction()
file(REMOVE_RECURSE ${smoke_dir}/kill_shards ${smoke_dir}/kill0_shards)
set(kill_args orchestrate ${orch_grid} --shards=3 --jobs=2 --threads=1
    --sim=${kill_sim})
run_killing_one_shard(${smoke_dir}/kill_shards
                      ${smoke_dir}/kill_merged.csv ${kill_args}
                      --dir=${smoke_dir}/kill_shards)
# The supervisor writes no status file: a `monitor` snapshot from the
# journals alone is the one status, and it reports every shard done.
if(EXISTS ${smoke_dir}/kill_shards/farm.status)
  message(FATAL_ERROR "orchestrate wrote ${smoke_dir}/kill_shards/farm.status")
endif()
execute_process(COMMAND ${SRS_SIM} monitor --dir=${smoke_dir}/kill_shards
                OUTPUT_VARIABLE kill_monitor RESULT_VARIABLE kill_monitor_rc
                ERROR_QUIET)
foreach(needle "\"type\":\"shard\"" "\"pct\":100.0"
        "{\"type\":\"fleet\",\"shards\":3,\"pending\":0,\"running\":0,\"done\":3,")
  if(NOT kill_monitor_rc EQUAL 0 OR NOT kill_monitor MATCHES "${needle}")
    message(FATAL_ERROR "monitor (exit ${kill_monitor_rc}) lacks "
            "'${needle}':\n${kill_monitor}")
  endif()
endforeach()
execute_process(COMMAND ${SRS_SIM} ${kill_args} --retries=0
                --out=${smoke_dir}/kill0_merged.csv
                --dir=${smoke_dir}/kill0_shards
                RESULT_VARIABLE kill0_rc OUTPUT_QUIET ERROR_QUIET)
if(kill0_rc EQUAL 0)
  message(FATAL_ERROR "orchestrate --retries=0 survived a killed shard")
endif()
run_expect_ok(${kill_args} --retries=0
              --out=${smoke_dir}/kill0_merged.csv
              --dir=${smoke_dir}/kill0_shards)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/orch_single.csv
                ${smoke_dir}/kill0_merged.csv
                RESULT_VARIABLE kill0_diff)
if(NOT kill0_diff EQUAL 0)
  message(FATAL_ERROR "re-run after a failed orchestrate differs")
endif()

# Generator workloads: a zipf + blend grid must be thread-count
# invariant, carry the canonical spellings in the identity column,
# and emit the v6 tail-latency + Monte-Carlo-confidence
# header.
set(gen_grid --workloads=zipf:4096@s=0.99,blend:zipf:4096@s=0.9+attack@0.05
    --mitigations=rrs --trh=1200 --rates=6 --cycles=60000 --epoch=25000)
run_expect_ok(sweep ${gen_grid} --threads=1
              --out=${smoke_dir}/gen_t1.csv --journal=none)
run_expect_ok(sweep ${gen_grid} --threads=8
              --out=${smoke_dir}/gen_t8.csv --journal=none)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/gen_t1.csv ${smoke_dir}/gen_t8.csv
                RESULT_VARIABLE gen_diff)
if(NOT gen_diff EQUAL 0)
  message(FATAL_ERROR "generator sweep is thread-count dependent")
endif()
file(READ ${smoke_dir}/gen_t1.csv gen_csv)
foreach(needle ",zipf:4096@s=0.99," ",blend:zipf:4096@s=0.9\\+attack@0.05,"
        ",p50_lat,p99_lat,p999_lat,lat_samples,iterations,censored,p_break,ci_lo,ci_hi")
  if(NOT gen_csv MATCHES "${needle}")
    message(FATAL_ERROR "generator sweep CSV lacks '${needle}'")
  endif()
endforeach()
# The generator grid rides orchestrate/merge byte-identically too.
file(REMOVE_RECURSE ${smoke_dir}/gen_shards)
run_expect_ok(orchestrate ${gen_grid} --shards=2 --jobs=2 --threads=1
              --out=${smoke_dir}/gen_merged.csv
              --dir=${smoke_dir}/gen_shards)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/gen_t1.csv ${smoke_dir}/gen_merged.csv
                RESULT_VARIABLE gen_orch_diff)
if(NOT gen_orch_diff EQUAL 0)
  message(FATAL_ERROR "orchestrated generator CSV differs")
endif()
# Malformed generator spellings must be fatal up front, quoting the
# offending input verbatim and listing the grammar.
foreach(bad "zipf:0" "blend:zipf:64@s=1" "hotspot:4096@hot=1.5@p=0.5")
  run_expect_fail_saying(NEEDLES "${bad}" "zipf:<rows>@s=<skew>"
                         ARGS sweep --workloads=${bad} --mitigations=rrs
                              --trh=1200 --rates=6)
endforeach()

# The DRAM organization is a system axis too: an org grid must be
# invariant under --threads, carry the @org= spellings in the
# identity column, and ride orchestrate/merge byte-identically.
set(org_grid --workloads=gups --mitigations=rrs,scale-srs --trh=1200
    --rates=6 --org=1x1x16,2x1x16,2x2x32 --cycles=60000 --epoch=25000)
run_expect_ok(sweep ${org_grid} --threads=1
              --out=${smoke_dir}/org_serial.csv --journal=none)
run_expect_ok(sweep ${org_grid} --threads=8
              --out=${smoke_dir}/org_parallel.csv --journal=none)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/org_serial.csv
                ${smoke_dir}/org_parallel.csv
                RESULT_VARIABLE org_diff)
if(NOT org_diff EQUAL 0)
  message(FATAL_ERROR "org sweep depends on the thread count")
endif()
# A cell is one serial simulation: the removed per-cell worker flag
# must fail loudly rather than be ignored.
run_expect_fail(sweep ${org_grid} --channel-workers=2)
file(READ ${smoke_dir}/org_serial.csv org_csv)
foreach(needle ",closed@org=1x1x16," ",closed,")
  if(NOT org_csv MATCHES "${needle}")
    message(FATAL_ERROR "org sweep CSV lacks axes field '${needle}'")
  endif()
endforeach()
if(NOT org_csv MATCHES ",closed@org=2x2x32,")
  message(FATAL_ERROR "org sweep CSV lacks the 2x2x32 axes field")
endif()
file(REMOVE_RECURSE ${smoke_dir}/org_shards)
run_expect_ok(orchestrate ${org_grid} --shards=2 --jobs=2 --threads=1
              --out=${smoke_dir}/org_merged.csv
              --dir=${smoke_dir}/org_shards)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/org_serial.csv ${smoke_dir}/org_merged.csv
                RESULT_VARIABLE org_orch_diff)
if(NOT org_orch_diff EQUAL 0)
  message(FATAL_ERROR "orchestrated org CSV differs")
endif()
# Stitch-only merge reads the org manifest, which names its orgs.
run_expect_ok(merge --manifest=${smoke_dir}/org_shards/manifest
              --out=${smoke_dir}/org_stitched.csv)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/org_serial.csv ${smoke_dir}/org_stitched.csv
                RESULT_VARIABLE org_merge_diff)
if(NOT org_merge_diff EQUAL 0)
  message(FATAL_ERROR "stitch-only org CSV differs")
endif()
file(STRINGS ${smoke_dir}/org_shards/manifest org_manifest_orgs
     REGEX "^org=")
if(NOT org_manifest_orgs STREQUAL "org=1x1x16,2x1x16,2x2x32")
  message(FATAL_ERROR "org manifest names its orgs as "
          "'${org_manifest_orgs}'")
endif()
# Malformed or out-of-range --org values are fatal up front; a
# malformed one is quoted next to the CxRxB grammar.
run_expect_fail_saying(NEEDLES "2x2" "CxRxB"
                       ARGS sweep --workloads=gups --mitigations=rrs
                            --trh=1200 --rates=6 --org=2x2)
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --org=0x1x16)
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --org=2x2x128)

# Unknown axis values must be fatal with the accepted spellings
# listed.
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --page-policy=half-open)
run_expect_fail(sweep --workloads=trace: --mitigations=rrs --trh=1200
                --rates=6)
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --trc=fast)
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --preset=ddr6)
# Inconsistent timings (tRC < tRCD + tRP) are fatal up front.
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --trc=20)
# A timing override past its bound is fatal, quoting it and the bound,
# in every grid reader (`security` used to write it into an axes field
# that no reader accepts).
foreach(reader "security;--defenses=rrs;--trh=4800;--rates=6"
        "sweep;--workloads=gups;--mitigations=rrs;--trh=1200;--rates=6")
  run_expect_fail_saying(NEEDLES "trc override of 20000 ns" "1..10000 ns"
                         ARGS ${reader} --trc=20000)
endforeach()
# A tRFC not below tREFI (a refresh that never ends before the next is
# due) is fatal, naming both, in every grid reader (`security` used to
# write a time-to-break of 7.9e13 s; `sweep` failed later with an
# epoch message that named neither timing).
foreach(reader "security;--defenses=rrs,srs;--trh=4800;--rates=6"
        "sweep;--workloads=gups;--mitigations=rrs;--trh=1200;--rates=6")
  run_expect_fail_saying(NEEDLES "tRFC (350ns)" "tREFI (100ns)"
                         ARGS ${reader} --trefi=100 --trfc=350)
endforeach()
# A zero swap rate, or a trh/rate pair whose T_S rounds to zero, is
# fatal by its pair before any simulation or plan (a zero rate used to
# die of SIGFPE in a worker).
set(tiny_sweep sweep --workloads=gups --mitigations=rrs --cycles=20000
    --threads=1 --journal=none)
foreach(run "${tiny_sweep};--trh=1200;--rates=0;--epoch=10000"
        "perf;--workload=gups;--mitigation=rrs;--trh=1200;--rate=0;--cycles=20000;--epoch=10000"
        "orchestrate;--workloads=gups;--mitigations=rrs;--trh=1200;--rates=0;--plan;--dir=${smoke_dir}/rate0_plan")
  run_expect_fail_saying(NEEDLES "trh=1200 rate=0" ARGS ${run})
endforeach()
run_expect_fail_saying(NEEDLES "trh=5 rate=6"
                       ARGS ${tiny_sweep} --trh=5 --rates=6 --epoch=10000)
# A refresh epoch shorter than one tRC is fatal by its length (its
# trackers used to be built with no entries and abort).
run_expect_fail_saying(NEEDLES "refresh epoch of 100 cycles"
                       ARGS ${tiny_sweep} --trh=1200 --rates=6 --epoch=100)
run_expect_fail_saying(NEEDLES "refresh epoch of 10000 cycles"
                               "tRC (10000 ns)"
                       ARGS ${tiny_sweep} --trh=1200 --rates=6 --trc=10000)
# An empty system-axes list is fatal by its flag, with one message
# for all three grid readers.
foreach(reader "security;--defenses=rrs;--trh=4800;--rates=6"
        "sweep;--workloads=gups;--mitigations=rrs;--trh=1200;--rates=6"
        "orchestrate;--workloads=gups;--mitigations=rrs;--trh=1200;--rates=6;--plan;--dir=${smoke_dir}/empty_axis_plan")
  foreach(flag org page-policy trfc)
    run_expect_fail_saying(NEEDLES "--${flag}: empty list"
                           ARGS ${reader} --${flag}=)
  endforeach()
endforeach()
# Schema-v1 to v5 checkpoints and v1 to v7 manifests fail with the
# one schema message, quoting what they found, instead of a cryptic
# identity mismatch (a v6 or v7 CSV is a v8 CSV: v7 and v8 changed the
# manifest).
file(READ ${smoke_dir}/orch_shards/manifest manifest_v8)
if(NOT manifest_v8 MATCHES "version=8")
  message(FATAL_ERROR "orchestrate manifest is not schema v8")
endif()
set(stale_headers
    "index,workload,mitigation,tracker,trh,rate,seed,ipc,baseline_ipc,normalized,swaps,unswap_swaps,place_backs,rows_pinned,max_row_acts"
    "index,workload_spec,mitigation,tracker,trh,rate,policy,seed,ipc,baseline_ipc,normalized,swaps,unswap_swaps,place_backs,rows_pinned,max_row_acts"
    "index,workload_spec,mitigation,tracker,trh,rate,axes,seed,ipc,baseline_ipc,normalized,swaps,unswap_swaps,place_backs,rows_pinned,max_row_acts"
    "index,workload_spec,mitigation,tracker,trh,rate,axes,seed,ipc,baseline_ipc,normalized,swaps,unswap_swaps,place_backs,rows_pinned,max_row_acts,p50_lat,p99_lat,p999_lat"
    "index,workload_spec,mitigation,tracker,trh,rate,axes,seed,ipc,baseline_ipc,normalized,swaps,unswap_swaps,place_backs,rows_pinned,max_row_acts,p50_lat,p99_lat,p999_lat,lat_samples")
foreach(stale_version 1 2 3 4 5 6 7)
  if(stale_version LESS 6)
    math(EXPR at "${stale_version} - 1")
    list(GET stale_headers ${at} stale_header)
    set(checkpoint ${smoke_dir}/v${stale_version}_checkpoint.csv)
    file(WRITE ${checkpoint} "${stale_header}\n")
    run_expect_fail_saying(
      NEEDLES "expected sweep CSV schema v8, found: ${stale_header}"
      ARGS sweep --workloads=gups --mitigations=rrs --trh=1200 --rates=6
           --resume=${checkpoint})
  endif()
  string(REPLACE "version=8" "version=${stale_version}" manifest_stale
         "${manifest_v8}")
  file(WRITE ${smoke_dir}/orch_shards/stale_manifest "${manifest_stale}")
  run_expect_fail_saying(
    NEEDLES "expected version 8, found: version=${stale_version}"
    ARGS merge --manifest=${smoke_dir}/orch_shards/stale_manifest)
endforeach()
# A manifest line is named by its file and key, never as a flag: a
# leftover v6 `mix` or v7 `cores` key, a v7 axis-list name, and a
# malformed value.
set(bad_manifest ${smoke_dir}/orch_shards/bad_manifest)
set(bad_mix "${manifest_v8}mix=0\n")
set(bad_cores "${manifest_v8}cores=8\n")
string(REPLACE "page-policy=closed" "policies=closed" bad_policies
       "${manifest_v8}")
string(REPLACE "cycles=60000" "cycles=6e4" bad_cycles "${manifest_v8}")
foreach(key mix cores policies cycles)
  file(WRITE ${bad_manifest} "${bad_${key}}")
  set(needle "unknown key '${key}'")
  if(key STREQUAL "cycles")
    set(needle "key cycles: '6e4'")
  endif()
  run_expect_fail_saying(NEEDLES "'${bad_manifest}': ${needle}"
                         ARGS merge --manifest=${bad_manifest})
endforeach()
file(REMOVE ${smoke_dir}/orch_shards/stale_manifest ${bad_manifest})
# A schema-4, 6 or 7 journal header stops `--resume` and the fleet
# monitor's journal scan with the same message, and so does a journal
# row that is no sweep row (the monitor used to count it as a finished
# cell).  `orchestrate` relaunches the shard with that `--resume` and
# gives up quoting the shard's last log line.
file(REMOVE_RECURSE ${smoke_dir}/stale_journal_shards)
run_expect_ok(orchestrate ${orch_grid} --shards=3 --plan
              --dir=${smoke_dir}/stale_journal_shards)
set(stale_journal_path ${smoke_dir}/stale_journal_shards/shard0.csv.journal)
foreach(stale_journal
        "# srs_sim sweep journal schema=4 cells=4 grid=0x0000000000000000 seed=0x0000000000000000"
        "# srs_sim sweep journal schema=6 cells=4 grid=0x0000000000000000 seed=0x0000000000000000"
        "# srs_sim sweep journal schema=7 cells=4 grid=0x0000000000000000 seed=0x0000000000000000"
        "this is not a sweep row")
  file(WRITE ${stale_journal_path} "${stale_journal}\n")
  foreach(reader "monitor;--dir=${smoke_dir}/stale_journal_shards"
          "sweep;--workloads=gups;--mitigations=rrs;--trh=1200;--rates=6;--resume=${stale_journal_path}"
          "orchestrate;${orch_grid};--shards=3;--jobs=1;--retries=0;--dir=${smoke_dir}/stale_journal_shards")
    run_expect_fail_saying(
      NEEDLES "expected sweep CSV schema v8, found: ${stale_journal}"
      ARGS ${reader})
  endforeach()
endforeach()
# So does a v8 journal header of another grid, and `orchestrate` quotes
# the shard's whole message, its found/expected lines included.
set(foreign_header "# srs_sim sweep journal schema=8 cells=4 grid=0x0000000000000000 seed=0x0000000000000000")
file(WRITE ${stale_journal_path} "${foreign_header}\n")
foreach(reader "monitor;--dir=${smoke_dir}/stale_journal_shards"
        "sweep;--workloads=gups;--mitigations=rrs;--trh=1200;--rates=6;--resume=${stale_journal_path}"
        "orchestrate;${orch_grid};--shards=3;--jobs=1;--retries=0;--dir=${smoke_dir}/stale_journal_shards")
  run_expect_fail_saying(NEEDLES "journal header describes a different grid"
                                 "found:    ${foreign_header}"
                         ARGS ${reader})
endforeach()

run_expect_fail(monitor)
run_expect_fail(monitor --dir=${smoke_dir}/no_such_dir)

# Security sweep: the security subcommand enumerates (axes, trh,
# rate) security cells with the same CSV schema the performance
# sweep writes, thread-count invariant, Monte-Carlo confidence
# columns live when a campaign runs and zero when analytic-only.
set(sec_grid --defenses=srs,rrs --trh=2400 --rates=6 --rounds=900,best)
run_expect_ok(security ${sec_grid} --montecarlo=2000 --threads=1
              --out=${smoke_dir}/sec_t1.csv)
run_expect_ok(security ${sec_grid} --montecarlo=2000 --threads=8
              --out=${smoke_dir}/sec_t8.csv)
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${smoke_dir}/sec_t1.csv ${smoke_dir}/sec_t8.csv
                RESULT_VARIABLE sec_diff)
if(NOT sec_diff EQUAL 0)
  message(FATAL_ERROR "security sweep is thread-count dependent")
endif()
file(READ ${smoke_dir}/sec_t1.csv sec_csv)
foreach(needle ",iterations,censored,p_break,ci_lo,ci_hi"
        ",attack:srs,srs,-,2400,6,closed,0x"
        ",attack:rrs@n=900,rrs,-,2400,6,closed,0x"
        ",attack:rrs@best,rrs,-,2400,6,closed,0x")
  if(NOT sec_csv MATCHES "${needle}")
    message(FATAL_ERROR "security sweep CSV lacks '${needle}'")
  endif()
endforeach()
if(NOT sec_csv MATCHES ",2000,[0-9]+,[0-9.e+-]+,")
  message(FATAL_ERROR "security CSV has no live Monte-Carlo columns")
endif()
# Analytic-only runs leave the campaign columns zeroed.
run_expect_ok(security --defenses=srs --trh=4800 --rates=6
              --out=${smoke_dir}/sec_analytic.csv)
file(READ ${smoke_dir}/sec_analytic.csv sec_analytic_csv)
if(NOT sec_analytic_csv MATCHES ",0,0,0,0,0\n")
  message(FATAL_ERROR
          "analytic-only security row has live campaign columns")
endif()
# The axes drive the derived attack environment: a ddr5 preset
# spells itself in the identity column.
run_expect_ok(security --defenses=rrs --preset=ddr4,ddr5 --trh=3100
              --rates=6 --rounds=best --out=${smoke_dir}/sec_presets.csv)
file(READ ${smoke_dir}/sec_presets.csv sec_presets_csv)
if(NOT sec_presets_csv MATCHES ",closed@ddr5,0x")
  message(FATAL_ERROR "security sweep CSV lacks the closed@ddr5 identity")
endif()
run_expect_fail(security --defenses=scale-rrs --trh=2400 --rates=6)
run_expect_fail(security ${sec_grid} --montecarlo=banana)

# Unknown flags must be fatal on every subcommand; so are a resume
# file that does not exist, a sweep with no workloads at all, a
# merge without a manifest, and an orchestration with zero shards.
run_expect_fail(list --bogus=1)
run_expect_fail(storage --thr=1200)
run_expect_fail(perf --workload=gups --cylces=1000)
run_expect_fail(sweep --workloads=gups --thread=2)
run_expect_fail(sweep --workloads=gups --mitigations=rrs --trh=1200
                --rates=6 --resume=${smoke_dir}/no_such_file.csv)
run_expect_fail(sweep --workloads= --mitigations=rrs --trh=1200
                --rates=6)
run_expect_fail(orchestrate ${orch_grid} --shard=3)
run_expect_fail(orchestrate ${orch_grid} --shards=0)
run_expect_fail(orchestrate --workloads= --mitigations=rrs --trh=1200
                --rates=6)
run_expect_fail(merge)
run_expect_fail(merge --manifest=${smoke_dir}/no_such_manifest)

# No subcommand / unknown subcommand -> usage + nonzero exit, and the
# usage text actually summarizes every subcommand's flags.
run_expect_fail()
run_expect_fail(frobnicate)
execute_process(COMMAND ${SRS_SIM} OUTPUT_VARIABLE usage_text
                RESULT_VARIABLE usage_rc ERROR_QUIET)
foreach(subcommand perf sweep orchestrate merge monitor attack
        security storage trace list
        --workloads --shards --manifest --montecarlo --defenses --rounds
        --trace --mix "mix<N>" --page-policy --preset --org
        --trc --trcd --trp --trefi --trfc "trace:"
        --watch --interval-ms)
  if(NOT usage_text MATCHES "${subcommand}")
    message(FATAL_ERROR "usage() does not mention '${subcommand}'")
  endif()
endforeach()

message(STATUS "cli_smoke passed")
