/**
 * @file
 * Lines of the sweep CSV schemas v1 through v5, shared by the
 * resume (test_sweep) and merge (test_orchestrator) suites: each
 * must fail SweepRunner::checkLine() with the one schema message,
 * quoting the line.
 */

#ifndef SRS_TESTS_STALE_SCHEMA_HH
#define SRS_TESTS_STALE_SCHEMA_HH

#include <string>
#include <vector>

namespace srs::test
{

/** The v1 through v5 CSV headers, oldest first. */
inline const std::vector<std::string> kStaleHeaders = {
    // v1: a plain `workload` column and no axes.
    "index,workload,mitigation,tracker,trh,rate,seed,ipc,"
    "baseline_ipc,normalized,swaps,unswap_swaps,place_backs,"
    "rows_pinned,max_row_acts",
    // v2: the `policy` identity column.
    "index,workload_spec,mitigation,tracker,trh,rate,policy,seed,"
    "ipc,baseline_ipc,normalized,swaps,unswap_swaps,place_backs,"
    "rows_pinned,max_row_acts",
    // v3: `axes`, but no tail-latency columns.
    "index,workload_spec,mitigation,tracker,trh,rate,axes,seed,ipc,"
    "baseline_ipc,normalized,swaps,unswap_swaps,place_backs,"
    "rows_pinned,max_row_acts",
    // v4: the tail-latency columns, but no `lat_samples`.
    "index,workload_spec,mitigation,tracker,trh,rate,axes,seed,ipc,"
    "baseline_ipc,normalized,swaps,unswap_swaps,place_backs,"
    "rows_pinned,max_row_acts,p50_lat,p99_lat,p999_lat",
    // v5: `lat_samples`, but no Monte-Carlo confidence columns.
    "index,workload_spec,mitigation,tracker,trh,rate,axes,seed,ipc,"
    "baseline_ipc,normalized,swaps,unswap_swaps,place_backs,"
    "rows_pinned,max_row_acts,p50_lat,p99_lat,p999_lat,lat_samples",
};

/** Complete v1, v2/v3, v4 and v5 data rows (15, 16, 19, 20 fields). */
inline const std::vector<std::string> kStaleRows = {
    "0,gups,rrs,misra-gries,1200,3,0x1234567890abcdef,1.0,2.0,0.5,"
    "1,2,3,4,5",
    "0,gups,rrs,misra-gries,1200,3,closed,0x1234567890abcdef,1.0,"
    "2.0,0.5,1,2,3,4,5",
    "0,gups,rrs,misra-gries,1200,3,closed,0x1234567890abcdef,1.0,"
    "2.0,0.5,1,2,3,4,5,31,95,127",
    "0,gups,rrs,misra-gries,1200,3,closed,0x1234567890abcdef,1.0,"
    "2.0,0.5,1,2,3,4,5,31,95,127,4242",
};

} // namespace srs::test

#endif // SRS_TESTS_STALE_SCHEMA_HH
