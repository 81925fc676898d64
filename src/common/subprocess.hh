/**
 * @file
 * Child-process helpers for the shard supervisor.
 *
 * Orchestrator::run (sim/orchestrator.hh), behind `srs_sim
 * orchestrate`, forks one shard sweep per child through these
 * primitives: spawn with output captured to a log file, a wait that
 * ends when a child exits, non-blocking reap, kill, and a
 * human-readable exit description.  POSIX-only
 * (fork/execv/waitid/waitpid); every entry point is fatal() on
 * non-POSIX platforms.
 */

#ifndef SRS_COMMON_SUBPROCESS_HH
#define SRS_COMMON_SUBPROCESS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace srs
{

/**
 * Fork and exec @p argv (argv[0] is the executable path, resolved
 * without PATH search) with stdout and stderr appended to
 * @p logPath; an empty @p logPath inherits the parent's streams.
 * On Linux the child dies with the parent (PDEATHSIG), so a killed
 * supervisor never leaks workers that race a later re-run for the
 * same output files.
 *
 * @return the child pid; fatal() when the fork fails.  An exec
 *         failure surfaces as exit status 127 with the reason as
 *         the log's last line.
 */
long spawnProcess(const std::vector<std::string> &argv,
                  const std::string &logPath);

/**
 * Non-blocking reap of @p pid (waitpid WNOHANG).
 *
 * @return true when the child has exited — @p status then holds the
 *         raw waitpid status (decode with describeProcessExit or
 *         processExitCode); false while it is still running.
 */
bool pollProcess(long pid, int &status);

/**
 * Sleep until one of @p pids has exited or @p timeoutMs has passed.
 * Each pid is peeked every few milliseconds with
 * waitid(P_PID, pid, WEXITED | WNOHANG | WNOWAIT), which leaves the
 * child for pollProcess to reap.  The peek names each pid, never
 * P_ALL, so another child of this process cannot end the wait.
 */
void waitForExit(const std::vector<long> &pids,
                 std::uint64_t timeoutMs);

/** Blocking reap of @p pid; @return the raw waitpid status. */
int waitProcess(long pid);

/** SIGKILL @p pid (best-effort; no error when already gone). */
void killProcess(long pid);

/** @return true when the raw status is a clean zero exit. */
bool processExitedCleanly(int status);

/** "exited with status N" / "killed by signal N" for messages. */
std::string describeProcessExit(int status);

} // namespace srs

#endif // SRS_COMMON_SUBPROCESS_HH
