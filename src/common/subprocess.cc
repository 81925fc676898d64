#include "common/subprocess.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#if !defined(_WIN32)
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "common/logging.hh"

namespace srs
{

#if !defined(_WIN32)

long
spawnProcess(const std::vector<std::string> &argv,
             const std::string &logPath)
{
    if (argv.empty())
        fatal("spawnProcess: empty command line");
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("fork failed: ", std::strerror(errno));
    if (pid == 0) {
#if defined(__linux__)
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
        if (!logPath.empty()) {
            const int fd = ::open(logPath.c_str(),
                                  O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                ::dup2(fd, 1);
                ::dup2(fd, 2);
                ::close(fd);
            }
        }
        std::vector<char *> args;
        for (const std::string &arg : argv)
            args.push_back(const_cast<char *>(arg.c_str()));
        args.push_back(nullptr);
        ::execv(args[0], args.data());
        std::fprintf(stderr, "exec %s failed: %s\n", args[0],
                     std::strerror(errno));
        ::_exit(127);
    }
    return pid;
}

bool
pollProcess(long pid, int &status)
{
    const pid_t r =
        ::waitpid(static_cast<pid_t>(pid), &status, WNOHANG);
    if (r < 0)
        fatal("waitpid(", pid, ") failed: ", std::strerror(errno));
    return r == static_cast<pid_t>(pid);
}

void
waitForExit(const std::vector<long> &pids, std::uint64_t timeoutMs)
{
    using Clock = std::chrono::steady_clock;
    constexpr Clock::duration kPeek = std::chrono::milliseconds(5);
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeoutMs);
    for (;;) {
        for (const long pid : pids) {
            // si_pid stays 0 while the child runs.  A failed peek
            // ends the wait too, so pollProcess reports it by name.
            siginfo_t info{};
            if (::waitid(P_PID, static_cast<id_t>(pid), &info,
                         WEXITED | WNOHANG | WNOWAIT)
                    != 0
                || info.si_pid != 0)
                return;
        }
        const Clock::time_point now = Clock::now();
        if (now >= deadline)
            return;
        std::this_thread::sleep_for(std::min(kPeek, deadline - now));
    }
}

int
waitProcess(long pid)
{
    int status = 0;
    if (::waitpid(static_cast<pid_t>(pid), &status, 0) < 0)
        fatal("waitpid(", pid, ") failed: ", std::strerror(errno));
    return status;
}

void
killProcess(long pid)
{
    ::kill(static_cast<pid_t>(pid), SIGKILL);
}

bool
processExitedCleanly(int status)
{
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::string
describeProcessExit(int status)
{
    if (WIFSIGNALED(status)) {
        return "killed by signal "
               + std::to_string(WTERMSIG(status));
    }
    return "exited with status "
           + std::to_string(WIFEXITED(status) ? WEXITSTATUS(status)
                                              : status);
}

#else // _WIN32

namespace
{

[[noreturn]] void
posixOnly()
{
    fatal("process supervision (srs_sim orchestrate) requires "
          "a POSIX platform (fork/waitpid); run the shards from the "
          "manifest by hand and stitch with 'srs_sim merge'");
}

} // namespace

long
spawnProcess(const std::vector<std::string> &, const std::string &)
{
    posixOnly();
}

bool
pollProcess(long, int &)
{
    posixOnly();
}

void
waitForExit(const std::vector<long> &, std::uint64_t)
{
    posixOnly();
}

int
waitProcess(long)
{
    posixOnly();
}

void
killProcess(long)
{
    posixOnly();
}

bool
processExitedCleanly(int status)
{
    return status == 0;
}

std::string
describeProcessExit(int status)
{
    return "exited with status " + std::to_string(status);
}

#endif

} // namespace srs
