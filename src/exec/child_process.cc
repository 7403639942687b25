#include "child_process.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>

#include <poll.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/prctl.h>
#include <sys/syscall.h>
#endif

#include "common/logging.hh"

namespace mc {
namespace exec {

namespace {

/** Poll cap without a pidfd: how late a plain exit may be noticed. */
constexpr int kFallbackPollMs = 10;

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Kill @p pid's whole process group, falling back to the pid alone. */
void
killGroup(pid_t pid, int signo)
{
    if (::kill(-pid, signo) != 0)
        ::kill(pid, signo);
}

/** An anonymous file for a child's result, shared across the fork;
 *  -1 when none can be made. */
int
openResultFile()
{
#if defined(__linux__)
    return ::memfd_create("mc-child-result", MFD_CLOEXEC);
#else
    std::FILE *file = std::tmpfile();
    if (file == nullptr)
        return -1;
    const int fd = ::dup(::fileno(file));
    std::fclose(file);
    return fd;
#endif
}

/** Append everything in the file @p fd, from its start, to @p buffer. */
void
readAll(int fd, std::string &buffer)
{
    char chunk[65536];
    off_t offset = 0;
    for (;;) {
        const ssize_t n = ::pread(fd, chunk, sizeof(chunk), offset);
        if (n > 0) {
            buffer.append(chunk, static_cast<std::size_t>(n));
            offset += n;
        } else if (n == 0 || errno != EINTR) {
            return;
        }
    }
}

/** A pidfd for @p pid: readable once it exits; -1 where unsupported. */
int
openPidFd(pid_t pid)
{
#if defined(__linux__) && defined(SYS_pidfd_open)
    return static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
#else
    (void)pid;
    return -1;
#endif
}

} // namespace

ChildProcess::~ChildProcess()
{
    if (_pid > 0) {
        killGroup(_pid, SIGKILL);
        int status = 0;
        while (::waitpid(_pid, &status, 0) < 0 && errno == EINTR) {
        }
    }
    if (_pidFd >= 0)
        ::close(_pidFd);
    if (_resultFd >= 0)
        ::close(_resultFd);
}

Status
ChildProcess::spawn(const Body &body, bool result_file)
{
    mc_assert(_pid < 0, "ChildProcess spawned twice");
    if (result_file) {
        _resultFd = openResultFile();
        // Fixed degraded-response text, kept as is so that replays of
        // it stay byte-identical.
        if (_resultFd < 0)
            return Status::resourceExhausted(
                "cannot allocate a worker pipe");
    }

    _started = monotonicSeconds();
    const pid_t pid = ::fork();
    if (pid == 0) {
        // Own process group, so escalation reaches any grandchildren;
        // die with the parent, so even its `kill -9` leaves no orphans.
        ::setpgid(0, 0);
#if defined(__linux__)
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() == 1)
            ::_exit(exit_code::ExecFailed); // parent already gone
#endif
        ::_exit(body(_resultFd));
    }
    if (pid < 0) {
        if (_resultFd >= 0)
            ::close(_resultFd);
        _resultFd = -1;
        return Status::resourceExhausted("cannot fork a worker process");
    }
    // Also set the group from the parent: whichever side wins the race
    // the group exists before anyone signals it.
    ::setpgid(pid, pid);
    _pid = pid;
    _pidFd = openPidFd(pid);
    return Status::ok();
}

ChildExit
ChildProcess::wait(const Watchdog &watchdog)
{
    mc_assert(_pid > 0, "ChildProcess::wait without a live child");
    ChildExit ended;
    bool term_sent = false;
    bool kill_sent = false;
    bool shutdown_seen = false;
    double term_sent_at = 0.0;
    for (;;) {
        if (::waitpid(_pid, &ended.waitStatus, WNOHANG) == _pid)
            break;

        const double now = monotonicSeconds();
        if (!kill_sent) {
            if (shutdown_seen) {
                killGroup(_pid, SIGKILL);
                kill_sent = true;
            } else if (watchdog.deadlineSec > 0.0 && !term_sent &&
                       now - _started >= watchdog.deadlineSec) {
                ended.watchdogFired = true;
                killGroup(_pid, SIGTERM);
                term_sent = true;
                term_sent_at = now;
            } else if (term_sent &&
                       now - term_sent_at >= watchdog.graceSec) {
                // The child ignored SIGTERM past the grace period.
                killGroup(_pid, SIGKILL);
                kill_sent = true;
            }
        }

        // Sleep until the next watchdog step is due; with none pending,
        // until the pidfd or the shutdown fd wakes us.
        int timeout_ms = -1;
        if (!kill_sent && (term_sent || watchdog.deadlineSec > 0.0)) {
            const double due = term_sent
                                   ? term_sent_at + watchdog.graceSec
                                   : _started + watchdog.deadlineSec;
            timeout_ms = static_cast<int>(
                std::ceil(std::clamp(due - now, 0.0, 3600.0) * 1e3));
        }
        if (_pidFd < 0 && (timeout_ms < 0 || timeout_ms > kFallbackPollMs))
            timeout_ms = kFallbackPollMs;

        pollfd fds[2];
        nfds_t count = 0;
        if (_pidFd >= 0)
            fds[count++] = {_pidFd, POLLIN, 0};
        const nfds_t shutdown_slot = count;
        if (watchdog.shutdownFd >= 0 && !shutdown_seen)
            fds[count++] = {watchdog.shutdownFd, POLLIN, 0};
        if (::poll(fds, count, timeout_ms) > 0 && shutdown_slot < count &&
            fds[shutdown_slot].revents != 0) {
            shutdown_seen = true;
        }
    }
    ended.durationSec = monotonicSeconds() - _started;
    _pid = -1;
    if (_resultFd >= 0) {
        readAll(_resultFd, _output);
        ::close(_resultFd);
        _resultFd = -1;
    }
    if (_pidFd >= 0) {
        ::close(_pidFd);
        _pidFd = -1;
    }
    return ended;
}

} // namespace exec
} // namespace mc
