/**
 * @file
 * One supervised child process: the fork, watchdog and reap shared by
 * the mc_suite supervisor (exec::Supervisor) and mc_serve's isolated
 * workers (serve::runInWorker).
 *
 * spawn() forks the child into its own process group, so watchdog
 * escalation reaches any grandchildren; arms PR_SET_PDEATHSIG, so even
 * a SIGKILLed parent leaves no orphan; and exits ExecFailed at once if
 * the parent is already gone. wait() then sleeps in poll(2) until
 * something needs doing:
 *
 *  - the child exits (a pidfd, Linux >= 5.3);
 *  - the optional shutdown fd turns readable: SIGKILL to the group;
 *  - the next watchdog step is due: deadline -> SIGTERM to the group ->
 *    grace -> SIGKILL.
 *
 * Where pidfd_open is unavailable (non-Linux, older kernels) the same
 * loop caps each poll at 10 ms and sees the exit through
 * waitpid(WNOHANG).
 *
 * The optional result channel is an anonymous in-memory file, not a
 * pipe: the child writes any amount without ever blocking on its
 * parent, and the parent reads it once, after the reap. A pipe would
 * have to be drained while the child runs, and each drain wakes the
 * parent in the middle of the child's life; on a CPU shared with a
 * busy process, every such wake-up is one more chance for that process
 * to take the CPU for a whole scheduler tick.
 */

#ifndef MC_EXEC_CHILD_PROCESS_HH
#define MC_EXEC_CHILD_PROCESS_HH

#include <functional>
#include <string>

#include <sys/types.h>

#include "common/status.hh"

namespace mc {
namespace exec {

/** The watchdog schedule and wake-ups of one ChildProcess::wait(). */
struct Watchdog
{
    /** Wall-clock seconds from spawn() until the group is SIGTERMed;
     *  0 = no deadline. */
    double deadlineSec = 0.0;

    /** Seconds between that SIGTERM and a SIGKILL to a group that
     *  ignores it. */
    double graceSec = 2.0;

    /** A descriptor whose readability requests a shutdown: the group
     *  is SIGKILLed at once, without grace. -1 = none. */
    int shutdownFd = -1;
};

/** How a waited-for child ended. */
struct ChildExit
{
    /** The waitpid(2) status. */
    int waitStatus = 0;

    /** True when the deadline passed and the watchdog sent SIGTERM. */
    bool watchdogFired = false;

    /** Wall-clock seconds from spawn() to the reap. */
    double durationSec = 0.0;
};

class ChildProcess
{
  public:
    /**
     * The child's body. It receives the result file's descriptor (-1
     * without one) and returns the child's exit code, unless it execs
     * or exits on its own.
     */
    using Body = std::function<int(int result_fd)>;

    ChildProcess() = default;

    /** A child that was spawned but never reaped is SIGKILLed (with its
     *  group) and reaped here. */
    ~ChildProcess();

    ChildProcess(const ChildProcess &) = delete;
    ChildProcess &operator=(const ChildProcess &) = delete;

    /**
     * Fork a child that runs @p body, with a result file when
     * @p result_file is set. ResourceExhausted when the file or the
     * fork fails.
     */
    Status spawn(const Body &body, bool result_file = false);

    /**
     * Block until the child exits, enforcing @p watchdog, then read the
     * result file into output(). Call once per spawn().
     */
    ChildExit wait(const Watchdog &watchdog);

    /** Every byte the child wrote to its result file. */
    const std::string &output() const { return _output; }

  private:
    pid_t _pid = -1;
    int _pidFd = -1;
    int _resultFd = -1;
    double _started = 0.0;
    std::string _output;
};

} // namespace exec
} // namespace mc

#endif // MC_EXEC_CHILD_PROCESS_HH
