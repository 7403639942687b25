/**
 * @file
 * Tests of exec::ChildProcess, the one supervised-child wait behind
 * mc_suite and mc_serve's workers: a result larger than a pipe read
 * back whole, SIGTERM -> SIGKILL escalation, event-driven reaping, and
 * a shutdown request waking a supervised bench.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "exec/child_process.hh"
#include "exec/supervisor.hh"

namespace mc {
namespace exec {
namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

TEST(ChildProcess, ReadsBackOutputLargerThanAPipe)
{
    // 1 MiB is 16 pipe buffers: the child only finishes if its writes
    // never wait for the parent.
    const std::size_t size = std::size_t(1) << 20;
    std::string expected(size, '\0');
    for (std::size_t i = 0; i < size; ++i)
        expected[i] = static_cast<char>('a' + i % 26);

    ChildProcess child;
    ASSERT_TRUE(child
                    .spawn(
                        [&](int fd) {
                            std::size_t done = 0;
                            while (done < size) {
                                const ssize_t n = ::write(
                                    fd, expected.data() + done, size - done);
                                if (n <= 0)
                                    return exit_code::Failure;
                                done += static_cast<std::size_t>(n);
                            }
                            return exit_code::Ok;
                        },
                        /*result_file=*/true)
                    .isOk());
    Watchdog watchdog;
    watchdog.deadlineSec = 20.0;
    const ChildExit ended = child.wait(watchdog);
    EXPECT_FALSE(ended.watchdogFired);
    ASSERT_TRUE(WIFEXITED(ended.waitStatus));
    EXPECT_EQ(WEXITSTATUS(ended.waitStatus), exit_code::Ok);
    EXPECT_EQ(child.output().size(), size);
    EXPECT_TRUE(child.output() == expected);
}

TEST(ChildProcess, TermIgnoringChildIsKilledAfterGrace)
{
    ChildProcess child;
    ASSERT_TRUE(child
                    .spawn([](int) {
                        std::signal(SIGTERM, SIG_IGN);
                        for (;;)
                            ::pause();
                        return exit_code::Ok;
                    })
                    .isOk());
    Watchdog watchdog;
    watchdog.deadlineSec = 0.2;
    watchdog.graceSec = 0.3;
    const ChildExit ended = child.wait(watchdog);
    EXPECT_TRUE(ended.watchdogFired);
    ASSERT_TRUE(WIFSIGNALED(ended.waitStatus));
    EXPECT_EQ(WTERMSIG(ended.waitStatus), SIGKILL);
    EXPECT_EQ(classifyWaitStatus(ended.waitStatus, ended.watchdogFired),
              ErrorCode::DeadlineExceeded);
    // Deadline plus grace, not a hang.
    EXPECT_GE(ended.durationSec, 0.5);
    EXPECT_LT(ended.durationSec, 10.0);
}

TEST(ChildProcess, ReapsPromptlyWithoutPolling)
{
    // The exit wakes the wait: a polling loop with a 10 ms sleep puts
    // every spawn-to-reap at or above 10 ms.
    std::vector<double> ms;
    for (int i = 0; i < 50; ++i) {
        const auto start = std::chrono::steady_clock::now();
        ChildProcess child;
        ASSERT_TRUE(child.spawn([](int) { return exit_code::Ok; }).isOk());
        Watchdog watchdog;
        watchdog.deadlineSec = 20.0;
        const ChildExit ended = child.wait(watchdog);
        ms.push_back(secondsSince(start) * 1e3);
        ASSERT_TRUE(WIFEXITED(ended.waitStatus));
    }
    std::nth_element(ms.begin(), ms.begin() + ms.size() / 2, ms.end());
    EXPECT_LT(ms[ms.size() / 2], 5.0);
}

TEST(ChildProcess, ShutdownRequestEndsARunningBench)
{
    // The shutdown flag is process-global and never resets, so the
    // supervisor runs in a forked copy of this test. The bench signals
    // the supervisor itself, as a Ctrl-C on mc_suite would; the handler
    // only calls requestShutdown().
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        std::signal(SIGTERM, [](int) { Supervisor::requestShutdown(); });
        char dir_template[] = "/tmp/mc_child_shutdown_XXXXXX";
        if (!::mkdtemp(dir_template))
            ::_exit(10);
        const std::string dir = dir_template;
        SuitePlan plan;
        BenchSpec bench;
        bench.name = "sleeper";
        bench.argv = {"/bin/sh", "-c", "kill -TERM $PPID; sleep 60"};
        plan.benches.push_back(bench);
        SupervisorOptions options;
        options.runDir = dir;
        options.echoProgress = false;
        options.restart.maxAttempts = 1;
        Supervisor supervisor(plan, options);
        auto result = supervisor.run();
        std::system(("rm -rf '" + dir + "'").c_str());
        if (!result.isOk())
            ::_exit(11);
        const BenchOutcome &outcome = result.value().benches.at(0);
        if (!result.value().interrupted)
            ::_exit(12);
        if (outcome.attempts.size() != 1 ||
            outcome.code != ErrorCode::Unavailable)
            ::_exit(13);
        if (outcome.attempts[0].durationSec >= 1.0)
            ::_exit(14);
        ::_exit(0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
    // 11: run() failed, 12: not interrupted, 13: not one Unavailable
    // attempt, 14: the attempt took 1 s or more.
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

} // namespace
} // namespace exec
} // namespace mc
