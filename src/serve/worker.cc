#include "worker.hh"

#include <csignal>

#include <sys/wait.h>

#include "exec/child_process.hh"
#include "exec/supervisor.hh"

namespace mc {
namespace serve {

namespace {

/** Extract the single result frame from the worker's result bytes;
 *  nullopt when the frame is missing or torn. */
std::optional<std::string>
extractFrame(const std::string &buffer)
{
    if (buffer.size() < 4)
        return std::nullopt;
    const auto *p = reinterpret_cast<const unsigned char *>(buffer.data());
    const std::uint32_t size = (std::uint32_t(p[0]) << 24) |
                               (std::uint32_t(p[1]) << 16) |
                               (std::uint32_t(p[2]) << 8) |
                               std::uint32_t(p[3]);
    if (size > kMaxFrameBytes || buffer.size() < 4 + std::size_t(size))
        return std::nullopt;
    return buffer.substr(4, size);
}

} // namespace

ErrorCode
classifyWorkerExit(int wait_status, bool watchdog_fired)
{
    if (WIFSIGNALED(wait_status) && !watchdog_fired &&
        WTERMSIG(wait_status) == SIGKILL) {
        // The suite supervisor reads SIGKILL as the OOM killer
        // (machine-wide ResourceExhausted); for a serving daemon the
        // request-level truth is "my worker was shot out from under
        // me" — the service and every other request are fine, so this
        // one degrades to retriable Unavailable.
        return ErrorCode::Unavailable;
    }
    return exec::classifyWaitStatus(wait_status, watchdog_fired);
}

Result<JsonValue>
runInWorker(const ServeRequest &request, const WorkerOptions &options)
{
    exec::ChildProcess child;
    const Status spawned = child.spawn(
        [&](int result_fd) {
            auto payload = executePayload(request, options.engine);
            const std::string frame =
                payload.isOk() ? okResponse(request.id, payload.value())
                               : errorResponse(request.id, payload.status());
            // A failed write leaves a missing or torn frame, which the
            // parent classifies; nothing to do here.
            (void)writeFrame(result_fd, frame);
            return exit_code::Ok;
        },
        /*result_file=*/true);
    if (!spawned.isOk())
        return spawned;

    // The result file never fills, so a large payload cannot block the
    // worker (which the watchdog would misread as a hang), and the wait
    // wakes only for the worker's exit or a watchdog step.
    exec::Watchdog watchdog;
    watchdog.deadlineSec = options.deadlineSec;
    watchdog.graceSec = options.graceSec;
    const exec::ChildExit ended = child.wait(watchdog);

    const ErrorCode code =
        classifyWorkerExit(ended.waitStatus, ended.watchdogFired);
    const std::optional<std::string> frame = extractFrame(child.output());
    if (code == ErrorCode::Ok && frame) {
        auto response = parseResponse(*frame);
        if (!response.isOk())
            return response.status();
        if (response.value().code == ErrorCode::Ok)
            return response.value().payload;
        return Status(response.value().code, response.value().error);
    }
    switch (code) {
      case ErrorCode::Ok:
        // Exit 0 but the result frame is missing or torn: the worker
        // lost its result, which no retry of the same daemon state is
        // guaranteed to fix — a bug, not a degradation.
        return Status::internal("worker exited without a result frame");
      case ErrorCode::DeadlineExceeded:
        return Status::deadlineExceeded(
            "worker overran its wall-clock deadline");
      case ErrorCode::Unavailable:
        return Status::unavailable("worker was terminated");
      case ErrorCode::Internal:
        return Status::internal("worker crashed");
      default:
        return Status(code, "worker failed");
    }
}

} // namespace serve
} // namespace mc
