/**
 * @file
 * The daemon end to end over a Unix socket: control requests, request
 * routing, coalescing, deterministic shedding, chaos isolation, and
 * graceful shutdown. The in-process twin of cmake/ServeChaos.cmake.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "serve/protocol.hh"
#include "serve/server.hh"

namespace mc {
namespace serve {
namespace {

std::string
socketPathFor(const char *tag)
{
    // sun_path is ~108 bytes; a short /tmp name keeps well clear of it.
    return "/tmp/mc_serve_test_" + std::to_string(::getpid()) + "_" +
           tag + ".sock";
}

class ClientFd
{
  public:
    explicit ClientFd(const std::string &path)
    {
        _fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                      path.c_str());
        if (::connect(_fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            ::close(_fd);
            _fd = -1;
        }
    }
    ~ClientFd()
    {
        if (_fd >= 0)
            ::close(_fd);
    }

    bool ok() const { return _fd >= 0; }

    void
    send(const std::string &request)
    {
        ASSERT_TRUE(writeFrame(_fd, request).isOk());
    }

    /** Read one response envelope (fails the test on EOF/garbage). */
    ServeResponse
    read()
    {
        auto frame = readFrame(_fd);
        EXPECT_TRUE(frame.isOk()) << frame.status().toString();
        EXPECT_TRUE(frame.isOk() && frame.value().has_value());
        if (!frame.isOk() || !frame.value().has_value())
            return {};
        auto parsed = parseResponse(*frame.value());
        EXPECT_TRUE(parsed.isOk()) << *frame.value();
        return parsed.isOk() ? parsed.value() : ServeResponse{};
    }

    /** The raw response frame bytes (byte-identity checks). */
    std::string
    readRaw()
    {
        auto frame = readFrame(_fd);
        EXPECT_TRUE(frame.isOk() && frame.value().has_value());
        return frame.isOk() && frame.value().has_value()
                   ? *frame.value()
                   : std::string();
    }

  private:
    int _fd = -1;
};

/** A numeric field of /proc/self/status, e.g. "Threads". */
long
procStatusField(const std::string &name)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(name + ":", 0) == 0)
            return std::strtol(line.c_str() + name.size() + 1, nullptr, 10);
    }
    return -1;
}

/** The number of memory mappings in /proc/self/maps. */
long
mappingCount()
{
    std::ifstream in("/proc/self/maps");
    std::string line;
    long count = 0;
    while (std::getline(in, line))
        ++count;
    return count;
}

std::unique_ptr<Server>
startServer(const std::string &path, ServerOptions options = {})
{
    options.socketPath = path;
    auto server = std::make_unique<Server>(std::move(options));
    Status started = server->start();
    EXPECT_TRUE(started.isOk()) << started.toString();
    return server;
}

TEST(ServeServer, PingStatsAndInvalidFramesAnswerInline)
{
    const std::string path = socketPathFor("ping");
    auto server = startServer(path);
    ClientFd client(path);
    ASSERT_TRUE(client.ok());

    client.send(R"({"kind":"ping","id":"p1"})");
    ServeResponse pong = client.read();
    EXPECT_EQ(pong.id, "p1");
    EXPECT_EQ(pong.code, ErrorCode::Ok);
    EXPECT_TRUE(pong.payload.at("pong").asBool());

    // A malformed request answers with a classified error and keeps
    // the connection serving — one bad frame must not cost the stream.
    client.send(R"({"kind":"gemm","id":"bad"})"); // n missing
    ServeResponse error = client.read();
    EXPECT_EQ(error.id, "bad"); // best-effort id from the broken frame
    EXPECT_EQ(error.code, ErrorCode::InvalidArgument);

    client.send(R"({"kind":"stats","id":"s1"})");
    ServeResponse stats = client.read();
    EXPECT_EQ(stats.code, ErrorCode::Ok);
    EXPECT_TRUE(stats.payload.has("admission"));
    EXPECT_TRUE(stats.payload.has("plan_cache"));
    EXPECT_TRUE(stats.payload.has("runs"));

    server->stop();
}

TEST(ServeServer, GemmRepliesByteIdenticallyAcrossConnections)
{
    const std::string path = socketPathFor("gemm");
    auto server = startServer(path);

    const std::string request =
        R"({"kind":"gemm","id":"g1","n":64,"reps":2})";
    std::string first;
    {
        ClientFd client(path);
        ASSERT_TRUE(client.ok());
        client.send(request);
        first = client.readRaw();
        ASSERT_FALSE(first.empty());
    }
    {
        ClientFd client(path);
        ASSERT_TRUE(client.ok());
        client.send(request);
        EXPECT_EQ(client.readRaw(), first)
            << "same request, same bytes — across connections and "
               "cache temperature";
    }
    server->stop();
}

TEST(ServeServer, PipelinedBurstCoalescesAndShedsDeterministically)
{
    const std::string path = socketPathFor("burst");
    ServerOptions options;
    options.admission.slots = 1;
    options.admission.queueDepth = 1;
    options.allowChaos = true; // "slow" below is a chaos hang
    options.workerDeadlineSec = 0.5;
    options.workerGraceSec = 0.1;
    auto server = startServer(path, options);

    ClientFd client(path);
    ASSERT_TRUE(client.ok());
    // One pipelined burst, handled in frame order by one reader:
    //  slow   -> a hung worker occupies the only slot until the 0.5 s
    //            watchdog fires (the simulated GEMMs finish in
    //            microseconds of wall clock, so only a hang holds the
    //            slot long enough to observe the queue machinery);
    //  keep   -> queued (depth 1);
    //  keep'  -> identical key: coalesces onto keep's flight;
    //  doomed -> queue full, earliest deadline of {keep: 50, doomed: 1}
    //            -> doomed is shed (ResourceExhausted), synchronously.
    client.send(
        R"({"kind":"gemm","id":"slow","n":32,"chaos":"hang","deadline_sec":100})");
    client.send(
        R"({"kind":"gemm","id":"keep","n":48,"reps":2,"deadline_sec":50})");
    client.send(
        R"({"kind":"gemm","id":"keep2","n":48,"reps":2,"deadline_sec":50})");
    client.send(
        R"({"kind":"gemm","id":"doomed","n":32,"reps":2,"deadline_sec":1})");

    std::vector<ServeResponse> responses;
    for (int i = 0; i < 4; ++i)
        responses.push_back(client.read());

    const ServeResponse *slow = nullptr, *keep = nullptr,
                        *keep2 = nullptr, *doomed = nullptr;
    for (const ServeResponse &r : responses) {
        if (r.id == "slow")
            slow = &r;
        else if (r.id == "keep")
            keep = &r;
        else if (r.id == "keep2")
            keep2 = &r;
        else if (r.id == "doomed")
            doomed = &r;
    }
    ASSERT_TRUE(slow && keep && keep2 && doomed);
    EXPECT_EQ(slow->code, ErrorCode::DeadlineExceeded);
    EXPECT_EQ(keep->code, ErrorCode::Ok);
    EXPECT_EQ(keep2->code, ErrorCode::Ok);
    EXPECT_EQ(doomed->code, ErrorCode::ResourceExhausted);
    // Coalesced waiters get byte-identical payloads.
    EXPECT_EQ(keep->payload.serialize(0), keep2->payload.serialize(0));

    client.send(R"({"kind":"stats","id":"s"})");
    ServeResponse stats = client.read();
    EXPECT_EQ(
        stats.payload.at("runs").at("coalesced").asInt(), 1);
    EXPECT_EQ(stats.payload.at("runs").at("in_process").asInt(), 1);
    EXPECT_EQ(stats.payload.at("runs").at("worker").asInt(), 1);
    EXPECT_EQ(
        stats.payload.at("admission").at("shed").asInt(), 1);

    server->stop();
}

TEST(ServeServer, ChaosIsRefusedWithoutOptIn)
{
    const std::string path = socketPathFor("nochaos");
    auto server = startServer(path); // allowChaos defaults to false
    ClientFd client(path);
    ASSERT_TRUE(client.ok());

    client.send(R"({"kind":"gemm","id":"c1","n":32,"chaos":"kill9"})");
    ServeResponse refused = client.read();
    EXPECT_EQ(refused.code, ErrorCode::FailedPrecondition);
    server->stop();
}

TEST(ServeServer, SurvivesChaosWorkersAndKeepsServing)
{
    const std::string path = socketPathFor("chaos");
    ServerOptions options;
    options.allowChaos = true;
    options.workerGraceSec = 0.2;
    auto server = startServer(path, options);
    ClientFd client(path);
    ASSERT_TRUE(client.ok());

    // The degradation ladder over the wire: each chaos mode degrades
    // *that request* to its documented code...
    client.send(R"({"kind":"gemm","id":"k","n":32,"chaos":"kill9"})");
    EXPECT_EQ(client.read().code, ErrorCode::Unavailable);
    client.send(R"({"kind":"gemm","id":"s","n":32,"chaos":"segv"})");
    EXPECT_EQ(client.read().code, ErrorCode::Internal);
    client.send(R"({"kind":"gemm","id":"e","n":32,"chaos":"exit3"})");
    EXPECT_EQ(client.read().code, ErrorCode::ResourceExhausted);

    // ...and the daemon itself never notices: same connection, still
    // answering, still able to run real work.
    client.send(R"({"kind":"gemm","id":"g","n":48,"reps":2})");
    ServeResponse after = client.read();
    EXPECT_EQ(after.code, ErrorCode::Ok);
    EXPECT_GT(after.payload.at("tflops").asNumber(), 0.0);

    client.send(R"({"kind":"stats","id":"st"})");
    EXPECT_EQ(client.read()
                  .payload.at("runs")
                  .at("worker")
                  .asInt(),
              3);
    server->stop();
}

TEST(ServeServer, FaultedRequestsRouteToWorkersByDefault)
{
    const std::string path = socketPathFor("routing");
    auto server = startServer(path); // Isolation::Faulted
    ClientFd client(path);
    ASSERT_TRUE(client.ok());

    client.send(
        R"({"kind":"gemm","id":"f","n":48,"reps":2,"inject":"ecc=0.05"})");
    EXPECT_EQ(client.read().code, ErrorCode::Ok);
    client.send(R"({"kind":"gemm","id":"p","n":48,"reps":2})");
    EXPECT_EQ(client.read().code, ErrorCode::Ok);

    client.send(R"({"kind":"stats","id":"s"})");
    ServeResponse stats = client.read();
    EXPECT_EQ(stats.payload.at("runs").at("worker").asInt(), 1);
    EXPECT_EQ(stats.payload.at("runs").at("in_process").asInt(), 1);
    server->stop();
}

TEST(ServeServer, ShutdownRequestDrainsGracefully)
{
    const std::string path = socketPathFor("shutdown");
    auto server = startServer(path);
    ClientFd client(path);
    ASSERT_TRUE(client.ok());

    client.send(R"({"kind":"shutdown","id":"bye"})");
    ServeResponse bye = client.read();
    EXPECT_EQ(bye.code, ErrorCode::Ok);
    EXPECT_TRUE(bye.payload.at("stopping").asBool());
    EXPECT_TRUE(server->shutdownRequested());

    server->stop();
    EXPECT_FALSE(ClientFd(path).ok()) << "socket must be gone";
}

TEST(ServeServer, ReapsReaderThreadsOfClosedConnections)
{
    // Every connection gets a reader thread, and a reader that is never
    // joined keeps its stack mapped after it exits. Hundreds of
    // one-shot connections must leave the daemon with its acceptor,
    // its slots and a reader or two, and about the mappings a handful
    // of connections needs.
    const std::string path = socketPathFor("reap");
    ServerOptions options;
    options.admission.slots = 2;
    auto server = startServer(path, options);
    auto ping_once = [&path]() {
        ClientFd client(path);
        ASSERT_TRUE(client.ok());
        client.send(R"({"kind":"ping","id":"p"})");
        EXPECT_EQ(client.read().code, ErrorCode::Ok);
    };
    for (int i = 0; i < 10; ++i)
        ping_once();
    const long maps_before = mappingCount();
    for (int i = 0; i < 300; ++i)
        ping_once();

    // Main thread, acceptor, slots, and the small constant: the last
    // connections' readers and a sanitizer's helper thread. A reader
    // exits once it reads its connection's EOF, which on a loaded host
    // can lag the client by a few connections; give them time to go.
    const long max_threads =
        2 + static_cast<long>(options.admission.slots) + 4;
    for (int i = 0; i < 500 && procStatusField("Threads") > max_threads;
         ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_LE(procStatusField("Threads"), max_threads);
    // An exited thread leaves the Threads count, but until it is joined
    // its stack and guard page stay mapped: 300 leaked readers add about
    // 600 mappings. (VmSize is no measure here: each malloc arena that
    // concurrency creates reserves 64 MiB.)
    EXPECT_LT(mappingCount() - maps_before, 150);
    server->stop();
}

TEST(ServeServer, WritesReadyFileOnceListening)
{
    const std::string path = socketPathFor("ready");
    const std::string ready = path + ".ready";
    ServerOptions options;
    options.readyFile = ready;
    auto server = startServer(path, options);

    std::FILE *f = std::fopen(ready.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char line[256] = {0};
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    std::fclose(f);
    EXPECT_EQ(std::string(line), path + "\n");

    server->stop();
    ::unlink(ready.c_str());
}

} // namespace
} // namespace serve
} // namespace mc
