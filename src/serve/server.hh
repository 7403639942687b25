/**
 * @file
 * The mc_serve daemon: sockets, request routing, coalescing, and the
 * degradation ladder's top layer.
 *
 * One acceptor thread takes connections on a Unix or loopback-TCP
 * listener; each connection gets a reader thread that processes frames
 * *in arrival order* — parsing, chaos policy, single-flight coalescing,
 * and the admission decision all happen synchronously on the reader, so
 * the daemon's admission behavior for a pipelined burst is a pure
 * function of the frame sequence (the chaos gate's determinism lever).
 * Admitted requests execute on a pool of exactly `slots` threads,
 * in-process or in a supervised worker (src/serve/worker.hh) per the
 * isolation policy; responses go out under a per-connection write lock,
 * tagged with the request's id so clients may pipeline.
 *
 * Coalescing: concurrent requests with equal canonicalKey() share one
 * execution (single-flight) — each respondent still gets its own
 * envelope with its own id, and because the payload is a pure function
 * of the key (src/serve/engine.hh) a coalesced response is byte-for-
 * byte the response a lone request would have received. Requests with
 * batch > 1 route onto the strided-batched GEMM path inside one
 * simulation (GemmConfig::batchCount), the ext_batched_gemm pattern.
 */

#ifndef MC_SERVE_SERVER_HH
#define MC_SERVE_SERVER_HH

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "blas/plan_cache.hh"
#include "exec/thread_pool.hh"
#include "serve/admission.hh"
#include "serve/protocol.hh"
#include "serve/worker.hh"

namespace mc {
namespace serve {

/** Which requests run in a supervised worker process. */
enum class Isolation
{
    None,    ///< everything in-process (fastest; a crash kills the daemon)
    Faulted, ///< fault-injected and chaos requests forked (the default)
    All,     ///< every gemm/sweep request forked
};

/** Parse "none" / "faulted" / "all". */
Result<Isolation> parseIsolation(const std::string &name);

/** Daemon configuration (tools/mc_serve.cc flags map 1:1 onto this). */
struct ServerOptions
{
    /** Unix socket path; empty selects TCP on 127.0.0.1:tcpPort. */
    std::string socketPath;
    /** TCP port (0 = let the kernel pick; see Server::port). */
    int tcpPort = 0;

    AdmissionOptions admission;
    Isolation isolation = Isolation::Faulted;
    /** Honor chaos requests (test daemons only). */
    bool allowChaos = false;

    /** Wall-clock watchdog for worker processes. */
    double workerDeadlineSec = 60.0;
    double workerGraceSec = 2.0;

    /** Host-verify every gemm point after measuring it (mc_serve
     *  --verify; EngineOptions::verifyGemms). Deterministic — the
     *  check's seed derives from the point key — so responses stay
     *  byte-identical across replays and workers. */
    bool verifyGemms = false;
    std::size_t verifyMaxN = 1024;

    /** Written (atomically) once the listener is live, with one line
     *  "<socket path or port>" — test orchestration polls this instead
     *  of racing the bind. Empty = none. */
    std::string readyFile;
};

class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, start the acceptor; InvalidArgument /
     *  Unavailable on socket failures. */
    Status start();

    /** The bound TCP port (TCP listeners only; 0 for Unix sockets). */
    int port() const { return _boundPort; }

    /** True once a shutdown request (wire or stop()) was seen. */
    bool shutdownRequested() const { return _shutdown.load(); }

    /** Graceful shutdown: stop accepting, cancel queued requests
     *  (Unavailable), finish running ones, close connections. Safe to
     *  call more than once; start() cannot be called again after. */
    void stop();

    /** The shared plan memo (stats reporting, capacity setup, tests). */
    const blas::PlanCache &planCache() const { return *_planCache; }
    blas::PlanCache &planCache() { return *_planCache; }

    AdmissionStats admissionStats() const { return _admission->stats(); }

  private:
    struct Connection;
    struct Flight;

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Connection> conn,
                        std::uint64_t reader_id);
    void handleFrame(const std::shared_ptr<Connection> &conn,
                     const std::string &frame);
    void executeFlight(const std::string &key, const ServeRequest &request);
    void failFlight(const std::string &key, const Status &status);
    void respondFlight(const std::string &key,
                       const Result<JsonValue> &outcome);
    JsonValue statsPayload() const;

    ServerOptions _options;
    int _listenFd = -1;
    int _boundPort = 0;
    std::atomic<bool> _shutdown{false};
    std::atomic<bool> _stopped{false};

    std::shared_ptr<blas::PlanCache> _planCache;
    std::unique_ptr<exec::ThreadPool> _pool;
    std::unique_ptr<AdmissionController> _admission;

    std::thread _acceptor;
    std::mutex _connMutex;
    std::vector<std::shared_ptr<Connection>> _connections;
    /** Reader threads by id. A reader's last act (under _connMutex) is
     *  to list its id in _finishedReaders; the acceptor joins those
     *  after starting the next connection's reader, and stop() joins
     *  the rest. */
    std::map<std::uint64_t, std::thread> _readers;
    std::vector<std::uint64_t> _finishedReaders;
    std::uint64_t _nextReaderId = 0;

    std::mutex _flightMutex;
    std::map<std::string, Flight> _flights;

    std::atomic<std::uint64_t> _workerRuns{0};
    std::atomic<std::uint64_t> _inProcessRuns{0};
    std::atomic<std::uint64_t> _coalesced{0};
};

} // namespace serve
} // namespace mc

#endif // MC_SERVE_SERVER_HH
