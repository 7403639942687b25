/**
 * @file
 * In-process replays of the benchmark workloads, with a span around each
 * call into the program's layers (hip/sim, blas, serve).
 *
 *   perfbench_harness replay <requests.jsonl>
 *       Print, one line per request and in input order, the response the
 *       daemon must send: serve::executePayload run in this process,
 *       enveloped with okResponse/errorResponse.
 *
 *   perfbench_harness trace-suite <out-prefix> <verify-threads> <maxn>
 *                                 <maxseq> <bench>...
 *       Replay the sweep points of fig6_gemm_fp and fig7_gemm_mixed (up
 *       to --maxn=<maxn>), ext_batched_gemm, and ext_quant_transformer
 *       (up to --maxseq=<maxseq>) as the benches run them, then replay the
 *       host kernels each GemmEngine::verify call runs, on the same
 *       shapes and operands, to split verification into GEMMs and the
 *       rest (operand fill and compare).
 *
 *   perfbench_harness trace-serve <out-prefix> <requests.jsonl>
 *                                 <worker-sample>
 *       Replay the request list through the serve layers, then the
 *       simulator calls of every request, then <worker-sample> distinct
 *       requests through a forked worker and in process.
 *
 *   perfbench_harness loadgen open|closed <socket> <schedule.tsv>
 *                             <connections> <timeout-sec> <out.tsv>
 *       Drive an mc_serve daemon from one busy-polling thread. Schedule
 *       lines are
 *       "<due-us>\t<oneshot 0|1>\t<request json>". open: send each
 *       request at its due time on the next of <connections> persistent
 *       connections (or on its own connection when oneshot), whether or
 *       not earlier ones were answered. closed: ignore due times; each
 *       connection keeps one request in flight. Output lines, in
 *       schedule order: "<sent-us>\t<done-us or ->\t<outstanding at
 *       send>\t<response>", times relative to the start.
 *
 * Trace modes write <out-prefix>.trace.json (Chrome trace events; Perfetto
 * opens it) and <out-prefix>.rollup.json (per span name: count, total,
 * self, p50, p99; plus counters). Spans of one sweep point or one request
 * share an id. The harness is single-threaded: every span is opened and
 * closed on the main thread, around a call into the library.
 */

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "blas/batched_gemm.hh"
#include "blas/functional.hh"
#include "blas/gemm.hh"
#include "blas/int8_gemm.hh"
#include "blas/pack_cache.hh"
#include "blas/plan_cache.hh"
#include "blas/tiling.hh"
#include "blas/verify.hh"
#include "exec/sweep_runner.hh"
#include "exec/thread_pool.hh"
#include "fp/traits.hh"
#include "hip/runtime.hh"
#include "serve/engine.hh"
#include "serve/protocol.hh"
#include "serve/worker.hh"

namespace {

using namespace mc;
using Clock = std::chrono::steady_clock;

// ---- Spans ----------------------------------------------------------------

class Tracer
{
  public:
    struct Record
    {
        std::string name;
        std::uint64_t id;
        double start, end;
        double childSec;
        long parent;
    };

    std::size_t
    open(std::string name, std::uint64_t id)
    {
        const long parent = _stack.empty() ? -1 : static_cast<long>(
                                                      _stack.back());
        _records.push_back({std::move(name), id, now(), 0.0, 0.0, parent});
        _stack.push_back(_records.size() - 1);
        return _records.size() - 1;
    }

    void
    close(std::size_t index)
    {
        Record &r = _records[index];
        r.end = now();
        _stack.pop_back();
        if (r.parent >= 0)
            _records[static_cast<std::size_t>(r.parent)].childSec +=
                r.end - r.start;
    }

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - _origin)
            .count();
    }

    const std::vector<Record> &records() const { return _records; }

  private:
    Clock::time_point _origin = Clock::now();
    std::vector<Record> _records;
    std::vector<std::size_t> _stack;
};

class Span
{
  public:
    Span(Tracer &tracer, std::string name, std::uint64_t id)
        : _tracer(tracer), _index(tracer.open(std::move(name), id))
    {}
    ~Span() { _tracer.close(_index); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &_tracer;
    std::size_t _index;
};

/** Named scalar results besides the spans (counts, simulated seconds). */
using Counters = std::map<std::string, double>;

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::max<std::size_t>(rank, 1) - 1];
}

/** Write the Chrome trace and the per-name rollup; false on I/O error. */
bool
writeOutputs(const std::string &prefix, const Tracer &tracer,
             double wall_sec, const Counters &counters)
{
    std::ofstream trace(prefix + ".trace.json");
    trace << "{\"traceEvents\":[";
    bool first = true;
    for (const Tracer::Record &r : tracer.records()) {
        char line[512];
        std::snprintf(line, sizeof(line),
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"id\":%llu}}",
                      first ? "" : ",", r.name.c_str(), r.start * 1e6,
                      (r.end - r.start) * 1e6,
                      static_cast<unsigned long long>(r.id));
        trace << line;
        first = false;
    }
    trace << "\n],\"displayTimeUnit\":\"ms\"}\n";

    struct Roll
    {
        std::vector<double> durations;
        double total = 0.0, self = 0.0;
        bool top = false;
    };
    std::map<std::string, Roll> rolls;
    double top_sec = 0.0;
    for (const Tracer::Record &r : tracer.records()) {
        Roll &roll = rolls[r.name];
        const double dur = r.end - r.start;
        roll.durations.push_back(dur);
        roll.total += dur;
        roll.self += dur - r.childSec;
        if (r.parent < 0) {
            roll.top = true;
            top_sec += dur;
        }
    }

    std::ofstream rollup(prefix + ".rollup.json");
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"wall_s\":%.9g,\"top_s\":%.9g,\"coverage\":%.9g,"
                  "\n\"spans\":{",
                  wall_sec, top_sec, wall_sec > 0 ? top_sec / wall_sec : 0);
    rollup << buf;
    first = true;
    for (const auto &[name, roll] : rolls) {
        std::snprintf(buf, sizeof(buf),
                      "%s\n\"%s\":{\"count\":%zu,\"total_s\":%.9g,"
                      "\"self_s\":%.9g,\"p50_us\":%.9g,\"p99_us\":%.9g,"
                      "\"top\":%s}",
                      first ? "" : ",", name.c_str(),
                      roll.durations.size(), roll.total, roll.self,
                      percentile(roll.durations, 0.50) * 1e6,
                      percentile(roll.durations, 0.99) * 1e6,
                      roll.top ? "true" : "false");
        rollup << buf;
        first = false;
    }
    rollup << "},\n\"counters\":{";
    first = true;
    for (const auto &[name, value] : counters) {
        std::snprintf(buf, sizeof(buf), "%s\n\"%s\":%.17g",
                      first ? "" : ",", name.c_str(), value);
        rollup << buf;
        first = false;
    }
    rollup << "}}\n";
    return static_cast<bool>(trace) && static_cast<bool>(rollup);
}

// ---- Suite replay ---------------------------------------------------------

/** One sweep point of a bench, as its main loop builds it. */
struct Point
{
    std::string bench, key;
    bool noise = true;
    int reps = 10;
    /** Configs run in order within each repetition. */
    std::vector<blas::GemmConfig> chain;
    /** GemmEngine::verify calls (config, seed) once the runs succeed. */
    std::vector<std::pair<blas::GemmConfig, std::uint64_t>> checks;
};

constexpr std::size_t kVerifyMaxN = 2048; // the benches' --verify-maxn
constexpr std::uint64_t kVerifySeedBase = 1ull << 32;

bool
verifiable(const blas::GemmConfig &cfg)
{
    return cfg.m <= kVerifyMaxN && cfg.n <= kVerifyMaxN &&
           cfg.k <= kVerifyMaxN;
}

blas::GemmConfig
squareConfig(blas::GemmCombo combo, std::size_t n)
{
    blas::GemmConfig cfg;
    cfg.combo = combo;
    cfg.m = cfg.n = cfg.k = n;
    cfg.alpha = cfg.beta = 0.1;
    return cfg;
}

/** fig6/fig7: one square point per (combo, N), N = 16 ... maxn. */
void
addSquarePoint(std::vector<Point> &points, const std::string &bench,
               blas::GemmCombo combo, std::size_t n)
{
    Point p;
    p.bench = bench;
    p.key = std::string(blas::comboInfo(combo).name) + "/" +
            std::to_string(n);
    const blas::GemmConfig cfg = squareConfig(combo, n);
    p.chain.push_back(cfg);
    if (verifiable(cfg))
        p.checks.push_back(
            {cfg, exec::deriveSeed(bench, p.key, kVerifySeedBase)});
    points.push_back(std::move(p));
}

/** The sweep points of @p bench in its execution order. */
std::vector<Point>
benchPoints(const std::string &bench, std::size_t maxn, std::size_t maxseq)
{
    using blas::GemmCombo;
    std::vector<Point> points;
    if (bench == "fig6_gemm_fp") {
        for (GemmCombo combo : {GemmCombo::Sgemm, GemmCombo::Dgemm})
            for (std::size_t n = 16; n <= maxn; n *= 2)
                addSquarePoint(points, bench, combo, n);
    } else if (bench == "fig7_gemm_mixed") {
        for (std::size_t n = 16; n <= maxn; n *= 2)
            for (GemmCombo combo :
                 {GemmCombo::Hgemm, GemmCombo::Hss, GemmCombo::Hhs})
                addSquarePoint(points, bench, combo, n);
    } else if (bench == "ext_batched_gemm") {
        for (std::size_t n : {64, 128, 256, 512, 1024}) {
            for (std::size_t batch : {1, 8, 64, 256, 1024}) {
                Point p;
                p.bench = bench;
                p.key = std::to_string(n) + "x" + std::to_string(batch);
                p.noise = false;
                p.reps = 1;
                blas::GemmConfig cfg = squareConfig(GemmCombo::Hhs, n);
                cfg.batchCount = batch;
                p.chain.push_back(cfg);
                p.checks.push_back(
                    {cfg, exec::deriveSeed(bench, p.key, kVerifySeedBase)});
                points.push_back(std::move(p));
            }
        }
    } else if (bench == "ext_quant_transformer") {
        // GPT-2 small: hidden 768, 12 heads of 64, 4x MLP; per-tensor
        // asymmetric quantization (the bench's blockStages/blockQuant).
        constexpr std::size_t h = 768, heads = 12, hd = h / heads;
        blas::QuantParams qp;
        qp.scaleA = 0.02f;
        qp.scaleB = 0.05f;
        qp.scaleD = 0.25f;
        qp.zeroA = 3;
        qp.zeroB = -5;
        qp.zeroD = 1;
        for (std::size_t seq = 128; seq <= maxseq; seq *= 2) {
            Point p;
            p.bench = bench;
            p.key = "i8block/" + std::to_string(seq);
            const std::size_t stages[][4] = {
                {seq, 3 * h, h, 1},     {seq, seq, hd, heads},
                {seq, hd, seq, heads},  {seq, h, h, 1},
                {seq, 4 * h, h, 1},     {seq, h, 4 * h, 1}};
            for (std::size_t si = 0; si < 6; ++si) {
                blas::GemmConfig cfg;
                cfg.combo = GemmCombo::I8gemm;
                cfg.m = stages[si][0];
                cfg.n = stages[si][1];
                cfg.k = stages[si][2];
                cfg.batchCount = stages[si][3];
                cfg.alpha = 1.0;
                cfg.beta = 0.0;
                cfg.quant = qp;
                p.chain.push_back(cfg);
                if (verifiable(cfg))
                    p.checks.push_back(
                        {cfg, exec::deriveSeed(bench, p.key,
                                               kVerifySeedBase + si)});
            }
            points.push_back(std::move(p));
        }
    } else {
        std::fprintf(stderr, "perfbench_harness: no replay for '%s'\n",
                     bench.c_str());
        std::exit(2);
    }
    return points;
}

/** Replay one point as the bench's sweep worker runs it; false when a
 *  run failed (simulated OOM), which skips the point's verification. */
bool
replayPoint(Tracer &tracer, const Point &p, std::uint64_t id,
            const blas::FunctionalGemmOptions &func, Counters &counters)
{
    Span point(tracer, "point." + p.bench, id);
    sim::SimOptions opts;
    opts.enableNoise = p.noise;
    std::optional<hip::Runtime> rt;
    {
        Span s(tracer, "hip.runtime", id);
        rt.emplace(arch::defaultCdna2(), opts);
    }
    blas::GemmEngine engine(*rt);
    bool aborted = false;
    for (int rep = 0; rep < p.reps && !aborted; ++rep) {
        if (p.noise)
            rt->gpu().reseedNoise(exec::deriveSeed(
                p.bench, p.key, static_cast<std::uint64_t>(rep)));
        for (const blas::GemmConfig &cfg : p.chain) {
            Span s(tracer, "sim.run", id);
            auto result = engine.run(cfg);
            if (!result.isOk()) {
                aborted = true;
                break;
            }
            counters["sim.device_s"] += result.value().kernel.seconds;
        }
    }
    counters["blas.plan.hits"] +=
        static_cast<double>(engine.planCache().hits());
    counters["blas.plan.misses"] +=
        static_cast<double>(engine.planCache().misses());
    if (aborted)
        return false;
    engine.functionalOptions() = func;
    for (const auto &[cfg, seed] : p.checks) {
        Span s(tracer, "blas.verify", id);
        const blas::VerifyResult v = engine.verify(
            cfg, blas::VerifyScheme::PaperOnesIdentity, seed);
        if (!v.passed) {
            std::fprintf(stderr, "perfbench_harness: %s %s: %s\n",
                         p.bench.c_str(), p.key.c_str(), v.detail.c_str());
            std::exit(1);
        }
    }
    return true;
}

/**
 * Compare like verify does, so the replay pays the same O(m*n) passes:
 * against the reference, then (paper scheme) against the closed form
 * D = alpha + beta in the leading min(k, n) columns and beta elsewhere.
 */
template <typename T>
double
compareOutputs(const T *got, const T *want, std::size_t entries,
               const blas::GemmConfig &cfg)
{
    using Traits = fp::NumericTraits<T>;
    double worst = 0.0;
    std::uint64_t ulp = 0;
    const std::size_t count = entries * cfg.m * cfg.n;
    for (std::size_t i = 0; i < count; ++i) {
        worst = std::max(worst,
                         std::fabs(static_cast<double>(Traits::widen(got[i])) -
                                   static_cast<double>(Traits::widen(want[i]))));
        ulp = std::max(ulp, fp::ulpDistance(got[i], want[i]));
    }
    for (std::size_t i = 0; i < count; ++i) {
        const double expect =
            (i % cfg.n) < cfg.k ? cfg.alpha + cfg.beta : cfg.beta;
        worst = std::max(worst,
                         std::fabs(static_cast<double>(Traits::widen(got[i])) -
                                   expect));
        ulp = std::max(ulp, fp::ulpDistance(got[i], T(expect)));
    }
    return worst + static_cast<double>(ulp);
}

std::uint64_t
compareOutputs(const std::int8_t *got, const std::int8_t *want,
               std::size_t count)
{
    std::uint64_t worst = 0;
    for (std::size_t i = 0; i < count; ++i)
        worst = std::max<std::uint64_t>(
            worst, static_cast<std::uint64_t>(std::abs(got[i] - want[i])));
    return worst;
}

/**
 * The host work of one GemmEngine::verify call (blas/verify.cc, paper
 * operand scheme) as separate calls: operand fill, the reference GEMM,
 * the engine-selected path (tiled Matrix Core, SIMD, or the strided-
 * batched driver over up to kMaxVerifyBatchEntries entries) and the
 * compare. The GEMM calls get kernel spans; the rest is the replay
 * span's self time.
 */
template <typename TCD, typename TAB, typename TAcc>
void
replayFloatCheck(Tracer &tracer, Counters &counters,
                 const blas::GemmConfig &cfg, const blas::GemmPlan &plan,
                 bool round_each_step,
                 const blas::FunctionalGemmOptions &func, std::uint64_t id)
{
    const std::string kernel =
        std::string("blas.gemm.") + blas::comboInfo(cfg.combo).name;
    const std::size_t m = cfg.m, n = cfg.n, k = cfg.k;
    const double macs = static_cast<double>(m) * n * k;
    auto timed = [&](double work, auto &&call) {
        Span s(tracer, kernel, id);
        call();
        counters[kernel + ".macs"] += work;
    };
    Matrix<TAB> a(m, k), b(k, n);
    Matrix<TCD> c(m, n), d_ref(m, n), d_run(m, n);
    a.fill(TAB(1.0f));
    b.setIdentity();
    c.fill(TCD(1.0f));
    double err = 0.0;
    const std::size_t entries =
        cfg.batchCount > 1
            ? std::min(cfg.batchCount, blas::kMaxVerifyBatchEntries)
            : 1;
    if (entries == 1) {
        timed(macs, [&] {
            blas::referenceGemm<TCD, TAB, TAcc>(cfg.alpha, a, b, cfg.beta,
                                                c, d_ref, round_each_step,
                                                func);
        });
        timed(macs, [&] {
            if (plan.useMatrixCores)
                blas::tiledMatrixCoreGemm<TCD, TAB, TAcc>(
                    *plan.inst, cfg.alpha, a, b, cfg.beta, c, d_run, func);
            else
                blas::referenceGemm<TCD, TAB, TAcc>(
                    cfg.alpha, a, b, cfg.beta, c, d_run, round_each_step,
                    func);
        });
        err = compareOutputs(d_run.data(), d_ref.data(), 1, cfg);
    } else {
        const std::size_t sa = m * k, sc = m * n;
        std::vector<TAB> abuf(entries * sa);
        std::vector<TCD> cbuf(entries * sc), dref(entries * sc),
            drun(entries * sc);
        for (std::size_t e = 0; e < entries; ++e) {
            std::copy_n(a.data(), sa, abuf.data() + e * sa);
            std::copy_n(c.data(), sc, cbuf.data() + e * sc);
            timed(macs, [&] {
                blas::referenceGemm<TCD, TAB, TAcc>(
                    cfg.alpha, a, b, cfg.beta, c, d_ref, round_each_step,
                    func);
            });
            std::copy_n(d_ref.data(), sc, dref.data() + e * sc);
        }
        timed(macs * static_cast<double>(entries), [&] {
            if (plan.useMatrixCores)
                blas::fastBatchedTiledMatrixCoreGemm<TCD, TAB, TAcc>(
                    *plan.inst, entries, cfg.alpha, abuf.data(), sa,
                    b.data(), 0, cfg.beta, cbuf.data(), sc, drun.data(),
                    sc, m, n, k, func);
            else
                blas::fastBatchedGemm<TCD, TAB, TAcc>(
                    entries, cfg.alpha, abuf.data(), sa, b.data(), 0,
                    cfg.beta, cbuf.data(), sc, drun.data(), sc, m, n, k,
                    round_each_step, func);
        });
        err = compareOutputs(drun.data(), dref.data(), entries, cfg);
    }
    counters["blas.verify.replay_max_err"] =
        std::max(counters["blas.verify.replay_max_err"], err);
}

void
replayI8Check(Tracer &tracer, Counters &counters,
              const blas::GemmConfig &cfg,
              const blas::FunctionalGemmOptions &func, std::uint64_t id)
{
    const std::size_t m = cfg.m, n = cfg.n, k = cfg.k;
    const double macs = static_cast<double>(m) * n * k;
    auto timed = [&](const char *name, double work, auto &&call) {
        Span s(tracer, name, id);
        call();
        counters[std::string(name) + ".macs"] += work;
    };
    Matrix<std::int8_t> a(m, k), b(k, n), c(m, n), d_ref(m, n),
        d_run(m, n);
    a.fill(std::int8_t{1});
    b.setIdentity();
    c.fill(std::int8_t{1});
    const std::size_t entries =
        cfg.batchCount > 1
            ? std::min(cfg.batchCount, blas::kMaxVerifyBatchEntries)
            : 1;
    std::uint64_t diff = 0;
    if (entries == 1) {
        timed("blas.i8ref", macs, [&] {
            blas::scalarQuantizedGemm(cfg.alpha, a, b, cfg.beta, c, d_ref,
                                      cfg.quant);
        });
        timed("blas.gemm.i8gemm", macs, [&] {
            blas::fastQuantizedGemm(cfg.alpha, a, b, cfg.beta, c, d_run,
                                    cfg.quant, func);
        });
        diff = compareOutputs(d_run.data(), d_ref.data(), m * n);
    } else {
        const std::size_t sa = m * k, sc = m * n;
        std::vector<std::int8_t> abuf(entries * sa), cbuf(entries * sc),
            dref(entries * sc), drun(entries * sc);
        for (std::size_t e = 0; e < entries; ++e) {
            std::copy_n(a.data(), sa, abuf.data() + e * sa);
            std::copy_n(c.data(), sc, cbuf.data() + e * sc);
            timed("blas.i8ref", macs, [&] {
                blas::scalarQuantizedGemm(cfg.alpha, a, b, cfg.beta, c,
                                          d_ref, cfg.quant);
            });
            std::copy_n(d_ref.data(), sc, dref.data() + e * sc);
        }
        timed("blas.gemm.i8gemm", macs * static_cast<double>(entries), [&] {
            blas::fastBatchedQuantizedGemm(
                entries, cfg.alpha, abuf.data(), sa, b.data(), 0, cfg.beta,
                cbuf.data(), sc, drun.data(), sc, m, n, k, cfg.quant, func);
        });
        diff = compareOutputs(drun.data(), dref.data(), entries * sc);
    }
    if (diff != 0) {
        std::fprintf(stderr, "perfbench_harness: i8 replay mismatch\n");
        std::exit(1);
    }
}

void
replayCheck(Tracer &tracer, Counters &counters,
            const blas::GemmConfig &cfg,
            const blas::FunctionalGemmOptions &func, std::uint64_t id)
{
    using blas::GemmCombo;
    Span s(tracer, "blas.verify.replay", id);
    const blas::GemmPlan plan = blas::planGemm(cfg, arch::defaultCdna2());
    switch (cfg.combo) {
      case GemmCombo::Dgemm:
        return replayFloatCheck<double, double, double>(
            tracer, counters, cfg, plan, false, func, id);
      case GemmCombo::Sgemm:
        return replayFloatCheck<float, float, float>(
            tracer, counters, cfg, plan, false, func, id);
      case GemmCombo::Hgemm:
        return replayFloatCheck<fp::Half, fp::Half, float>(
            tracer, counters, cfg, plan, true, func, id);
      case GemmCombo::Hhs:
        return replayFloatCheck<fp::Half, fp::Half, float>(
            tracer, counters, cfg, plan, false, func, id);
      case GemmCombo::Hss:
        return replayFloatCheck<float, fp::Half, float>(
            tracer, counters, cfg, plan, false, func, id);
      case GemmCombo::I8gemm:
        return replayI8Check(tracer, counters, cfg, func, id);
    }
}

void
addPackDelta(Counters &counters, const blas::PackCacheStats &before)
{
    const blas::PackCacheStats after = blas::PackCache::globalStats();
    counters["blas.pack.hits"] += static_cast<double>(after.hits -
                                                      before.hits);
    counters["blas.pack.misses"] +=
        static_cast<double>(after.misses - before.misses);
    counters["blas.pack.bytes"] = std::max(
        counters["blas.pack.bytes"],
        static_cast<double>(after.residentBytes));
}

int
traceSuite(const std::string &prefix, int verify_threads,
           std::size_t maxn, std::size_t maxseq,
           const std::vector<std::string> &benches)
{
    Tracer tracer;
    Counters counters;
    // The benches' verifyFlags(): --verify-threads=0 means every
    // hardware thread, and verification fan-out is capped at it.
    exec::setConcurrencyCap(exec::ThreadPool::hardwareThreads());
    blas::FunctionalGemmOptions func;
    func.threads = verify_threads == 0 ? -1 : verify_threads;

    std::vector<std::vector<Point>> plans;
    for (const std::string &bench : benches)
        plans.push_back(benchPoints(bench, maxn, maxseq));

    // Each bench is its own process in the suite, so each starts with a
    // cold pack cache; the kernel replay starts each bench cold too and
    // repeats the verify calls in order, so it meets the same hits.
    std::uint64_t id = 0;
    std::vector<bool> verified;
    for (const std::vector<Point> &points : plans) {
        blas::PackCache::instance().clear();
        const blas::PackCacheStats before = blas::PackCache::globalStats();
        for (const Point &p : points)
            verified.push_back(replayPoint(tracer, p, id++, func, counters));
        addPackDelta(counters, before);
    }
    id = 0;
    for (const std::vector<Point> &points : plans) {
        blas::PackCache::instance().clear();
        for (const Point &p : points) {
            if (verified[id])
                for (const auto &check : p.checks)
                    replayCheck(tracer, counters, check.first, func, id);
            ++id;
        }
    }
    return writeOutputs(prefix, tracer, tracer.now(), counters) ? 0 : 1;
}

// ---- Serve replay ---------------------------------------------------------

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "perfbench_harness: cannot read %s\n",
                     path.c_str());
        std::exit(2);
    }
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

serve::ServeRequest
parseOrDie(const std::string &line)
{
    auto parsed = serve::parseRequest(line);
    if (!parsed.isOk()) {
        std::fprintf(stderr, "perfbench_harness: bad request %s: %s\n",
                     line.c_str(), parsed.status().toString().c_str());
        std::exit(2);
    }
    return parsed.take();
}

std::string
envelope(const std::string &id, const Result<JsonValue> &outcome)
{
    return outcome.isOk() ? serve::okResponse(id, outcome.value())
                          : serve::errorResponse(id, outcome.status());
}

int
replayResponses(const std::string &path)
{
    serve::EngineOptions eopts;
    eopts.planCache = std::make_shared<blas::PlanCache>();
    std::unordered_map<std::string, Result<JsonValue>> memo;
    for (const std::string &line : readLines(path)) {
        const serve::ServeRequest request = parseOrDie(line);
        const std::string key = serve::canonicalKey(request);
        auto it = memo.find(key);
        if (it == memo.end())
            it = memo.emplace(key, serve::executePayload(request, eopts))
                     .first;
        std::printf("%s\n", envelope(request.id, it->second).c_str());
    }
    return std::fflush(stdout) == 0 ? 0 : 1;
}

/** The simulator calls of one request (serve/engine.cc measurePoint,
 *  without fault injection): a runtime per grid point, reps runs. */
void
replayRequestSim(Tracer &tracer, Counters &counters,
                 const serve::ServeRequest &request,
                 const std::shared_ptr<blas::PlanCache> &plans,
                 std::uint64_t id)
{
    const std::string base = serve::canonicalKey(request);
    const bool sweep = request.kind == serve::RequestKind::Sweep;
    const std::size_t last = sweep ? request.sweepMaxN : request.n;
    for (std::size_t edge = request.n; edge <= last; edge *= 2) {
        const std::string key = base + "#" + std::to_string(edge);
        std::optional<hip::Runtime> rt;
        {
            Span s(tracer, "hip.runtime", id);
            rt.emplace(arch::defaultCdna2());
        }
        blas::GemmEngine engine(*rt);
        engine.usePlanCache(plans);
        blas::GemmConfig cfg;
        cfg.combo = request.combo;
        cfg.m = sweep ? edge : request.m;
        cfg.n = edge;
        cfg.k = sweep ? edge : request.k;
        cfg.alpha = request.alpha;
        cfg.beta = request.beta;
        cfg.batchCount = request.batch;
        bool aborted = false;
        for (int rep = 0; rep < request.reps && !aborted; ++rep) {
            rt->gpu().reseedNoise(exec::deriveSeed(
                serve::kServeSeedName, key, static_cast<std::uint64_t>(rep)));
            Span s(tracer, "sim.run", id);
            auto result = engine.run(cfg);
            aborted = !result.isOk();
            if (!aborted)
                counters["sim.device_s"] += result.value().kernel.seconds;
        }
        if (aborted)
            break;
    }
}

int
traceServe(const std::string &prefix, const std::string &path,
           std::size_t worker_sample)
{
    Tracer tracer;
    Counters counters;
    const std::vector<std::string> lines = readLines(path);
    serve::EngineOptions eopts;
    eopts.planCache = std::make_shared<blas::PlanCache>();
    int pair[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
        std::perror("socketpair");
        return 1;
    }

    std::vector<serve::ServeRequest> requests;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        Span request_span(tracer, "serve.request", i);
        std::optional<serve::ServeRequest> request;
        {
            Span s(tracer, "serve.parse", i);
            request = parseOrDie(lines[i]);
            (void)serve::canonicalKey(*request);
        }
        Result<JsonValue> outcome = JsonValue();
        {
            Span s(tracer, "serve.execute", i);
            outcome = serve::executePayload(*request, eopts);
        }
        std::string response;
        {
            Span s(tracer, "serve.respond", i);
            response = envelope(request->id, outcome);
        }
        {
            Span s(tracer, "serve.frame", i);
            const Status sent = serve::writeFrame(pair[0], response);
            auto got = serve::readFrame(pair[1]);
            if (!sent.isOk() || !got.isOk() || !got.value() ||
                *got.value() != response) {
                std::fprintf(stderr, "perfbench_harness: frame echo\n");
                return 1;
            }
        }
        requests.push_back(std::move(*request));
    }
    ::close(pair[0]);
    ::close(pair[1]);

    auto plans = std::make_shared<blas::PlanCache>();
    for (std::size_t i = 0; i < requests.size(); ++i) {
        Span s(tracer, "serve.sim", i);
        replayRequestSim(tracer, counters, requests[i], plans, i);
    }

    // Worker cost: the same request forked and in process, back to back.
    serve::WorkerOptions wopts;
    wopts.engine = eopts;
    std::vector<double> overhead_ms;
    std::unordered_map<std::string, bool> seen;
    for (std::size_t i = 0;
         i < requests.size() && overhead_ms.size() < worker_sample; ++i) {
        if (!seen.emplace(serve::canonicalKey(requests[i]), true).second)
            continue;
        const double t0 = tracer.now();
        {
            Span s(tracer, "serve.worker", i);
            (void)serve::runInWorker(requests[i], wopts);
        }
        const double t1 = tracer.now();
        {
            Span s(tracer, "serve.execute.solo", i);
            (void)serve::executePayload(requests[i], eopts);
        }
        const double t2 = tracer.now();
        overhead_ms.push_back(((t1 - t0) - (t2 - t1)) * 1e3);
    }
    counters["serve.worker.overhead_ms"] = percentile(overhead_ms, 0.5);
    counters["serve.worker.samples"] =
        static_cast<double>(overhead_ms.size());
    return writeOutputs(prefix, tracer, tracer.now(), counters) ? 0 : 1;
}

// ---- Load generator -------------------------------------------------------

struct Scheduled
{
    long long dueUs;
    bool oneshot;
    std::string frame; ///< length prefix + request bytes
    long long sentUs = 0, doneUs = 0;
    bool answered = false;
    std::size_t outstanding = 0;
    std::string response;
};

struct ClientConn
{
    int fd = -1;
    bool oneshot = false;
    std::string in, out;
    std::size_t pending = 0;
};

int
connectUnix(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
            0) {
        std::perror("connect");
        std::exit(1);
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

/** The id member of a compact response envelope ({"id": "...", ...}). */
std::string
responseId(const std::string &text)
{
    const std::size_t colon = text.find(':');
    const std::size_t open = text.find('"', colon);
    const std::size_t close = text.find('"', open + 1);
    if (colon == std::string::npos || open == std::string::npos ||
        close == std::string::npos)
        return std::string();
    return text.substr(open + 1, close - open - 1);
}

int
runLoadgen(bool open_loop, const std::string &socket_path,
           const std::string &schedule_path, std::size_t connections,
           double timeout_sec, const std::string &out_path)
{
    std::vector<Scheduled> items;
    std::unordered_map<std::string, std::size_t> by_id;
    for (const std::string &line : readLines(schedule_path)) {
        const std::size_t t1 = line.find('\t');
        const std::size_t t2 = line.find('\t', t1 + 1);
        Scheduled item;
        item.dueUs = std::atoll(line.c_str());
        item.oneshot = line[t1 + 1] == '1';
        const std::string body = line.substr(t2 + 1);
        const std::size_t id_at = body.find("\"id\":\"");
        const std::size_t id_end = body.find('"', id_at + 6);
        by_id[body.substr(id_at + 6, id_end - id_at - 6)] = items.size();
        const std::uint32_t size = static_cast<std::uint32_t>(body.size());
        const char prefix[4] = {static_cast<char>(size >> 24),
                                static_cast<char>(size >> 16),
                                static_cast<char>(size >> 8),
                                static_cast<char>(size)};
        item.frame = std::string(prefix, 4) + body;
        items.push_back(std::move(item));
    }

    std::vector<ClientConn> conns(connections);
    for (ClientConn &c : conns)
        c.fd = connectUnix(socket_path);
    // Open loop: a lead so the first due times are not already past.
    const auto origin = Clock::now() + std::chrono::milliseconds(
                                           open_loop ? 50 : 0);
    auto now_us = [&] {
        return std::chrono::duration_cast<std::chrono::microseconds>(
                   Clock::now() - origin)
            .count();
    };

    std::size_t next = 0, answered = 0, outstanding = 0, rr = 0;
    auto flush = [](ClientConn &c) {
        while (!c.out.empty()) {
            const ssize_t n = ::write(c.fd, c.out.data(), c.out.size());
            if (n <= 0)
                return;
            c.out.erase(0, static_cast<std::size_t>(n));
        }
    };
    auto send = [&](std::size_t index, ClientConn &c) {
        Scheduled &item = items[index];
        c.out += item.frame;
        ++c.pending;
        item.sentUs = now_us();
        item.outstanding = ++outstanding;
        flush(c);
    };
    if (!open_loop)
        for (ClientConn &c : conns)
            if (next < items.size())
                send(next++, c);

    const long long last_due = items.empty() ? 0 : items.back().dueUs;
    const long long give_up =
        (open_loop ? last_due : 0) + static_cast<long long>(timeout_sec * 1e6);
    std::vector<pollfd> fds;
    char buf[1 << 16];
    while (answered < items.size()) {
        long long now = now_us();
        if (open_loop) {
            while (next < items.size() && items[next].dueUs <= now) {
                if (items[next].oneshot) {
                    conns.push_back(ClientConn{});
                    conns.back().fd = connectUnix(socket_path);
                    conns.back().oneshot = true;
                    send(next++, conns.back());
                } else {
                    send(next++, conns[rr++ % connections]);
                }
            }
        }
        if (now > give_up)
            break;
        fds.clear();
        for (const ClientConn &c : conns)
            fds.push_back({c.fd,
                           static_cast<short>(POLLIN |
                                              (c.out.empty() ? 0 : POLLOUT)),
                           0});
        // Busy-poll: a blocking wait would add the timer slack to every
        // send and a wake-up to every response, both noisier than the
        // daemon's own microseconds.
        const timespec timeout{0, 0};
        if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) < 0 &&
            errno != EINTR) {
            std::perror("ppoll");
            return 1;
        }
        for (std::size_t i = 0; i < fds.size(); ++i) {
            ClientConn &c = conns[i];
            if (fds[i].revents & POLLOUT)
                flush(c);
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const ssize_t n = ::read(c.fd, buf, sizeof(buf));
            if (n <= 0) {
                std::fprintf(stderr, "perfbench_harness: daemon closed a "
                                     "connection\n");
                return 1;
            }
            c.in.append(buf, static_cast<std::size_t>(n));
            while (c.in.size() >= 4) {
                const auto *p =
                    reinterpret_cast<const unsigned char *>(c.in.data());
                const std::size_t size = (std::size_t{p[0]} << 24) |
                                         (std::size_t{p[1]} << 16) |
                                         (std::size_t{p[2]} << 8) | p[3];
                if (c.in.size() < 4 + size)
                    break;
                std::string text = c.in.substr(4, size);
                c.in.erase(0, 4 + size);
                auto it = by_id.find(responseId(text));
                if (it == by_id.end()) {
                    std::fprintf(stderr, "perfbench_harness: response for "
                                         "an unknown id: %s\n",
                                 text.c_str());
                    return 1;
                }
                Scheduled &item = items[it->second];
                item.doneUs = now_us();
                item.answered = true;
                item.response = std::move(text);
                --c.pending;
                --outstanding;
                ++answered;
                if (!open_loop && next < items.size())
                    send(next++, c);
            }
        }
        // Retire answered one-shot connections (swap-remove keeps the
        // persistent ones, which sit at the front, in place).
        for (std::size_t i = connections; i < conns.size();) {
            if (conns[i].pending == 0) {
                ::close(conns[i].fd);
                conns[i] = std::move(conns.back());
                conns.pop_back();
            } else {
                ++i;
            }
        }
    }
    for (const ClientConn &c : conns)
        ::close(c.fd);

    std::ofstream out(out_path);
    for (const Scheduled &item : items) {
        out << item.sentUs << '\t';
        if (item.answered)
            out << item.doneUs;
        else
            out << '-';
        out << '\t' << item.outstanding << '\t' << item.response << '\n';
    }
    return out ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_harness replay <requests.jsonl>\n"
                 "       perfbench_harness trace-suite <out-prefix> "
                 "<verify-threads> <maxn> <maxseq> <bench>...\n"
                 "       perfbench_harness trace-serve <out-prefix> "
                 "<requests.jsonl> <worker-sample>\n"
                 "       perfbench_harness loadgen open|closed <socket> "
                 "<schedule.tsv> <connections> <timeout-sec> <out.tsv>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() == 2 && args[0] == "replay")
        return replayResponses(args[1]);
    if (args.size() >= 6 && args[0] == "trace-suite")
        return traceSuite(args[1], std::atoi(args[2].c_str()),
                          std::strtoull(args[3].c_str(), nullptr, 10),
                          std::strtoull(args[4].c_str(), nullptr, 10),
                          {args.begin() + 5, args.end()});
    if (args.size() == 7 && args[0] == "loadgen" &&
        (args[1] == "open" || args[1] == "closed"))
        return runLoadgen(args[1] == "open", args[2], args[3],
                          std::max<std::size_t>(
                              1, std::strtoull(args[4].c_str(), nullptr, 10)),
                          std::atof(args[5].c_str()), args[6]);
    if (args.size() == 4 && args[0] == "trace-serve")
        return traceServe(args[1], args[2],
                          std::strtoull(args[3].c_str(), nullptr, 10));
    return usage();
}
