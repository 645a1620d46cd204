/**
 * @file
 * One benchmark round, run in a fresh process by perfbench/run.py.
 *
 *   perfbench_round <gemm_full|gemm_sampled|serve_sweep> --seed N [--trace]
 *   perfbench_round probes --workload W
 *   perfbench_round reference
 *
 * A round is a fixed unit of user work whose only input is its seed.
 * It drives the simulator through public entry points only and prints
 * one JSON object on stdout: the simulated results of every cell or
 * serving arm (which run.py checks and digests), the steady-clock
 * instants the timed work started and ended (run.py derives set-up
 * time from its own spawn instant on the same clock) and the process's
 * peak resident set.
 *
 * With --trace the round also records spans around every public call
 * (round -> cell -> call, layer-tagged) and per-layer counters. The
 * `probes` mode drives inner layers that no round calls directly —
 * event queue, DRAM model + fetch streams, host core, tile pools — on
 * the exact preset configurations, for the traced run's per-layer
 * numbers. The `reference` mode times a fixed host-reference loop in
 * its own process; run.py runs it between rounds to track the host's
 * speed.
 *
 * Everything runs on the calling thread; no runner thread pool is
 * touched.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <queue>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "event_churn.h"
#include "serve_common.h"

#include "core/host_core.h"
#include "kernels/gemm_sim.h"
#include "llm/inference.h"
#include "runner/report.h"
#include "serve/candidates.h"
#include "serve/serving_sim.h"
#include "serve/step_cost.h"
#include "serve/trace.h"
#include "sim/event_queue.h"
#include "sim/fetch_stream.h"
#include "sim/memory_system.h"
#include "sim/params.h"

using namespace deca;

namespace {

using Clock = std::chrono::steady_clock;

long long
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Flat JSON object writer (values are pre-rendered JSON). */
class JsonObject
{
  public:
    JsonObject &
    add(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ",") + runner::jsonQuote(key) +
                 ":" + json;
        return *this;
    }
    JsonObject &
    num(const std::string &key, double v)
    {
        return add(key, ::num(v));
    }
    JsonObject &
    str(const std::string &key, const std::string &v)
    {
        return add(key, runner::jsonQuote(v));
    }
    std::string render() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i ? "," : "") + items[i];
    return out + "]";
}

/**
 * In-memory span recorder. Spans nest strictly (one thread), so the
 * parent of a new span is the innermost open one; run.py computes
 * self time as a span's duration minus its children's. Disabled
 * recorders hand out inert spans, so untraced rounds pay one branch
 * per public call.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    class Span
    {
      public:
        Span(Tracer *t, int idx) : t_(t), idx_(idx) {}
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;
        ~Span()
        {
            if (idx_ >= 0)
                t_->close(idx_);
        }

      private:
        Tracer *t_;
        int idx_;
    };

    Span
    span(const std::string &name, const char *layer)
    {
        if (!on_)
            return Span(this, -1);
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, layer, parent, nowNs(), 0});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return Span(this, open_.back());
    }

    /** Per-layer counter (kept only when tracing). */
    void
    count(const std::string &name, double v)
    {
        if (on_)
            counters_[name] += v;
    }

    bool on() const { return on_; }

    std::string
    spansJson() const
    {
        std::vector<std::string> out;
        for (const Rec &r : spans_)
            out.push_back(JsonObject()
                              .str("name", r.name)
                              .str("layer", r.layer)
                              .num("parent", r.parent)
                              .num("t0", static_cast<double>(r.t0))
                              .num("t1", static_cast<double>(r.t1))
                              .render());
        return jsonArray(out);
    }

    std::string
    countersJson() const
    {
        JsonObject o;
        for (const auto &[k, v] : counters_)
            o.num(k, v);
        return o.render();
    }

  private:
    struct Rec
    {
        std::string name;
        std::string layer;
        int parent;
        long long t0;
        long long t1;
    };

    void
    close(int idx)
    {
        spans_[idx].t1 = nowNs();
        open_.pop_back();
    }

    bool on_;
    std::vector<Rec> spans_;
    std::vector<int> open_;
    std::map<std::string, double> counters_;
};

double
secondsSince(long long t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

u64
xorshift(u64 &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

/**
 * Fixed host reference, timed in its own process: a binary-heap churn
 * (core- and L2-bound, like the event and request queues) plus a
 * dependent pointer chase over a 32 MiB random cycle (DRAM-latency
 * bound, like the simulators' cache-missing state). It is benchmark
 * code, untouched by any simulator change, and its time moves with the
 * host's current speed on this mix of work, so run.py scales each
 * round's times by it.
 */
double
hostReferenceSeconds()
{
    const long long t0 = nowNs();
    u64 x = 0x9e3779b97f4a7c15ull;
    u64 sink = 0;
    std::priority_queue<u64> heap;
    for (u32 i = 0; i < (1u << 16); ++i)
        heap.push(xorshift(x));
    for (u32 i = 0; i < 1'000'000; ++i) {
        heap.push(xorshift(x));
        sink += heap.top();
        heap.pop();
    }
    // Sattolo's shuffle: one cycle through every slot.
    std::vector<u32> next(1u << 23);
    std::iota(next.begin(), next.end(), 0u);
    for (u32 i = static_cast<u32>(next.size()) - 1; i > 0; --i)
        std::swap(next[i], next[xorshift(x) % i]);
    u32 cur = 0;
    for (u32 i = 0; i < 1'000'000; ++i)
        cur = next[cur];
    sink += cur;
    const double secs = secondsSince(t0);
    // Consume the results so the loops are not optimized away.
    if (sink == 0)
        std::fprintf(stderr, "unreachable\n");
    return secs;
}

// ---------------------------------------------------------------------
// GeMM workloads
// ---------------------------------------------------------------------

/** One runGemmSteady call of a round. */
struct GemmCell
{
    std::string name;
    sim::SimParams params;
    kernels::KernelConfig kernel;
    kernels::GemmWorkload work;
};

/** gemm_full: Fig. 14's headline pair (SW at 56 cores, DECA at 16,
 *  DDR5, N=4, 128 tiles, pool 24) and Fig. 13's HBM DECA cells (56
 *  cores, N=1), every paper scheme, full fidelity. */
std::vector<GemmCell>
gemmFullCells(u64 seed)
{
    std::vector<GemmCell> cells;
    sim::SimParams sw56 = sim::sprDdrParams();
    sw56.cores = 56;
    sim::SimParams deca16 = sim::sprDdrParams();
    deca16.cores = 16;
    const sim::SimParams hbm = sim::sprHbmParams();
    for (const auto &s : compress::paperSchemes()) {
        kernels::GemmWorkload w = bench::makeWorkload(s, 4, 128, 24);
        w.seed = seed;
        cells.push_back({"fig14/sw56/" + s.name, sw56,
                         kernels::KernelConfig::software(), w});
        cells.push_back({"fig14/deca16/" + s.name, deca16,
                         kernels::KernelConfig::decaKernel(), w});
    }
    for (const auto &s : compress::paperSchemes()) {
        kernels::GemmWorkload w = bench::makeWorkload(s, 1);
        w.seed = seed;
        cells.push_back({"fig13/deca56/" + s.name, hbm,
                         kernels::KernelConfig::decaKernel(), w});
    }
    return cells;
}

/** gemm_sampled: DECA at 56 cores on DDR5, N=4, every paper scheme at
 *  three stream lengths, on the sampled tier. */
std::vector<GemmCell>
gemmSampledCells(u64 seed)
{
    std::vector<GemmCell> cells;
    sim::SimParams p = sim::sprDdrParams();
    p.sampleMode = true;
    for (const auto &s : compress::paperSchemes())
        for (const u32 tiles : {224u, 896u, 3584u}) {
            kernels::GemmWorkload w = bench::makeWorkload(s, 4, tiles);
            w.seed = seed;
            cells.push_back({"sampled/deca56/" + s.name + "/" +
                                 std::to_string(tiles),
                             p, kernels::KernelConfig::decaKernel(), w});
        }
    return cells;
}

/** Tiles the cycle simulation actually ran for one call. */
double
simulatedTiles(const GemmCell &c, const kernels::GemmResult &r,
               u32 warmup)
{
    const double per_core =
        r.sampled ? r.sampledTilesPerCore
                  : c.work.tilesPerCore + 2.0 * warmup;
    return per_core * c.params.cores;
}

std::string
gemmRound(const std::vector<GemmCell> &cells, Tracer &tr,
          long long &ready_ns)
{
    constexpr u32 kWarmup = 48; // runGemmSteady's default
    std::vector<std::string> out;
    ready_ns = nowNs();
    for (const GemmCell &c : cells) {
        Tracer::Span cell = tr.span(c.name, "bench");
        kernels::GemmResult r;
        {
            Tracer::Span call = tr.span("runGemmSteady", "kernels");
            r = kernels::runGemmSteady(c.params, c.kernel, c.work,
                                       kWarmup);
        }
        tr.count("kernels.gemm_calls", 1);
        tr.count("kernels.sampled_calls", r.sampled ? 1 : 0);
        tr.count("kernels.sim_tiles", simulatedTiles(c, r, kWarmup));
        out.push_back(
            JsonObject()
                .str("name", c.name)
                .num("scheduled_tiles",
                     static_cast<double>(c.params.cores) *
                         c.work.tilesPerCore)
                .num("tiles", static_cast<double>(r.tilesProcessed))
                .num("cycles", static_cast<double>(r.cycles))
                .num("tflops", r.tflops)
                .num("util_mem", r.utilMem)
                .num("util_tmul", r.utilTmul)
                .num("util_vec", r.utilVec)
                .num("util_deca", r.utilDeca)
                .render());
    }
    return jsonArray(out);
}

// ---------------------------------------------------------------------
// serve_sweep
// ---------------------------------------------------------------------

/** Requests each serving arm serves per round. */
constexpr u64 kServeRequests = 20000;

/** One fault arm of bench/serve_resilience.cc. */
struct ServeArm
{
    const char *mode;
    bool crash;
    bool accelFault;
    bool swPrimary;
};

constexpr ServeArm kArms[] = {
    {"healthy", false, false, false},
    {"crash+retry", true, false, false},
    {"accel+sw", false, true, false},
    {"sw-only", false, false, true},
};

std::string
serveJson(const std::string &name, const serve::ServeMetrics &m)
{
    return JsonObject()
        .str("name", name)
        .num("offered", static_cast<double>(m.offered))
        .num("completed", static_cast<double>(m.completed))
        .num("rejected", static_cast<double>(m.rejected()))
        .num("shed", static_cast<double>(m.shed))
        .num("timed_out", static_cast<double>(m.timedOut))
        .num("generated_tokens", static_cast<double>(m.generatedTokens))
        .num("goodput_tokens", static_cast<double>(m.goodputTokens))
        .num("wasted_tokens", static_cast<double>(m.wastedTokens))
        .num("retries", static_cast<double>(m.retries))
        .num("crashes", static_cast<double>(m.crashes))
        .num("accel_faults", static_cast<double>(m.accelFaults))
        .num("degraded_steps", static_cast<double>(m.degradedSteps))
        .num("decode_steps", static_cast<double>(m.decodeSteps))
        .num("prefill_steps", static_cast<double>(m.prefillSteps))
        .num("duration_s", m.durationSec)
        .num("busy_fraction", m.busyFraction)
        .num("availability", m.availability)
        .render();
}

/**
 * Mirrors bench/serve_resilience.cc on the HBM node: per scheme, each
 * arm builds the step-cost models it serves with (the scenario's
 * per-cell pattern, so identical anchors are rebuilt) and serves
 * Poisson traffic at 85% of the healthy knee under the scenario's
 * deadline, backoff, shedding and fault defaults.
 */
std::string
serveRound(u64 seed, Tracer &tr, long long &ready_ns)
{
    const sim::SimParams p = sim::sprHbmParams();
    const llm::ModelConfig model = llm::llama2_70b();
    llm::NonGemmModel ng;
    {
        Tracer::Span s = tr.span("calibrateForMachine", "llm");
        ng = llm::InferenceModel::calibrateForMachine(model, p);
    }
    const llm::InferenceModel inf(model, p, ng);
    ready_ns = nowNs();

    constexpr u32 kBatch = 16;
    constexpr double kRateFrac = 0.85;
    serve::FaultConfig faults;
    faults.timeoutSec = 180.0;
    faults.retryBaseSec = 5.0;
    faults.shedQueueDepth = 48;

    std::set<std::string> distinct;
    auto build = [&](const compress::CompressionScheme &s, bool sw) {
        const kernels::KernelConfig k = sw
                                            ? serve::swFallbackKernelFor(s)
                                            : serve::defaultKernelFor(s);
        Tracer::Span span = tr.span("StepCostModel", "serve");
        auto m = std::make_unique<serve::StepCostModel>(inf, s, k);
        tr.count("serve.step_cost.builds", 1);
        distinct.insert(s.name + "|" + k.describe());
        return m;
    };

    std::vector<std::string> out;
    for (const auto &s :
         {compress::schemeQ8(0.20), compress::schemeMxfp4()}) {
        Tracer::Span cell = tr.span("serve/" + s.name, "bench");
        const serve::PoissonTraffic traffic0 = bench::defaultTraffic(seed);
        double rate = 0.0;
        for (const ServeArm &arm : kArms) {
            std::unique_ptr<serve::StepCostModel> deca;
            std::unique_ptr<serve::StepCostModel> sw;
            if (!arm.swPrimary)
                deca = build(s, false);
            if (arm.swPrimary || arm.accelFault)
                sw = build(s, true);
            // The healthy arm comes first and fixes the offered rate
            // every arm of the scheme serves.
            if (rate == 0.0)
                rate = kRateFrac *
                       bench::analyticKneeRate(*deca, traffic0, kBatch);

            serve::ServeNodeConfig node;
            node.nodeCapacityBytes = bench::defaultNodeCapacity(p);
            node.sched.maxBatch = kBatch;
            node.sched.maxWaitQueue = 512;
            node.sched.prefillChunkTokens = 512;
            node.faults = faults;
            if (arm.crash) {
                node.faults.crashMtbfSec = 150.0;
                node.faults.crashMttrSec = 60.0;
                node.faults.retryMax = 2;
            }
            if (arm.accelFault) {
                node.faults.accelMtbfSec = 240.0;
                node.faults.accelMttrSec = 60.0;
            }

            serve::PoissonTraffic traffic = traffic0;
            traffic.ratePerSec = rate;
            std::vector<serve::Request> reqs;
            {
                Tracer::Span g = tr.span("generatePoisson", "serve");
                reqs = serve::generatePoisson(traffic, kServeRequests);
            }
            const serve::StepCostModel &primary =
                arm.swPrimary ? *sw : *deca;
            serve::ServingSimulator sim(primary, node, std::move(reqs),
                                        arm.accelFault ? sw.get()
                                                       : nullptr);
            serve::ServeMetrics m;
            {
                Tracer::Span r = tr.span("ServingSimulator::run", "serve");
                m = sim.run();
            }
            tr.count("serve.sim.requests", static_cast<double>(m.offered));
            out.push_back(serveJson(s.name + "/" + arm.mode, m));
        }
    }
    tr.count("serve.step_cost.distinct_builds",
             static_cast<double>(distinct.size()));
    return jsonArray(out);
}

// ---------------------------------------------------------------------
// Layer probes (traced run only)
// ---------------------------------------------------------------------

/** Line streaming through MemorySystem + bounded-acceptance
 *  FetchStreams on a preset's exact memory config, with the DECA
 *  kernel's per-Loader stream settings. */
void
probeMemory(const sim::SimParams &p, u32 streams, u64 lines_per_stream,
            const std::string &prefix, JsonObject &out)
{
    sim::EventQueue q;
    sim::MemorySystem mem(q, p.memConfig());
    sim::FetchStreamConfig fc;
    fc.policy = sim::PrefetchPolicy::DecaPf;
    fc.mshrs = p.l2Mshrs / 2;
    fc.onChipLatency = p.l2Latency + p.llcLatency;
    fc.boundedAcceptance = p.memAcceptDepth != 0;
    const u64 chunk = 16 * kCacheLineBytes;
    std::vector<std::unique_ptr<sim::FetchStream>> fs;
    for (u32 s = 0; s < streams; ++s)
        fs.push_back(std::make_unique<sim::FetchStream>(
            q, mem, fc, lines_per_stream * kCacheLineBytes));
    auto consume = [&](u32 s) -> sim::SimTask {
        for (u64 i = 0; i < lines_per_stream / 16; ++i)
            co_await fs[s]->fetch(chunk);
    };
    const long long t0 = nowNs();
    for (u32 s = 0; s < streams; ++s)
        consume(s);
    q.run();
    const double secs = secondsSince(t0);
    const double lines = static_cast<double>(streams) * lines_per_stream;
    out.num(prefix + "_ns_per_line", secs * 1e9 / lines)
        .num(prefix + "_lines", lines)
        .num(prefix + "_bytes_served",
             static_cast<double>(mem.bytesServed()))
        .num(prefix + "_row_hit_frac", mem.measuredRowHitRate())
        .num(prefix + "_peak_active_requesters",
             mem.peakActiveRequesters());
}

/** A DECA-style TEPL/tload/TMUL op stream through one HostCore with
 *  the preset's front-end knobs (GemmSimulation::run's mapping). */
struct HostProbe
{
    sim::EventQueue q;
    sim::SimParams p = sim::sprDdrParams();
    std::unique_ptr<core::HostCore> host;

    static void
    onIssue(void *ctx, const accel::TeplEntry &e)
    {
        auto *hp = static_cast<HostProbe *>(ctx);
        hp->q.schedule(hp->p.coreToDecaStore, &onArrive, hp,
                       static_cast<u32>(e.seqNum));
    }
    static void
    onArrive(void *ctx, u64 seq)
    {
        auto *hp = static_cast<HostProbe *>(ctx);
        hp->host->completeOnce(seq);
        hp->q.schedule(32, &onLanded, hp, static_cast<u32>(seq));
    }
    static void
    onLanded(void *ctx, u64 seq)
    {
        auto *hp = static_cast<HostProbe *>(ctx);
        hp->host->teplComplete(seq);
        hp->host->complete(seq + 1); // the tload of the landed tile
        hp->q.schedule(hp->p.tmulCycles, &onTmul, hp,
                       static_cast<u32>(seq + 2));
    }
    static void
    onTmul(void *ctx, u64 seq)
    {
        static_cast<HostProbe *>(ctx)->host->complete(seq);
    }

    sim::SimTask
    dispatcher(u32 tiles)
    {
        for (u32 t = 0; t < tiles; ++t) {
            core::Op tepl;
            tepl.cls = core::OpClass::TeplIssue;
            tepl.teplMeta = t;
            tepl.teplDest = t % 8;
            co_await host->dispatch(tepl);
            core::Op ld;
            ld.cls = core::OpClass::Load;
            co_await host->dispatch(ld);
            core::Op mul;
            mul.cls = core::OpClass::Compute;
            co_await host->dispatch(mul);
            co_await sim::Delay(q, 24);
        }
        host->stop();
    }
};

void
probeHostCore(u32 tiles, JsonObject &out)
{
    HostProbe hp;
    core::HostCoreConfig hc;
    hc.robSize = hp.p.robSize;
    hc.issueWidth = hp.p.issueWidth;
    hc.lsqSize = hp.p.lsqSize;
    hc.teplQueueSize = hp.p.teplQueueSize;
    hc.teplPorts = 2;
    hc.flushPeriod = hp.p.flushPeriodCycles;
    hc.flushPenalty = hp.p.flushPenaltyCycles;
    hc.storeLatency = hp.p.coreToDecaStore;
    hc.fenceLatency = hp.p.fenceCycles;
    hp.host = std::make_unique<core::HostCore>(hp.q, hc, tiles);
    hp.host->setTeplHandler(&HostProbe::onIssue, &hp);
    const long long t0 = nowNs();
    hp.dispatcher(tiles);
    hp.q.run();
    const double secs = secondsSince(t0);
    const double ops = static_cast<double>(hp.host->statDispatched());
    out.num("host_ns_per_op", secs * 1e9 / ops).num("host_ops", ops);
}

/** Builds every distinct tile pool the workload's GeMM calls use. */
void
probeTilePools(const std::string &workload, JsonObject &out)
{
    std::vector<kernels::GemmWorkload> works;
    if (workload == "gemm_full")
        for (const GemmCell &c : gemmFullCells(1))
            works.push_back(c.work);
    else if (workload == "gemm_sampled")
        for (const GemmCell &c : gemmSampledCells(1))
            works.push_back(c.work);
    std::set<std::string> seen;
    const long long t0 = nowNs();
    for (const kernels::GemmWorkload &w : works)
        if (seen.insert(w.scheme.name + "|" + std::to_string(w.poolTiles))
                .second)
            kernels::TilePool(w.scheme, w.poolTiles, w.seed);
    out.num("tile_pool_build_s", secondsSince(t0))
        .num("tile_pools", static_cast<double>(seen.size()));
}

std::string
probes(const std::string &workload)
{
    JsonObject out;
    {
        sim::EventQueue q;
        constexpr u64 kEvents = 4'000'000;
        const long long t0 = nowNs();
        bench::runChurn(q, kEvents);
        out.num("event_ns_per_event",
                secondsSince(t0) * 1e9 /
                    static_cast<double>(q.eventsExecuted()))
            .num("events", static_cast<double>(q.eventsExecuted()));
    }
    // Fig. 14's DECA cell (16 cores x 2 Loaders) on DDR5 and Fig. 13's
    // (56 x 2) on HBM.
    probeMemory(sim::sprDdrParams(), 32, 12'000, "ddr", out);
    probeMemory(sim::sprHbmParams(), 112, 4'000, "hbm", out);
    probeHostCore(200'000, out);
    probeTilePools(workload, out);
    return out.render();
}

/** Peak resident set of this process image (VmHWM, kB). ru_maxrss is
 *  not used: it also counts the image the parent forked before exec. */
double
peakRssKb()
{
    double kb = 0.0;
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return kb;
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_round "
                 "<gemm_full|gemm_sampled|serve_sweep> --seed N "
                 "[--trace]\n"
                 "       perfbench_round probes --workload W\n"
                 "       perfbench_round reference\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    u64 seed = 0;
    bool have_seed = false;
    bool trace = false;
    std::string probe_workload;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            char *end = nullptr;
            seed = std::strtoull(argv[++i], &end, 10);
            if (end == nullptr || *end != '\0')
                return usage();
            have_seed = true;
        } else if (std::strcmp(argv[i], "--trace") == 0) {
            trace = true;
        } else if (std::strcmp(argv[i], "--workload") == 0 &&
                   i + 1 < argc) {
            probe_workload = argv[++i];
        } else {
            return usage();
        }
    }

    if (mode == "probes") {
        std::printf("%s\n", probes(probe_workload).c_str());
        return 0;
    }
    if (mode == "reference") {
        std::printf("%s\n", JsonObject()
                                .num("host_ref_s", hostReferenceSeconds())
                                .render()
                                .c_str());
        return 0;
    }
    if (!have_seed)
        return usage();

    Tracer tr(trace);
    long long ready_ns = 0;
    std::string results;
    {
        Tracer::Span round = tr.span("round", "bench");
        if (mode == "gemm_full")
            results = gemmRound(gemmFullCells(seed), tr, ready_ns);
        else if (mode == "gemm_sampled")
            results = gemmRound(gemmSampledCells(seed), tr, ready_ns);
        else if (mode == "serve_sweep")
            results = serveRound(seed, tr, ready_ns);
        else
            return usage();
    }
    const long long end_ns = nowNs();
    const kernels::BaselineCacheStats bc =
        kernels::sampleBaselineCacheStats();
    tr.count("kernels.baseline_cache_hits", static_cast<double>(bc.hits));
    tr.count("kernels.baseline_cache_misses",
             static_cast<double>(bc.misses));

    JsonObject out;
    out.str("workload", mode)
        .num("seed", static_cast<double>(seed))
        .num("ready_ns", static_cast<double>(ready_ns))
        .num("end_ns", static_cast<double>(end_ns))
        .num("peak_rss_kb", peakRssKb())
        .add("results", results);
    if (tr.on())
        out.add("spans", tr.spansJson())
            .add("counters", tr.countersJson());
    std::printf("%s\n", out.render().c_str());
    return 0;
}
