/**
 * @file
 * serve_batch: request lines into one long-lived ServeLoop.
 *
 * The stream: all twelve registry models with a fixed Zipf
 * popularity; zoos of one to three models; K in {1,2,4,8} with K = 1
 * at 40%; both objectives with budgets between each model's
 * composition extremes; 10% segment searches; 10% carrying a
 * generous deadline; and 30% re-sends of one of the last eight lines,
 * the duplicates coalescing exists for. The seed draws the traffic
 * from a fixed catalogue of request templates. Coalescing is on and
 * the cache is unbounded, warmed over every distinct request before
 * timing. (A cache bounded below the working set made the figures
 * depend on the eviction order of each run; see perfbench/README.md.)
 * Every answer is checked against a paused, one-in-flight replay of
 * the distinct requests (sameResponse, identity fields aligned).
 *
 * Batches of kBatch lines are submitted to the paused loop (one
 * request in flight, pool inline), then released and drained.
 * Throughput is the median batch; latency is the service time of each
 * computed answer (its build, without queueing).
 */

#include <algorithm>
#include <cmath>
#include <random>
#include <limits>
#include <memory>
#include <unordered_map>

#include "lego.hh"
#include "workloads.hh"

using namespace lego;

namespace perfbench
{

namespace
{

/** Popularity rank order (Zipf weight 1/rank); fixed, not seeded. */
const char *const kByPopularity[] = {
    "mobilenetv2", "resnet50", "bert",           "gpt2",
    "llama7b",     "alexnet",  "efficientnetv2", "coatnet",
    "lenet",       "ddpm",     "sdunet",         "llama7b-bs32"};
constexpr std::size_t kNumModels = std::size(kByPopularity);

/** Request templates the stream draws from, and their fixed seed. */
constexpr std::size_t kPoolSize = 2048;
constexpr std::uint64_t kPoolSeed = 0x1e90c0de;
/** Requests per paused batch. */
constexpr std::size_t kBatch = 1000;
/** Stream length; batches wrap around it. */
constexpr std::size_t kStreamLines = 1 << 16;

const std::size_t kKs[] = {1, 2, 4, 8};

/** Composition extremes of one (model, K): the budget range. */
struct Extremes
{
    double energyLo = 0, energyHi = 0; // min-energy .. best-latency
    double cyclesLo = 0, cyclesHi = 0; // best-latency .. min-energy
};

struct Line
{
    std::string text;
    std::size_t key = 0; //!< Index into the distinct-key table.
};

/** The seeded request stream; batches read it cyclically through
 *  line(), so its length bounds memory, not run time. */
struct Stream
{
    const Line &line(std::size_t i) const { return lines[i % lines.size()]; }

    std::vector<Line> lines;
    std::vector<std::string> keyLines; //!< One line per distinct key.
    std::size_t dupShare = 0; //!< Lines that re-send a recent line.
};

/** Per-(model, K) extremes, from a private engine (input
 *  generation: the served loop never sees this work). */
std::vector<std::vector<Extremes>>
computeExtremes(const HardwareConfig &hw)
{
    dse::DseOptions o;
    o.threads = 1;
    dse::DseEngine engine(o);
    std::vector<std::vector<Extremes>> out(kNumModels);
    for (std::size_t mi = 0; mi < kNumModels; ++mi) {
        Model m;
        serve::lookupModel(kByPopularity[mi], &m);
        for (std::size_t k : kKs) {
            auto fronts = engine.evaluator().mapModelFrontier(
                hw, m, k, &engine.pool());
            ComposeOptions fast;
            fast.frontierK = k;
            ComposeOptions frugal = fast;
            frugal.latencyBudgetCycles =
                std::numeric_limits<double>::max();
            const RunSummary a = composeSchedule(m, fronts, fast).summary;
            const RunSummary b =
                composeSchedule(m, std::move(fronts), frugal).summary;
            Extremes e;
            e.energyLo = b.totalEnergyPj;
            e.energyHi = a.totalEnergyPj;
            e.cyclesLo = double(a.totalCycles);
            e.cyclesHi = double(b.totalCycles);
            out[mi].push_back(e);
        }
    }
    return out;
}

/**
 * Seeded quasi-random variates: one additive (Kronecker) sequence
 * per request attribute, x += frac(sqrt(prime)), started at a seeded
 * point. Unlike independent random draws, every seed then yields
 * almost exactly the target mix (and joint mix: the steps are
 * rationally independent), so run-to-run differences come from the
 * program, not from a luckier or unluckier sample of heavy requests.
 */
class Attr
{
  public:
    Attr(std::mt19937_64 &rng, unsigned prime)
        : x_(std::uniform_real_distribution<double>(0, 1)(rng)),
          step_(std::sqrt(double(prime)) -
                std::floor(std::sqrt(double(prime))))
    {}
    double next()
    {
        x_ += step_;
        x_ -= std::floor(x_);
        return x_;
    }

  private:
    double x_, step_;
};

/** The seeded request templates: kPoolSize draws, attribute by
 *  attribute, with repeats kept so popular requests stay popular. */
std::vector<serve::ServeRequest>
makePool(std::mt19937_64 &rng, const std::vector<std::vector<Extremes>> &ext)
{
    Attr zooA(rng, 2), modelA(rng, 3), kA(rng, 5), objA(rng, 7),
        budgetA(rng, 11), levelA(rng, 13), segA(rng, 17), deadlineA(rng, 19);
    std::vector<double> cdf;
    double total = 0;
    for (std::size_t i = 0; i < kNumModels; ++i)
        cdf.push_back(total += 1.0 / double(i + 1));
    auto pickModel = [&] {
        const double x = modelA.next() * total;
        return std::size_t(std::lower_bound(cdf.begin(), cdf.end(), x) -
                           cdf.begin());
    };

    std::vector<serve::ServeRequest> pool;
    while (pool.size() < kPoolSize) {
        serve::ServeRequest r;
        const double zs = zooA.next();
        const std::size_t zoo = zs < 0.7 ? 1 : zs < 0.9 ? 2 : 3;
        std::vector<std::size_t> picked;
        while (picked.size() < zoo) {
            const std::size_t m = pickModel();
            if (std::find(picked.begin(), picked.end(), m) == picked.end())
                picked.push_back(m);
        }
        for (std::size_t m : picked)
            r.models.push_back(kByPopularity[m]);
        const double ks = kA.next();
        const std::size_t ki = ks < 0.4 ? 0 : ks < 0.6 ? 1 : ks < 0.8 ? 2 : 3;
        r.frontierK = kKs[ki];
        r.objective = objA.next() < 0.5 ? serve::Objective::Latency
                                        : serve::Objective::Energy;
        // Budgets only bind with a frontier to choose from; they sit
        // at 1/4, 1/2 or 3/4 of the first model's range.
        if (r.frontierK > 1 && budgetA.next() < 0.6) {
            const double t = 0.25 * (1.0 + std::floor(levelA.next() * 3));
            const Extremes &e = ext[picked[0]][ki];
            r.budget = r.objective == serve::Objective::Latency
                           ? e.energyLo + t * (e.energyHi - e.energyLo)
                           : e.cyclesLo + t * (e.cyclesHi - e.cyclesLo);
        }
        r.segment = segA.next() < 0.1;
        if (deadlineA.next() < 0.1)
            r.deadlineMs = 60000; // Generous: never expires.
        pool.push_back(std::move(r));
    }
    return pool;
}

Stream
makeStream(std::uint64_t seed, std::size_t count,
           const std::vector<std::vector<Extremes>> &ext)
{
    // The catalogue of request templates is fixed; the seed draws the
    // traffic from it (which template each line sends).
    std::mt19937_64 poolRng(kPoolSeed);
    const std::vector<serve::ServeRequest> pool = makePool(poolRng, ext);
    std::mt19937_64 rng(seed ^ 0x5e7e0a11ull);
    Stream s;
    std::unordered_map<std::string, std::size_t> keyOf;
    std::vector<std::size_t> poolKey;
    for (const serve::ServeRequest &r : pool) {
        auto ins = keyOf.emplace(serve::coalesceKey(r), keyOf.size());
        if (ins.second)
            s.keyLines.push_back(serve::formatRequest(r));
        poolKey.push_back(ins.first->second);
    }
    Attr dupA(rng, 23), recentA(rng, 29), pickA(rng, 31);
    std::vector<std::size_t> recent;
    for (std::size_t n = 0; n < count; ++n) {
        std::size_t pick;
        if (!recent.empty() && dupA.next() < 0.3) {
            pick = recent[std::size_t(recentA.next() * double(recent.size()))];
            ++s.dupShare;
        } else {
            pick = std::size_t(pickA.next() * double(pool.size()));
        }
        recent.push_back(pick);
        if (recent.size() > 8)
            recent.erase(recent.begin());
        serve::ServeRequest r = pool[pick];
        r.id = "r" + std::to_string(n);
        s.lines.push_back(Line{serve::formatRequest(r), poolKey[pick]});
    }
    return s;
}

/** One server thread, the pool inline: the batch is the only work. */
serve::ServeOptions
loopOptions(bool coalesce)
{
    serve::ServeOptions o;
    o.dse.threads = 1;
    o.maxInFlight = 1;
    o.coalesce = coalesce;
    return o;
}

/** Submit lines while paused, release, drain: the warm-up and the
 *  reference replay. */
void
replayPaused(serve::ServeLoop &loop, const std::vector<std::string> &lines)
{
    loop.pause();
    for (std::size_t i = 0; i < lines.size(); ++i)
        loop.submitLine(lines[i], i + 1);
    loop.resume();
    loop.drain();
}

/** One paused batch and its checked answers. */
struct Batch
{
    std::size_t sent = 0;
    double seconds = 0; //!< First submit to last answer.
    std::vector<double> answerMs; //!< latencyMs (admission -> answer).
    /** Build time of each computed (not coalesced) answer: the
     *  request's own work, without queueing or wake-ups. */
    std::vector<double> serviceMs;
    std::size_t coalesced = 0;
    dse::DseStats dse;         //!< Summed per-request stats.
    std::uint64_t evaluatorEvals = 0; //!< Evaluator counter delta.

    /** Check one answer against the reference and fold it in. */
    void absorb(Result &res, const serve::ServeResponse &r,
                const serve::ServeResponse &reference)
    {
        const bool bad = !r.ok || r.shed || r.degraded;
        res.check(!bad, "serve: error, shed or degraded answer");
        serve::ServeResponse want = reference;
        want.seq = r.seq;
        want.id = r.id;
        res.check(serve::sameResponse(r, want),
                  "serve: answer differs from the paused replay");
        answerMs.push_back(r.latencyMs);
        if (!bad && !r.coalesced)
            serviceMs.push_back(r.stats.dse.wallSeconds * 1e3);
        coalesced += r.coalesced;
        dse.cacheHits += r.stats.dse.cacheHits;
        dse.l0Hits += r.stats.dse.l0Hits;
        dse.l0Misses += r.stats.dse.l0Misses;
        dse.frontHits += r.stats.dse.frontHits;
        dse.frontMisses += r.stats.dse.frontMisses;
        dse.evictions += r.stats.dse.evictions;
        dse.modelEvals += r.stats.dse.modelEvals;
        dse.mappingsPruned += r.stats.dse.mappingsPruned;
        dse.dataflowsPruned += r.stats.dse.dataflowsPruned;
    }
};

/** The reference answer of each distinct request key. */
using Reference = std::vector<serve::ServeResponse>;

/** One paused batch: kBatch lines submitted while the loop is
 *  paused, then released and drained. */
Batch
runBatch(Result &res, serve::ServeLoop &loop, const Stream &stream,
         std::size_t &cursor, const Reference &ref, bool traced)
{
    Batch out;
    const std::uint64_t evals0 =
        loop.engine().evaluator().counters().modelEvals;
    obs::Tracer::setEnabled(traced);
    const Clock::time_point t0 = Clock::now();
    loop.pause();
    std::uint64_t first = 0;
    for (std::size_t i = 0; i < kBatch; ++i) {
        PB_SPAN("serve.submit");
        const std::uint64_t seq =
            loop.submitLine(stream.line(cursor + i).text, cursor + i + 1);
        if (i == 0)
            first = seq;
    }
    loop.resume();
    loop.drain();
    out.seconds = msSince(t0) / 1000.0;
    obs::Tracer::setEnabled(false);
    out.sent = kBatch;
    out.evaluatorEvals =
        loop.engine().evaluator().counters().modelEvals - evals0;
    const std::vector<serve::ServeResponse> rs = loop.responses();
    loop.clearResponses();
    res.check(rs.size() == kBatch, "serve: batch answer count");
    for (const serve::ServeResponse &r : rs)
        out.absorb(res, r, ref[stream.line(cursor + (r.seq - first)).key]);
    cursor += kBatch;
    return out;
}

/** What the workload builds before it measures. */
struct Served
{
    Stream stream;
    Reference ref;
    std::uint64_t workingSet = 0;
    std::vector<double> setupS;
    std::unique_ptr<serve::ServeLoop> loop;
};

/**
 * Inputs, reference answers and set-up: budget ranges, the seeded
 * stream, a paused one-in-flight replay of the distinct requests
 * without coalescing (the reference), then nine constructions of the
 * measured loop with a cold warm-up over the distinct requests each
 * (set-up time is their median; the last loop is measured). The
 * cold reference replay also checks that the answers' per-request
 * model evals sum to the evaluator's counter.
 */
Served
prepare(Result &res, const Args &args)
{
    Served s;
    const auto ext = computeExtremes(serve::ServeOptions().hw);
    s.stream = makeStream(args.seed, kStreamLines, ext);
    {
        serve::ServeLoop refLoop(loopOptions(false));
        replayPaused(refLoop, s.stream.keyLines);
        s.ref = refLoop.responses();
        s.workingSet = refLoop.engine().cache().residentBytes();
        std::uint64_t evals = 0;
        for (const serve::ServeResponse &r : s.ref)
            evals += r.stats.dse.modelEvals;
        res.check(evals > 0 &&
                      evals == refLoop.engine().evaluator().counters().modelEvals,
                  "serve: per-request eval stats do not sum to the "
                  "evaluator's");
    }
    res.check(s.ref.size() == s.stream.keyLines.size(),
              "serve: reference replay incomplete");
    for (const serve::ServeResponse &r : s.ref)
        res.check(r.ok && !r.degraded && !r.shed,
                  "serve: reference replay answered with an error");
    for (int rep = 0; rep < 9; ++rep) {
        s.loop.reset();
        const Clock::time_point t0 = Clock::now();
        s.loop = std::make_unique<serve::ServeLoop>(loopOptions(true));
        replayPaused(*s.loop, s.stream.keyLines);
        s.setupS.push_back(msSince(t0) / 1000.0);
    }
    s.loop->clearResponses();
    std::printf("serve_batch: %zu lines, %zu distinct requests, %.1f%% "
                "re-sends of a recent line; 1 in flight, pool inline; "
                "cache working set %llu B, L1 unbounded\n",
                s.stream.lines.size(), s.stream.keyLines.size(),
                100.0 * double(s.stream.dupShare) /
                    double(s.stream.lines.size()),
                static_cast<unsigned long long>(s.workingSet));
    return s;
}

/**
 * The traced per-stage replay on the warm engine: parse the first
 * `parsed` stream lines, then for each distinct request
 * mapZooFrontier -> composeSchedule (or searchSegmentPlan +
 * composeSchedule), each call in its own span and every schedule
 * checked against the served answer.
 */
void
replayStages(Result &res, serve::ServeLoop &loop, const Served &s,
             std::size_t parsed)
{
    dse::DseEngine &engine = loop.engine();
    const HardwareConfig &hw = loop.options().hw;
    for (std::size_t li = 0; li < parsed; ++li) {
        serve::ServeRequest req;
        std::string err;
        PB_SPAN("serve.parse");
        serve::parseRequest(s.stream.line(li).text, &req, &err);
    }
    for (std::size_t k = 0; k < s.stream.keyLines.size(); ++k) {
        serve::ServeRequest req;
        std::string err;
        res.check(serve::parseRequest(s.stream.keyLines[k], &req, &err),
                  "serve: stream line does not parse");
        std::vector<Model> owned(req.models.size());
        std::vector<const Model *> zoo;
        for (std::size_t i = 0; i < owned.size(); ++i) {
            serve::lookupModel(req.models[i], &owned[i]);
            zoo.push_back(&owned[i]);
        }
        ComposeOptions copt;
        copt.frontierK = req.frontierK;
        copt.segment = loop.options().dse.compose.segment;
        copt.segment.enable = req.segment;
        if (req.objective == serve::Objective::Latency)
            copt.energyBudgetPj = req.budget;
        else
            copt.latencyBudgetCycles =
                req.budget > 0 ? req.budget
                               : std::numeric_limits<double>::max();
        std::vector<std::vector<dse::MappingFrontier>> fronts;
        {
            PB_SPAN("dse.sweep");
            fronts = engine.evaluator().mapZooFrontier(
                hw, zoo, copt.frontierK, &engine.pool());
        }
        const serve::ServeResponse &want = s.ref[k];
        bool same = want.schedules.size() == zoo.size();
        for (std::size_t mi = 0; mi < zoo.size(); ++mi) {
            ScheduleResult got;
            if (req.segment) {
                SegmentPlan plan;
                {
                    PB_SPAN("dse.segment");
                    plan = engine.searchSegmentPlan(hw, *zoo[mi],
                                                    copt.segment);
                }
                PB_SPAN("mapper.compose");
                got = composeSchedule(*zoo[mi], std::move(fronts[mi]), copt,
                                      plan);
            } else {
                PB_SPAN("mapper.compose");
                got = composeSchedule(*zoo[mi], std::move(fronts[mi]), copt);
            }
            same = same && mi < want.schedules.size() &&
                   sameSchedule(got, want.schedules[mi]);
        }
        res.check(same,
                  "serve: per-stage replay differs from the served schedule");
    }
}

/** The serve per-layer metrics: spans, plus the counters the
 *  last untraced batch's answers carry. */
void
setLayerMetrics(Result &res, const Batch &plain, const SpanStats &spans,
                serve::ServeLoop &loop, double overheadPct)
{
    res.check(spans.dropped() == 0, "serve: tracer dropped events");
    const dse::DseStats &s = plain.dse;
    const double evals = double(s.modelEvals);
    const std::uint64_t lookups = s.l0Hits + s.l0Misses;
    const std::uint64_t fronts = s.frontHits + s.frontMisses;
    res.set("serve.submit_us_p50", spans.p50("serve.submit") / 1e3);
    res.set("serve.parse_us_p50", spans.p50("serve.parse") / 1e3);
    res.set("serve.answer_ms_p50", median(plain.answerMs));
    res.set("mapper.compose_us_p50", spans.p50("mapper.compose") / 1e3);
    res.set("dse.sweep_ms_p50", spans.p50("dse.sweep") / 1e6);
    res.set("dse.segment_ms_p50", spans.p50("dse.segment") / 1e6);
    res.set("serve.model_evals", evals);
    res.set("serve.coalesced_ratio",
            double(plain.coalesced) / double(plain.sent));
    res.set("dse.model_evals", double(plain.evaluatorEvals));
    res.set("dse.mappings_pruned", double(s.mappingsPruned));
    res.set("dse.dataflows_pruned", double(s.dataflowsPruned));
    res.set("dse.eval_share",
            evals > 0 ? evals / (evals + double(s.mappingsPruned)) : 0.0);
    res.set("dse.cache_hit_ratio",
            lookups ? double(s.l0Hits + s.cacheHits) / double(lookups)
                    : 0.0);
    res.set("dse.cache.front_hit_ratio",
            fronts ? double(s.frontHits) / double(fronts) : 0.0);
    res.set("dse.cache.evictions", double(s.evictions));
    res.set("dse.cache.resident_bytes",
            double(loop.engine().cache().residentBytes()));
    res.set("bench.trace_overhead_pct", overheadPct);
}

} // namespace

Result
runServeBatch(const Args &args)
{
    Result res;
    Served s = prepare(res, args);
    serve::ServeLoop &loop = *s.loop;
    std::size_t cursor = 0;

    // Untraced batches (and, in the traced run, traced ones in
    // alternation) until the time is up.
    std::vector<double> batchMs, tracedMs, serviceMs;
    Batch plain;
    if (args.trace)
        beginTracing();
    SpanStats spans;
    const Clock::time_point start = Clock::now();
    for (int b = 0; msSince(start) < args.seconds * 1000.0; ++b) {
        const bool traced = args.trace && b % 2 == 1;
        const Batch batch =
            runBatch(res, loop, s.stream, cursor, s.ref, traced);
        if (traced) {
            tracedMs.push_back(batch.seconds * 1e3);
            spans.collect();
            continue;
        }
        batchMs.push_back(batch.seconds * 1e3);
        serviceMs.insert(serviceMs.end(), batch.serviceMs.begin(),
                         batch.serviceMs.end());
        plain = batch; // Per-layer counters: the last untraced batch.
    }

    if (args.trace) {
        beginTracing();
        replayStages(res, loop, s, kBatch);
        spans.collect();
        obs::Tracer::setEnabled(false);
        const double overheadPct =
            100.0 * (median(tracedMs) / median(batchMs) - 1.0);
        std::printf("traced batches %zu, untraced %zu, tracing overhead "
                    "%+.2f%%\n",
                    tracedMs.size(), batchMs.size(), overheadPct);
        res.check(!tracedMs.empty(), "serve: no traced batch completed");
        setLayerMetrics(res, plain, spans, loop, overheadPct);
        loop.shutdown();
        return res;
    }
    loop.shutdown();

    const double perS = double(kBatch) / (median(batchMs) / 1000.0);
    std::printf("serve_batch_rps %.2f req/s (median of %zu batches of "
                "%zu)\nservice time p50 %.4f ms, p99 %.4f ms over %zu "
                "computed answers\n",
                perS, batchMs.size(), kBatch, median(serviceMs),
                pct(serviceMs, 0.99), serviceMs.size());
    res.set("setup_s", median(s.setupS));
    res.set("peak_rss_mb", peakRssMb());
    res.set("throughput_per_s", perS);
    res.set("op_p50_ms", median(serviceMs));
    res.set("op_tail_ms", pct(serviceMs, 0.99));
    return res;
}

} // namespace perfbench
