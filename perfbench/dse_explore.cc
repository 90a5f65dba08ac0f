/**
 * @file
 * dse_explore: exhaustive DseEngine::explore(defaultSpace(), m) for
 * five models, each on a fresh engine. The seed only orders the
 * models within each pass; the frontiers are fixed, so they are
 * compared across repeats and, once per run, against the naive
 * (no dedup, no pruning, no frontier memo) EvalPolicy sweep.
 */

#include <algorithm>
#include <random>

#include "lego.hh"
#include "workloads.hh"

using namespace lego;

namespace perfbench
{

namespace
{

const char *const kModels[] = {"resnet50", "mobilenetv2",
                               "efficientnetv2", "bert", "gpt2"};

bool
sameFrontier(const dse::ParetoArchive &a, const dse::ParetoArchive &b)
{
    const std::vector<dse::DsePoint> pa = a.sorted(), pb = b.sorted();
    if (pa.size() != pb.size())
        return false;
    for (std::size_t i = 0; i < pa.size(); ++i)
        if (pa[i].id != pb[i].id ||
            pa[i].latencyCycles != pb[i].latencyCycles ||
            pa[i].energyPj != pb[i].energyPj ||
            pa[i].areaMm2 != pb[i].areaMm2 ||
            pa[i].powerMw != pb[i].powerMw)
            return false;
    return true;
}

/**
 * The sim model alone, as the evaluator calls it for one model eval:
 * runLayerWithEff over every mapping candidate of each tensor layer,
 * on every 64th candidate of the space, one span per layer. The
 * spatial efficiency is computed outside the span (the evaluator
 * memoizes it). Checks each result against mappingCycles, which
 * shares the cycle model. Returns the number of calls.
 */
std::uint64_t
simSample(Result &res, const dse::CandidateSpace &space, const Model &m)
{
    std::uint64_t calls = 0;
    bool same = true;
    std::vector<LayerResult> out;
    for (std::size_t id = 0; id < space.size(); id += 64) {
        const HardwareConfig hw = space.decode(id);
        for (const Layer &l : m.layers) {
            const std::vector<Mapping> maps = dse::mappingCandidates(hw, l);
            std::vector<double> eff;
            for (const Mapping &map : maps)
                eff.push_back(spatialEfficiency(hw, l, map.dataflow));
            out.resize(maps.size());
            {
                PB_SPAN("sim.run_layer");
                for (std::size_t i = 0; i < maps.size(); ++i)
                    out[i] = runLayerWithEff(hw, l, maps[i], eff[i]);
            }
            for (std::size_t i = 0; i < maps.size(); ++i)
                same = same && out[i].cycles ==
                                   mappingCycles(hw, l, maps[i], eff[i]);
            calls += maps.size();
        }
    }
    res.check(same, "sim: runLayerWithEff cycles differ from mappingCycles");
    return calls;
}

} // namespace

Result
runDseExplore(const Args &args)
{
    Result res;
    // One pool thread (the caller): with more, a stall of any one
    // virtual CPU stalls the whole batch, and on a shared host the
    // run-to-run spread doubled.
    const int threads = 1;
    dse::DseOptions opt;
    opt.threads = threads;

    std::vector<Model> models(std::size(kModels));
    for (std::size_t i = 0; i < models.size(); ++i)
        res.check(serve::lookupModel(kModels[i], &models[i]),
                  "dse: unknown model");
    // Set-up: model + space construction and one engine (its worker
    // pool), sampled here and after every pass.
    std::vector<Model> scratch;
    dse::CandidateSpace space = dse::defaultSpace(), scratchSpace;
    auto construct = [&] {
        scratch.assign(std::size(kModels), Model());
        for (std::size_t i = 0; i < scratch.size(); ++i)
            serve::lookupModel(kModels[i], &scratch[i]);
        scratchSpace = dse::defaultSpace();
        dse::DseEngine engine(opt);
    };
    std::vector<double> setupS = {setupSample(100, construct)};
    std::printf("dse_explore: %zu candidates x %zu models, %d pool "
                "threads\n",
                space.size(), models.size(), threads);

    // Reference frontiers, checked once (untimed) against the naive
    // policy; every timed explore must reproduce them.
    std::vector<dse::ParetoArchive> ref;
    for (const Model &m : models) {
        dse::DseEngine fast(opt);
        ref.push_back(fast.explore(space, m).archive);
        dse::DseOptions naiveOpt = opt;
        naiveOpt.eval.dedupLayerClasses = false;
        naiveOpt.eval.pruneMappings = false;
        naiveOpt.eval.memoFrontiers = false;
        dse::DseEngine naive(naiveOpt);
        res.check(sameFrontier(ref.back(), naive.explore(space, m).archive),
                  "dse: frontier differs from the naive sweep");
    }

    std::mt19937_64 rng(args.seed);
    std::vector<std::size_t> order(models.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;

    std::vector<double> exploreMs, passMs, tracedPassMs;
    std::size_t candidates = 0;
    std::vector<std::vector<double>> perModel(models.size());
    dse::DseStats sum;  // Counters of the last untraced pass.
    std::uint64_t simEvals = 0; // runLayerWithEff calls traced.
    SpanStats spans;
    if (args.trace)
        beginTracing();
    const Clock::time_point start = Clock::now();
    for (int pass = 0; msSince(start) < args.seconds * 1000.0; ++pass) {
        const bool traced = args.trace && pass % 2 == 1;
        obs::Tracer::setEnabled(traced);
        std::shuffle(order.begin(), order.end(), rng);
        dse::DseStats passStats;
        double pass_ms = 0;
        for (std::size_t mi : order) {
            dse::DseEngine engine(opt);
            const Clock::time_point t0 = Clock::now();
            dse::DseResult r;
            {
                PB_SPAN("dse.explore");
                r = engine.explore(space, models[mi]);
            }
            const double ms = msSince(t0);
            pass_ms += ms;
            res.check(!r.degraded && sameFrontier(r.archive, ref[mi]),
                      "dse: frontier differs across repeats");
            if (!traced) {
                exploreMs.push_back(ms);
                perModel[mi].push_back(ms);
                candidates += r.stats.evaluated;
            }
            passStats.evaluated += r.stats.evaluated;
            passStats.modelEvals += r.stats.modelEvals;
            passStats.mappingsPruned += r.stats.mappingsPruned;
            passStats.dataflowsPruned += r.stats.dataflowsPruned;
            passStats.cacheHits += r.stats.cacheHits;
            passStats.l0Hits += r.stats.l0Hits;
            passStats.l0Misses += r.stats.l0Misses;
            passStats.frontHits += r.stats.frontHits;
            passStats.frontMisses += r.stats.frontMisses;
            passStats.evictions += r.stats.evictions;
            passStats.residentBytes = r.stats.residentBytes;
            if (traced) {
                // Per-candidate scoring on a fresh engine: every 8th
                // candidate of the space.
                dse::DseEngine single(opt);
                for (std::size_t id = 0; id < space.size(); id += 8) {
                    const HardwareConfig hw = space.decode(id);
                    PB_SPAN("dse.evaluate");
                    single.evaluate(hw, models[mi]);
                }
                simEvals += simSample(res, space, models[mi]);
            }
        }
        if (traced) {
            tracedPassMs.push_back(pass_ms);
            spans.collect();
        } else {
            passMs.push_back(pass_ms);
            sum = passStats;
        }
        setupS.push_back(setupSample(100, construct));
    }
    obs::Tracer::setEnabled(false);

    if (!args.trace) {
        // Candidates per second of one pass made of each model's
        // median explore time: a slow spell of the host moves a few
        // samples, not the figure.
        double passMedianMs = 0;
        for (const std::vector<double> &t : perModel)
            passMedianMs += median(t);
        const double perS =
            double(space.size() * models.size()) / (passMedianMs / 1000.0);
        std::printf("dse_candidates_per_s %.4f 1/s (%zu candidates "
                    "scored)\n",
                    perS, candidates);
        std::printf("per-model explore p50 %.3f ms, p95 %.3f ms over "
                    "%zu explores\n",
                    median(exploreMs), pct(exploreMs, 0.95),
                    exploreMs.size());
        res.set("setup_s", median(setupS));
        res.set("peak_rss_mb", peakRssMb());
        res.set("throughput_per_s", perS);
        res.set("op_p50_ms", median(exploreMs));
        res.set("op_tail_ms", pct(exploreMs, 0.95));
        return res;
    }

    res.check(spans.dropped() == 0, "dse: tracer dropped events");
    res.check(!tracedPassMs.empty(), "dse: no traced pass completed");
    const double overheadPct =
        passMs.empty() || tracedPassMs.empty()
            ? 0.0
            : 100.0 * (median(tracedPassMs) / median(passMs) - 1.0);
    const double evals = double(sum.modelEvals);
    const std::uint64_t lookups = sum.l0Hits + sum.l0Misses;
    const std::uint64_t fronts = sum.frontHits + sum.frontMisses;
    std::printf("traced passes %zu, untraced passes %zu, tracing "
                "overhead %+.2f%%\n",
                tracedPassMs.size(), passMs.size(), overheadPct);
    res.set("dse.explore_ms_p50", spans.p50("dse.explore") / 1e6);
    res.set("dse.evaluate_us_p50", spans.p50("dse.evaluate") / 1e3);
    res.set("dse.model_evals", evals);
    res.set("dse.mappings_pruned", double(sum.mappingsPruned));
    res.set("dse.dataflows_pruned", double(sum.dataflowsPruned));
    res.set("dse.eval_share",
            evals > 0 ? evals / (evals + double(sum.mappingsPruned)) : 0);
    res.set("sim.ns_per_model_eval",
            simEvals ? spans.get("sim.run_layer").selfNs / double(simEvals)
                     : 0.0);
    res.set("dse.cache_hit_ratio",
            lookups ? double(sum.l0Hits + sum.cacheHits) / double(lookups)
                    : 0.0);
    res.set("dse.cache.front_hit_ratio",
            fronts ? double(sum.frontHits) / double(fronts) : 0.0);
    res.set("dse.cache.evictions", double(sum.evictions));
    res.set("dse.cache.resident_bytes", double(sum.residentBytes));
    res.set("bench.trace_overhead_pct", overheadPct);
    return res;
}

} // namespace perfbench
