/**
 * @file
 * gen_fig10: the eleven Fig. 10 8x8 designs through the generator —
 * generateArchitecture -> codegen -> runBackend -> emitVerilog ->
 * verifyAgainstReference on every config. The seed picks the input
 * tensors of each verification; the designs themselves are fixed.
 *
 * The traced run replays runBackend's pass sequence call by call
 * with a span around each public pass function, and checks that the
 * replay reproduces runBackend's report and RTL exactly — so the
 * per-layer numbers describe the same program the untraced run
 * times.
 */

#include <cmath>

#include "kernels.hh"
#include "workloads.hh"

using namespace lego;

namespace perfbench
{

namespace
{

// Fig. 10 paper series (area, energy) in fig10Designs() order.
const double kPaperArea[] = {3.5, 1.9, 1.6, 1.1, 1.0, 1.2,
                             1.2, 2.2, 1.0, 1.5, 2.2};
const double kPaperEnergy[] = {2.8, 1.3, 1.7, 1.1, 1.0, 1.2,
                               1.2, 2.0, 1.0, 1.3, 1.4};

std::string
topName(const std::string &design)
{
    std::string out = "lego_";
    for (char c : design)
        out.push_back(std::isalnum(static_cast<unsigned char>(c))
                          ? char(std::tolower(c))
                          : '_');
    return out;
}

unsigned
tensorSeed(std::uint64_t seed, int pass, std::size_t design, int cfg)
{
    std::uint64_t h = seed * 0x9e3779b97f4a7c15ull;
    h ^= std::uint64_t(pass) * 0xbf58476d1ce4e5b9ull;
    h ^= std::uint64_t(design) * 0x94d049bb133111ebull;
    h ^= std::uint64_t(cfg) + 0x2545f4914f6cdd1dull;
    return unsigned(h ^ (h >> 31));
}

/** One design's outputs, compared across passes and paths. */
struct DesignOut
{
    BackendReport rep;
    std::string rtl;
    Int cycles = 0;
    Int fus = 0;
    Int dagNodes = 0;
};

bool
sameCost(const DagCost &a, const DagCost &b)
{
    return a.regArea == b.regArea && a.arithArea == b.arithArea &&
           a.muxArea == b.muxArea && a.ctrlArea == b.ctrlArea &&
           a.portArea == b.portArea && a.regPower == b.regPower &&
           a.arithPower == b.arithPower && a.muxPower == b.muxPower &&
           a.ctrlPower == b.ctrlPower && a.portPower == b.portPower;
}

/** Verification + structural checks shared by both paths. */
void
checkDesign(Result &res, const NamedDesign &d, const CodegenResult &gen,
            const Adg &adg, const std::string &rtl,
            const std::string &lint, std::uint64_t seed, int pass,
            std::size_t di, DesignOut &out)
{
    for (int cfg = 0; cfg < int(d.configs.size()); ++cfg) {
        InterpStats st;
        const bool ok = verifyAgainstReference(
            gen, adg, cfg, tensorSeed(seed, pass, di, cfg), &st);
        res.check(ok, "gen: RTL interpreter differs from reference");
        out.cycles += st.cycles;
    }
    res.check(delaysMatched(gen.dag), "gen: delays not matched");
    res.check(lint.empty(), "gen: Verilog lint not clean");
    out.rtl = rtl;
}

/** The untraced flow: the library's own runBackend. */
DesignOut
runDesign(Result &res, NamedDesign &d, std::uint64_t seed, int pass,
          std::size_t di)
{
    DesignOut out;
    Adg adg = generateArchitecture(d.configs);
    CodegenResult gen = codegen(adg);
    out.fus = adg.numFus();
    out.dagNodes = gen.dag.numNodes();
    out.rep = runBackend(gen);
    const std::string rtl = emitVerilog(gen, topName(d.name));
    const std::string lint = lintVerilog(rtl);
    checkDesign(res, d, gen, adg, rtl, lint, seed, pass, di, out);
    return out;
}

/** runBackend's call sequence (backend/passes.cc), one span per
 *  public pass call. Scratch copies of the DAG get their own span so
 *  copy and destruction time stay attributed to the backend. */
BackendReport
replayBackend(CodegenResult &gen)
{
    BackendReport rep;
    Dag &dag = gen.dag;
    {
        PB_SPAN("backend.bitwidth");
        rep.widthStats = inferBitwidths(dag);
    }
    {
        PB_SPAN("backend.dag_copy");
        Dag base = dag;
        {
            PB_SPAN("backend.pipeline");
            assignPipelineLatencies(base);
        }
        {
            PB_SPAN("backend.delay_match");
            runDelayMatching(base);
        }
        {
            PB_SPAN("backend.cost");
            rep.baseline = dagCost(base);
        }
    }
    {
        PB_SPAN("backend.reduce_tree");
        rep.reduceStats = extractReductionTrees(dag);
    }
    {
        PB_SPAN("backend.pipeline");
        assignPipelineLatencies(dag);
    }
    {
        PB_SPAN("backend.dag_copy");
        Dag t = dag;
        {
            PB_SPAN("backend.delay_match");
            runDelayMatching(t);
        }
        {
            PB_SPAN("backend.cost");
            rep.afterReduce = dagCost(t);
        }
    }
    {
        PB_SPAN("backend.rewire");
        rep.rewireStats = rewireBroadcasts(dag);
    }
    {
        PB_SPAN("backend.pipeline");
        assignPipelineLatencies(dag);
    }
    {
        PB_SPAN("backend.delay_match");
        rep.matchStats = runDelayMatching(dag);
    }
    {
        PB_SPAN("backend.cost");
        rep.afterRewire = dagCost(dag);
    }
    {
        PB_SPAN("backend.pin_reuse");
        rep.pinStats = reusePins(dag);
    }
    {
        PB_SPAN("backend.cost");
        rep.afterPinReuse = dagCost(dag);
    }
    {
        PB_SPAN("backend.power_gate");
        rep.gateStats = applyPowerGating(dag);
    }
    {
        PB_SPAN("backend.bitwidth");
        inferBitwidths(dag);
    }
    {
        PB_SPAN("backend.cost");
        rep.final = dagCost(dag);
    }
    {
        PB_SPAN("backend.validate");
        dag.validate();
    }
    return rep;
}

/** The traced flow: same work as runDesign, split per layer call. */
DesignOut
runDesignTraced(Result &res, NamedDesign &d, std::uint64_t seed,
                int pass, std::size_t di)
{
    PB_SPAN("gen.design");
    DesignOut out;
    Adg adg;
    {
        PB_SPAN("frontend.generate");
        adg = generateArchitecture(d.configs);
    }
    CodegenResult gen;
    {
        PB_SPAN("backend.codegen");
        gen = codegen(adg);
    }
    out.fus = adg.numFus();
    out.dagNodes = gen.dag.numNodes();
    out.rep = replayBackend(gen);
    std::string rtl, lint;
    {
        PB_SPAN("backend.verilog");
        rtl = emitVerilog(gen, topName(d.name));
        lint = lintVerilog(rtl);
    }
    {
        PB_SPAN("backend.interp");
        checkDesign(res, d, gen, adg, rtl, lint, seed, pass, di, out);
    }
    return out;
}

double
geomean(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / double(v.size()));
}

} // namespace

Result
runGenFig10(const Args &args)
{
    Result res;

    // Set-up: design construction (workloads + dataflows), sampled
    // here and after every design of every pass.
    std::vector<NamedDesign> designs, scratch;
    auto construct = [&] { scratch = fig10Designs(); };
    std::vector<double> setupS = {setupSample(50, construct)};
    designs = fig10Designs();

    // Pass 0 (untimed) fixes the reference outputs every later pass,
    // traced or not, must reproduce byte for byte.
    std::vector<DesignOut> ref;
    for (std::size_t di = 0; di < designs.size(); ++di)
        ref.push_back(runDesign(res, designs[di], args.seed, 0, di));

    auto compare = [&](const DesignOut &o, std::size_t di) {
        res.check(o.rtl == ref[di].rtl,
                  "gen: RTL differs across repeats");
        res.check(o.rep.matchStats.insertedRegBits ==
                          ref[di].rep.matchStats.insertedRegBits &&
                      sameCost(o.rep.final, ref[di].rep.final) &&
                      sameCost(o.rep.baseline, ref[di].rep.baseline),
                  "gen: backend report differs across repeats/paths");
    };

    std::vector<double> designMs, passMs, tracedPassMs;
    SpanStats spans;
    if (args.trace)
        beginTracing();
    std::vector<std::vector<double>> perDesign(designs.size());
    const Clock::time_point start = Clock::now();
    for (int pass = 1; msSince(start) < args.seconds * 1000.0; ++pass) {
        // The traced run alternates untraced and traced passes, so
        // the difference of their medians is the tracing overhead.
        const bool traced = args.trace && pass % 2 == 0;
        obs::Tracer::setEnabled(traced);
        double flowMs = 0; // The pass's designs, without checks or set-up.
        for (std::size_t di = 0; di < designs.size(); ++di) {
            const Clock::time_point t0 = Clock::now();
            DesignOut o =
                traced ? runDesignTraced(res, designs[di], args.seed,
                                         pass, di)
                       : runDesign(res, designs[di], args.seed, pass, di);
            const double ms = msSince(t0);
            flowMs += ms;
            compare(o, di);
            setupS.push_back(setupSample(50, construct));
            if (!traced) {
                designMs.push_back(ms);
                perDesign[di].push_back(ms);
            }
        }
        (traced ? tracedPassMs : passMs).push_back(flowMs);
        if (traced)
            spans.collect();
    }
    obs::Tracer::setEnabled(false);

    // Exact modelled outputs (identical every pass, checked above).
    Int regBits = 0, regs = 0, cycles = 0, fus = 0, nodes = 0,
        stars = 0, rtlBytes = 0;
    std::vector<double> area, energy;
    std::printf("%-16s | %9s %7s | %9s %7s\n", "design", "area x",
                "(paper)", "energy x", "(paper)");
    for (std::size_t di = 0; di < ref.size(); ++di) {
        const BackendReport &r = ref[di].rep;
        regBits += r.matchStats.insertedRegBits;
        regs += r.matchStats.insertedRegs;
        cycles += ref[di].cycles;
        fus += ref[di].fus;
        nodes += ref[di].dagNodes;
        stars += r.rewireStats.starsRewired;
        rtlBytes += Int(ref[di].rtl.size());
        area.push_back(r.areaSaving());
        energy.push_back(r.powerSaving());
        std::printf("%-16s | %8.2fx %6.1fx | %8.2fx %6.1fx\n",
                    designs[di].name.c_str(), area.back(),
                    kPaperArea[di], energy.back(), kPaperEnergy[di]);
    }
    const double areaX = geomean(area), energyX = geomean(energy);
    std::vector<double> paperA(std::begin(kPaperArea),
                               std::end(kPaperArea)),
        paperE(std::begin(kPaperEnergy), std::end(kPaperEnergy));
    const double paperAreaX = geomean(paperA),
                 paperEnergyX = geomean(paperE);
    std::printf("%-16s | %8.2fx %6.2fx | %8.2fx %6.2fx\n", "GEOMEAN",
                areaX, paperAreaX, energyX, paperEnergyX);
    std::printf("geomean deviation from paper: area %+.1f%%, energy "
                "%+.1f%% (information only: the cost model is "
                "analytical and not validated against RTL synthesis)\n",
                100.0 * (areaX / paperAreaX - 1.0),
                100.0 * (energyX / paperEnergyX - 1.0));
    std::printf("gen_reg_bits %lld bits\ngen_area_saving_x %.6f x\n"
                "gen_energy_saving_x %.6f x\n",
                static_cast<long long>(regBits), areaX, energyX);

    const double n = double(designs.size());
    if (!args.trace) {
        // Designs per second of one pass made of each design's median
        // time: a slow spell of the host moves a few samples, not the
        // figure.
        double passMedianMs = 0;
        for (const std::vector<double> &t : perDesign)
            passMedianMs += median(t);
        const double perS = n / (passMedianMs / 1000.0);
        std::printf("gen_designs_per_s %.4f 1/s (%zu designs, %zu "
                    "passes)\n",
                    perS, designMs.size(), passMs.size());
        std::printf("per-design p50 %.3f ms, p80 %.3f ms over %zu "
                    "designs\n",
                    median(designMs), pct(designMs, 0.8),
                    designMs.size());
        res.set("setup_s", median(setupS));
        res.set("peak_rss_mb", peakRssMb());
        res.set("throughput_per_s", perS);
        res.set("op_p50_ms", median(designMs));
        res.set("op_tail_ms", pct(designMs, 0.8));
        return res;
    }

    // Traced run: per-layer self times per fig10 pass (11 designs).
    const double passes = double(tracedPassMs.size());
    auto perPass = [&](const char *span) {
        return passes > 0 ? spans.selfMs(span) / passes : 0.0;
    };
    const char *layers[] = {
        "frontend.generate", "backend.codegen", "backend.bitwidth",
        "backend.dag_copy", "backend.pipeline", "backend.delay_match",
        "backend.reduce_tree", "backend.rewire", "backend.pin_reuse",
        "backend.power_gate", "backend.cost", "backend.validate",
        "backend.verilog", "backend.interp"};
    double covered = 0;
    for (const char *l : layers)
        covered += spans.selfMs(l);
    const double rootMs =
        covered + spans.selfMs("gen.design"); // Root self = bench glue.
    const double traceOverheadPct =
        passMs.empty() || tracedPassMs.empty()
            ? 0.0
            : 100.0 * (median(tracedPassMs) / median(passMs) - 1.0);
    std::printf("traced passes %zu, untraced passes %zu, layer "
                "coverage %.2f%% of per-design time, tracing overhead "
                "%+.2f%%\n",
                tracedPassMs.size(), passMs.size(),
                rootMs > 0 ? 100.0 * covered / rootMs : 0.0,
                traceOverheadPct);
    res.check(spans.dropped() == 0, "gen: tracer dropped events");
    res.check(tracedPassMs.size() > 0, "gen: no traced pass completed");
    res.check(rootMs > 0 && covered / rootMs >= 0.95,
              "gen: layer self times cover less than 95% of design time");

    res.set("frontend.generate_ms", perPass("frontend.generate"));
    res.set("frontend.fus", double(fus));
    res.set("backend.codegen_ms", perPass("backend.codegen"));
    res.set("backend.dag_nodes", double(nodes));
    res.set("backend.bitwidth_ms", perPass("backend.bitwidth"));
    res.set("backend.dag_copy_ms", perPass("backend.dag_copy"));
    res.set("backend.pipeline_ms", perPass("backend.pipeline"));
    res.set("backend.delay_match_ms", perPass("backend.delay_match"));
    res.set("backend.delay_match_calls",
            passes > 0 ? spans.count("backend.delay_match") / passes : 0);
    res.set("backend.reduce_tree_ms", perPass("backend.reduce_tree"));
    res.set("backend.rewire_ms", perPass("backend.rewire"));
    res.set("backend.rewire_stars", double(stars));
    res.set("backend.inserted_regs", double(regs));
    res.set("backend.inserted_reg_bits", double(regBits));
    res.set("backend.area_saving_x", areaX);
    res.set("backend.energy_saving_x", energyX);
    res.set("backend.pin_reuse_ms", perPass("backend.pin_reuse"));
    res.set("backend.power_gate_ms", perPass("backend.power_gate"));
    res.set("backend.cost_ms", perPass("backend.cost"));
    res.set("backend.validate_ms", perPass("backend.validate"));
    res.set("backend.verilog_ms", perPass("backend.verilog"));
    res.set("backend.verilog_bytes", double(rtlBytes));
    res.set("backend.interp_ms", perPass("backend.interp"));
    res.set("backend.interp_cycles", double(cycles));
    res.set("backend.interp_ns_per_cycle",
            cycles ? perPass("backend.interp") * 1e6 / double(cycles)
                   : 0.0);
    res.set("bench.layer_coverage",
            rootMs > 0 ? covered / rootMs : 0.0);
    res.set("bench.trace_overhead_pct", traceOverheadPct);
    res.set("gen.design_ms", passes > 0 ? rootMs / passes / n : 0.0);
    return res;
}

} // namespace perfbench
