/**
 * @file
 * lego_perfbench: one command for the three LEGO paths.
 *
 *   lego_perfbench --workload WORKLOAD --seed N --seconds S --trace 0|1
 *
 * WORKLOAD is gen_fig10, dse_explore or serve_batch.
 *
 * Prints a human-readable report, then as its last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}: with
 * --trace 0 the end-to-end metrics (tracing off), with --trace 1 the
 * per-layer metrics mined from a traced run. Every workload prints
 * every metric of the selected set; a per-layer metric of a layer
 * the workload does not exercise reads 0.
 */

#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace
{

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},
    {"throughput_per_s", "1/s"}, {"op_p50_ms", "ms"},
    {"op_tail_ms", "ms"},
};

const MetricDef kPerLayer[] = {
    // gen_fig10 (times are ms per fig10 pass of eleven designs).
    {"frontend.generate_ms", "ms"},
    {"frontend.fus", "count"},
    {"backend.codegen_ms", "ms"},
    {"backend.dag_nodes", "count"},
    {"backend.bitwidth_ms", "ms"},
    {"backend.dag_copy_ms", "ms"},
    {"backend.pipeline_ms", "ms"},
    {"backend.delay_match_ms", "ms"},
    {"backend.delay_match_calls", "count"},
    {"backend.reduce_tree_ms", "ms"},
    {"backend.rewire_ms", "ms"},
    {"backend.rewire_stars", "count"},
    {"backend.inserted_regs", "count"},
    {"backend.inserted_reg_bits", "bits"},
    {"backend.area_saving_x", "x"},
    {"backend.energy_saving_x", "x"},
    {"backend.pin_reuse_ms", "ms"},
    {"backend.power_gate_ms", "ms"},
    {"backend.cost_ms", "ms"},
    {"backend.validate_ms", "ms"},
    {"backend.verilog_ms", "ms"},
    {"backend.verilog_bytes", "bytes"},
    {"backend.interp_ms", "ms"},
    {"backend.interp_cycles", "count"},
    {"backend.interp_ns_per_cycle", "ns"},
    {"gen.design_ms", "ms"},
    {"bench.layer_coverage", "ratio"},
    // dse_explore (counters per pass of five explores).
    {"dse.explore_ms_p50", "ms"},
    {"dse.evaluate_us_p50", "us"},
    {"dse.model_evals", "count"},
    {"dse.mappings_pruned", "count"},
    {"dse.dataflows_pruned", "count"},
    {"dse.eval_share", "ratio"},
    {"sim.ns_per_model_eval", "ns"},
    {"dse.cache_hit_ratio", "ratio"},
    {"dse.cache.front_hit_ratio", "ratio"},
    {"dse.cache.evictions", "count"},
    {"dse.cache.resident_bytes", "bytes"},
    // serve_batch.
    {"serve.submit_us_p50", "us"},
    {"serve.parse_us_p50", "us"},
    {"serve.answer_ms_p50", "ms"},
    {"mapper.compose_us_p50", "us"},
    {"dse.sweep_ms_p50", "ms"},
    {"dse.segment_ms_p50", "ms"},
    {"serve.model_evals", "count"},
    {"serve.coalesced_ratio", "ratio"},
    // All workloads: traced minus untraced end-to-end time.
    {"bench.trace_overhead_pct", "%"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "lego_perfbench: %s\nusage: lego_perfbench --workload "
                 "gen_fig10|dse_explore|serve_batch --seed N "
                 "--seconds S --trace 0|1\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage("missing value");
        const std::string key = argv[i], val = argv[++i];
        char *end = nullptr;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            a.seconds = std::strtod(val.c_str(), &end);
            if (!(a.seconds > 0))
                usage("--seconds must be positive");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace must be 0 or 1");
            a.trace = val == "1";
        } else {
            usage(("unknown argument " + key).c_str());
        }
        if (end && *end)
            usage(("malformed value for " + key).c_str());
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Result res;
    if (args.workload == "gen_fig10")
        res = runGenFig10(args);
    else if (args.workload == "dse_explore")
        res = runDseExplore(args);
    else if (args.workload == "serve_batch")
        res = runServeBatch(args);
    else
        usage("unknown workload");

    const MetricDef *defs = args.trace ? kPerLayer : kEndToEnd;
    const std::size_t n = args.trace ? std::size(kPerLayer)
                                     : std::size(kEndToEnd);
    for (const auto &kv : res.metrics) {
        bool known = false;
        for (std::size_t i = 0; i < n; ++i)
            known = known || kv.first == defs[i].name;
        if (!known) {
            std::fprintf(stderr, "lego_perfbench: undeclared metric %s\n",
                         kv.first.c_str());
            return 1;
        }
    }
    std::string json = "{\"correct\": ";
    json += res.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(res.attempted);
    json += ", \"failed\": " + std::to_string(res.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < n; ++i) {
        auto it = res.metrics.find(defs[i].name);
        if (!args.trace && it == res.metrics.end()) {
            std::fprintf(stderr, "lego_perfbench: metric %s missing\n",
                         defs[i].name);
            return 1;
        }
        const double v = it == res.metrics.end() ? 0.0 : it->second;
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        std::printf("%-30s %s %s\n", defs[i].name, buf, defs[i].unit);
        json += i ? ", " : "";
        json += "\"" + std::string(defs[i].name) + "\": {\"value\": " +
                buf + ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
