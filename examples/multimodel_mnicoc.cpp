/**
 * @file
 * The paper's headline scenario: ONE hardware design (LEGO-MNICOC)
 * serving very different networks. The mapper picks per-layer spatial
 * dataflows; depthwise layers switch away from IC-OC exactly as the
 * paper describes for MobileNetV2. The networks are mapped through
 * the zoo-level class table, so shape-identical layers shared
 * BETWEEN the models (e.g. matching projection heads) are searched
 * once for the whole zoo.
 */

#include <cstdio>

#include "lego.hh"

using namespace lego;

int
main()
{
    HardwareConfig hw;
    hw.name = "LEGO-MNICOC";
    hw.rows = hw.cols = 16;
    hw.l1Kb = 256;
    hw.dram.bandwidthGBs = 16.0;
    hw.dataflows = {DataflowTag::MN, DataflowTag::ICOC};

    Model mbv2 = makeMobileNetV2();
    Model effnet = makeEfficientNetV2();
    Model bert = makeBert(16);
    std::vector<const Model *> zoo = {&mbv2, &effnet, &bert};

    dse::DseEngine engine;
    std::vector<ScheduleResult> results = engine.mapZoo(hw, zoo);
    for (std::size_t mi = 0; mi < zoo.size(); ++mi) {
        const Model &m = *zoo[mi];
        const ScheduleResult &r = results[mi];
        std::printf("=== %s on %s ===\n", m.name.c_str(),
                    hw.name.c_str());
        std::printf("  %lld cycles, %.0f GOP/s, %.1f MB DRAM\n",
                    (long long)r.summary.totalCycles,
                    r.summary.gops(hw.freqGhz),
                    double(r.summary.dramBytes) / 1e6);
        int shown = 0;
        for (size_t i = 0; i < m.layers.size() && shown < 6; i++) {
            const Layer &l = m.layers[i];
            if (!l.isTensorOp())
                continue;
            std::printf("  %-14s -> %-6s tiles(%lld,%lld,%lld) "
                        "%s\n", l.name.c_str(),
                        dataflowTagName(
                            r.perLayer[i].mapping.dataflow)
                            .c_str(),
                        (long long)r.perLayer[i].mapping.tm,
                        (long long)r.perLayer[i].mapping.tn,
                        (long long)r.perLayer[i].mapping.tk,
                        r.perLayer[i].result.memoryBound
                            ? "(memory-bound)"
                            : "");
            shown++;
        }
    }
    dse::DseCounts c = engine.evaluator().counters();
    std::printf("zoo class table: %llu mapping searches for %zu "
                "layer instances (%llu deduped, %llu shared "
                "across models)\n",
                (unsigned long long)c.searches,
                mbv2.layers.size() + effnet.layers.size() +
                    bert.layers.size(),
                (unsigned long long)c.layersDeduped,
                (unsigned long long)c.crossModelDeduped);
    return 0;
}
