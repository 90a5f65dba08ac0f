/**
 * @file
 * The bit-exact check is not vacuous.
 *
 *  - Pin rule edge cases on hand-built graphs: a pin fed over an
 *    inactive, zero-delay edge by a node scheduled after its reader,
 *    or by a dead node, reads undefined in every cycle.
 *  - Out-of-range memory addresses and tensor indexes panic instead
 *    of touching memory outside the tensor.
 *  - Dropping one inserted register or moving one programmed FIFO
 *    depth by one on a delay-matched 8x8 design is caught.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "lego.hh"

namespace lego
{
namespace
{

/** A design after the full back end; `w` outlives the ADG's pointer. */
struct Built
{
    std::unique_ptr<Workload> w;
    Adg adg;
    CodegenResult gen;
};

Built
build(Workload w, std::vector<LoopSpec> spatial, bool systolic)
{
    Built b;
    b.w = std::make_unique<Workload>(std::move(w));
    DataflowSpec spec = makeSimpleSpec(*b.w, "t", spatial, systolic);
    b.adg = generateArchitecture({{b.w.get(), buildDataflow(*b.w, spec)}});
    b.gen = codegen(b.adg);
    runBackend(b.gen);
    return b;
}

/** A small GEMM: its config table drives the hand-built DAGs. */
Built
smallGemm()
{
    return build(makeGemm(4, 4, 4), {{"i", 2}, {"j", 2}}, false);
}

int
addPrim(Dag &dag, PrimOp op, const std::string &name, Int value = 0)
{
    DagNode n;
    n.op = op;
    n.name = name;
    n.constValue = value;
    return dag.addNode(n);
}

int
link(Dag &dag, int from, int to, int pin, bool active = true)
{
    DagEdge e;
    e.from = from;
    e.to = to;
    e.toPin = pin;
    e.active = {active};
    return dag.addEdge(e);
}

/**
 * cnt -> late -> reader -> wr.data, const 0 -> wr.addr. The
 * late -> reader edge carries no delay; all nodes have latency 0.
 * With the edge inactive, reader has no active input and is
 * scheduled before late.
 */
struct HazardDag
{
    CodegenResult gen;
    int reader = -1, late = -1;
};

HazardDag
hazardDag(bool active)
{
    HazardDag h;
    Dag &dag = h.gen.dag = Dag(1);
    int cnt = addPrim(dag, PrimOp::Counter, "cnt");
    h.reader = addPrim(dag, PrimOp::Tap, "reader");
    h.late = addPrim(dag, PrimOp::Tap, "late");
    int addr = addPrim(dag, PrimOp::Const, "addr0", 0);
    int wr = addPrim(dag, PrimOp::MemWrite, "wr");
    link(dag, cnt, h.late, 0);
    link(dag, h.late, h.reader, 0, active);
    link(dag, h.reader, wr, 0);
    link(dag, addr, wr, 1);
    return h;
}

bool
scheduledBefore(const Dag &dag, int a, int b)
{
    std::vector<int> topo = dag.topoOrder(0);
    return std::find(topo.begin(), topo.end(), a) <
           std::find(topo.begin(), topo.end(), b);
}

Int
runWrites(const Built &s, const CodegenResult &gen)
{
    TensorSet ts = makeInputs(*s.w, 1);
    return runOnHardware(gen, s.adg, 0, ts).writes;
}

TEST(InterpPins, InactiveZeroDelayEdgeFromLaterNodeReadsUndefined)
{
    Built s = smallGemm();

    // Control: over an active edge the reader follows late, and the
    // counter reaches memory every cycle.
    HazardDag on = hazardDag(true);
    ASSERT_TRUE(scheduledBefore(on.gen.dag, on.late, on.reader));
    EXPECT_GT(runWrites(s, on.gen), 0);

    // Inactive: the reader is scheduled first, so in every cycle the
    // value it would read has not been produced yet. It must stay
    // undefined, never a value left over from an earlier cycle.
    HazardDag off = hazardDag(false);
    ASSERT_TRUE(scheduledBefore(off.gen.dag, off.reader, off.late));
    EXPECT_EQ(runWrites(s, off.gen), 0);
}

TEST(InterpPins, LiveEdgeFromDeadNodeReadsUndefined)
{
    Built s = smallGemm();
    HazardDag h = hazardDag(true);
    h.gen.dag.node(h.late).dead = true; // Its edges stay live.
    EXPECT_EQ(runWrites(s, h.gen), 0);
}

/** First live AddrGen, valid in config 0, that drives a node of `op`. */
int
addrGenFeeding(const Dag &dag, PrimOp op)
{
    for (int v : dag.nodesOf(PrimOp::AddrGen)) {
        if (!dag.node(v).addr.at(0).valid)
            continue;
        for (int e : dag.outEdges(v)) {
            const DagEdge &edge = dag.edge(e);
            if (!edge.dead && edge.activeFor(0) &&
                dag.node(edge.to).op == op && !dag.node(edge.to).dead)
                return v;
        }
    }
    return -1;
}

TEST(InterpMemory, OutOfRangeAddressPanics)
{
    Built s = smallGemm();
    Int largest = 0;
    for (size_t t = 0; t < s.w->tensors.size(); t++)
        largest = std::max(largest, product(s.w->tensorShape(int(t))));
    for (PrimOp op : {PrimOp::MemRead, PrimOp::MemWrite}) {
        int v = addrGenFeeding(s.gen.dag, op);
        ASSERT_GE(v, 0) << primOpName(op);
        CodegenResult bad = s.gen;
        bad.dag.node(v).addr.at(0).bias += largest;
        try {
            verifyAgainstReference(bad, s.adg, 0, 1);
            ADD_FAILURE() << "no panic for " << primOpName(op);
        } catch (const PanicError &e) {
            EXPECT_NE(std::string(e.what()).find("config 0"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ReferenceRange, MappingOutsideTensorPanics)
{
    for (Int shift : {1, -1}) {
        Workload w = makeGemm(4, 4, 4);
        TensorSet ts = makeInputs(w, 1);
        // X[i + shift, k] leaves the 4x4 tensor at one edge of i.
        w.mappings[size_t(w.tensorIndex("X"))].bias = {shift, 0};
        EXPECT_THROW(runReference(w, ts), PanicError) << shift;
    }
}

/** First edge live in config 0 whose endpoints are live and `pick`s. */
template <typename Pred>
int
firstLiveEdge(const Dag &dag, Pred pick)
{
    for (int e = 0; e < dag.numEdges(); e++) {
        const DagEdge &edge = dag.edge(e);
        if (!edge.dead && edge.activeFor(0) && !dag.node(edge.from).dead &&
            !dag.node(edge.to).dead && pick(edge))
            return e;
    }
    return -1;
}

TEST(InterpMutation, DelayMutationsAreCaught)
{
    // GEMM-KJ of Fig. 10: 8x8 systolic.
    Built k = build(makeGemm(32, 32, 32), {{"k", 8}, {"j", 8}}, true);
    ASSERT_TRUE(delaysMatched(k.gen.dag));
    ASSERT_TRUE(verifyAgainstReference(k.gen, k.adg, 0, 5));

    int reg = firstLiveEdge(k.gen.dag,
                            [](const DagEdge &e) { return e.regs > 0; });
    ASSERT_GE(reg, 0);
    CodegenResult fewer = k.gen;
    fewer.dag.edge(reg).regs -= 1;
    EXPECT_FALSE(verifyAgainstReference(fewer, k.adg, 0, 5)) << reg;

    int fifo = firstLiveEdge(k.gen.dag, [](const DagEdge &e) {
        return !e.cfgDelay.empty() && e.cfgDelay[0] > 0;
    });
    ASSERT_GE(fifo, 0);
    for (Int delta : {1, -1}) {
        CodegenResult moved = k.gen;
        moved.dag.edge(fifo).cfgDelay[0] += delta;
        EXPECT_FALSE(verifyAgainstReference(moved, k.adg, 0, 5))
            << fifo << " " << delta;
    }
}

} // namespace
} // namespace lego
