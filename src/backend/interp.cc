#include "backend/interp.hh"

#include <algorithm>
#include <limits>

namespace lego
{

namespace
{

constexpr Int kUndef = std::numeric_limits<Int>::min() / 2;
constexpr Int kInvalidAddr = -1;

/** One live node of the compiled schedule; its ring column is its index. */
struct Step
{
    PrimOp op = PrimOp::Const; //!< Static Mux, Fifo and Sink run as Tap.
    int node = -1;             //!< DAG node (panic messages).
    Int latency = 0;
    Int value = 0;             //!< Const value.
    int pin = 0, npins = 0;    //!< Resolved inputs in Program::pinOff.
    TensorData *mem = nullptr; //!< Mem*: bound tensor, null if none.
    bool commits = false;      //!< MemWrite: pin-0 edge active.
    bool accumulate = false, maxAccum = false;
    const AffineAddr *addr = nullptr; //!< AddrGen expression.
    const IntVec *radix = nullptr;    //!< AddrGen / Valid loop radix.
    const IntVec *validDt = nullptr;  //!< Valid FIFO offset.
};

/** A config of the design compiled against one TensorSet. */
struct Program
{
    std::vector<Step> steps;
    /**
     * Per resolved input, reading `lag` cycles back from ring column
     * `col`: the ring offset col - lag * cols from the current row,
     * so a read is one add and one wrap.
     */
    std::vector<Int> pinOff;
    Int cols = 0; //!< Ring columns: one per step, plus the undefined one.
    Int rows = 1; //!< Ring rows: largest lag + 1.
    Int pipelineDepth = 0;
    Int cycles = 0;
};

Program
compile(const Dag &dag, const Adg &adg, int cfg, TensorSet &ts)
{
    const Workload &w = *adg.configs[size_t(cfg)].workload;
    const std::vector<int> topo = dag.topoOrder(cfg);

    Program prog;
    std::vector<int> col(size_t(dag.numNodes()), -1);
    for (int v : topo) {
        if (dag.node(v).dead)
            continue;
        col[size_t(v)] = int(prog.steps.size());
        prog.steps.emplace_back();
    }
    const int undefCol = int(prog.steps.size());
    prog.cols = undefCol + 1;

    // Static pipeline depth over the active edges bounds the drain.
    std::vector<Int> depth(size_t(dag.numNodes()), 0);
    for (int v : topo) {
        for (int e : dag.inEdges(v)) {
            const DagEdge &edge = dag.edge(e);
            if (edge.dead || !edge.activeFor(cfg))
                continue;
            depth[size_t(v)] = std::max(
                depth[size_t(v)], depth[size_t(edge.from)] +
                                      edge.delayFor(cfg) +
                                      dag.node(v).latency);
        }
        prog.pipelineDepth = std::max(prog.pipelineDepth, depth[size_t(v)]);
    }
    const DataflowMapping &map = adg.configs[size_t(cfg)].map;
    Int max_skew = 0;
    for (int fu = 0; fu < adg.numFus(); fu++)
        max_skew = std::max(max_skew, map.tbias(map.fuCoord(fu)));
    prog.cycles = map.timeSteps() + prog.pipelineDepth + max_skew + 4;

    // (column, lag) per pin; the offsets are fixed once `rows` is.
    std::vector<std::pair<int, Int>> raw;
    auto resolve = [&](int v, int pin) {
        std::pair<int, Int> p{undefCol, 0};
        if (pin < 0)
            return p;
        for (int e : dag.inEdges(v)) {
            const DagEdge &edge = dag.edge(e);
            if (edge.dead || edge.toPin != pin)
                continue;
            const int from = col[size_t(edge.from)];
            const Int lag = dag.node(v).latency + edge.delayFor(cfg);
            // A zero-lag read of a node not scheduled before the
            // reader (only possible over an inactive edge) would see
            // this cycle's value before it is produced: undefined. So
            // is a dead source, and a lag longer than the run.
            if (from >= 0 && lag < prog.cycles &&
                (lag > 0 || from < col[size_t(v)])) {
                p = {from, lag};
                prog.rows = std::max(prog.rows, lag + 1);
            }
            break;
        }
        return p;
    };
    auto addPins = [&](Step &s, int v, const std::vector<int> &pins) {
        s.pin = int(raw.size());
        for (int p : pins)
            raw.push_back(resolve(v, p));
        s.npins = int(raw.size()) - s.pin;
    };

    for (int v : topo) {
        const DagNode &n = dag.node(v);
        if (n.dead)
            continue;
        Step &s = prog.steps[size_t(col[size_t(v)])];
        s.op = n.op;
        s.node = v;
        s.latency = n.latency;
        switch (n.op) {
          case PrimOp::Const:
            s.value = n.constValue;
            s.latency = 0; // Defined from cycle 0 on.
            break;
          case PrimOp::Counter:
            break;
          case PrimOp::AddrGen:
            s.addr = &n.addr.at(size_t(cfg));
            if (s.addr->valid) {
                s.radix = &n.radix.at(size_t(cfg));
                if (s.addr->coefT.size() != s.radix->size())
                    panic("runOnHardware: AddrGen rank mismatch on " +
                          n.name);
            }
            addPins(s, v, {0});
            break;
          case PrimOp::Valid:
            s.validDt = &n.validDt.at(size_t(cfg));
            if (!s.validDt->empty()) {
                s.radix = &n.radix.at(size_t(cfg));
                if (s.validDt->size() != s.radix->size())
                    panic("runOnHardware: Valid offset rank mismatch on " +
                          n.name);
            }
            addPins(s, v, {0});
            break;
          case PrimOp::MemRead:
          case PrimOp::MemWrite: {
            const int t = n.memPort >= 0
                              ? adg.tensorOfPort(cfg, n.memPort, false)
                              : w.outputTensor();
            if (t >= 0)
                s.mem = &ts[t];
            s.accumulate = n.accumulate;
            s.maxAccum = n.maxAccum;
            for (int e : dag.inEdges(v)) {
                const DagEdge &edge = dag.edge(e);
                s.commits |= !edge.dead && edge.toPin == 0 &&
                             edge.activeFor(cfg);
            }
            if (n.op == PrimOp::MemRead)
                addPins(s, v, {0});
            else
                addPins(s, v, {0, 1});
            break;
          }
          case PrimOp::Mul:
          case PrimOp::Add:
          case PrimOp::Shl:
          case PrimOp::Max:
            addPins(s, v, {0, 1});
            break;
          case PrimOp::Mux: {
            const int sel = n.muxSel.empty() ? 0 : n.muxSel.at(size_t(cfg));
            if (sel == -2) {
                // Dynamic: FIFO data when the valid comparator says
                // so, memory fallback otherwise.
                auto [vp, ip] = n.dynPins.at(size_t(cfg));
                addPins(s, v, {n.selPin, vp, ip});
            } else {
                // Static: a tap of the selected pin (none = unused).
                s.op = PrimOp::Tap;
                addPins(s, v, {sel});
            }
            break;
          }
          case PrimOp::Reduce: {
            // Sum over physical pins mapped for this config.
            std::vector<int> mapped;
            const auto &pins = n.pinMap.at(size_t(cfg));
            for (size_t p = 0; p < pins.size(); p++)
                if (pins[p] >= 0)
                    mapped.push_back(int(p));
            addPins(s, v, mapped);
            break;
          }
          case PrimOp::Tap:
          case PrimOp::Fifo:
          case PrimOp::Sink:
            s.op = PrimOp::Tap;
            addPins(s, v, {0});
            break;
        }
    }
    prog.pinOff.reserve(raw.size());
    for (auto [c, lag] : raw)
        prog.pinOff.push_back(c - lag * prog.cols);
    return prog;
}

/** Feed f(i, digit) the mixed-radix digits of `local`, last first. */
template <typename F>
void
forDigits(Int local, const IntVec &radix, F f)
{
    for (size_t i = radix.size(); i-- > 0;) {
        f(i, local % radix[i]);
        local /= radix[i];
    }
    if (local != 0)
        panic("runOnHardware: mixed-radix scalar out of range");
}

[[noreturn]] void
badAddress(const Dag &dag, const Step &s, int cfg, Int addr)
{
    panic("runOnHardware: " + dag.node(s.node).name + " addresses " +
          std::to_string(addr) +
          (s.mem ? " outside a tensor of " + std::to_string(s.mem->size()) +
                       " elements"
                 : " with no tensor bound") +
          " in config " + std::to_string(cfg));
}

} // namespace

InterpStats
runOnHardware(const CodegenResult &gen, const Adg &adg, int cfg,
              TensorSet &ts)
{
    const Dag &dag = gen.dag;
    const Int steps = adg.configs.at(size_t(cfg)).map.timeSteps();
    const Program prog = compile(dag, adg, cfg, ts);

    InterpStats stats;
    stats.cycles = prog.cycles;
    stats.pipelineDepth = prog.pipelineDepth;

    // Output history as a ring: row g % rows holds cycle g. Rows not
    // yet written, and the last column throughout, read undefined.
    const Int total = prog.rows * prog.cols;
    std::vector<Int> ring(size_t(total), kUndef);
    const Int *pinOff = prog.pinOff.data();
    Int rowOff = 0; // (g % rows) * cols.

    for (Int g = 0; g < prog.cycles; g++) {
        auto in = [&](int k) {
            Int i = rowOff + pinOff[k];
            if (i < 0)
                i += total;
            return ring[size_t(i)];
        };
        Int *row = &ring[size_t(rowOff)];
        for (size_t c = 0; c < prog.steps.size(); c++) {
            const Step &s = prog.steps[c];
            const Int tin = g - s.latency; // Inputs sampled at this cycle.
            Int out = kUndef;
            if (tin < 0) {
                row[c] = out;
                continue;
            }
            switch (s.op) {
              case PrimOp::Const:
                out = s.value;
                break;
              case PrimOp::Counter:
                out = tin;
                break;
              case PrimOp::Tap:
                out = in(s.pin);
                break;
              case PrimOp::AddrGen: {
                Int local = in(s.pin);
                if (local == kUndef || !s.addr->valid || local < 0 ||
                    local >= steps) {
                    out = kInvalidAddr;
                    break;
                }
                out = s.addr->bias;
                forDigits(local, *s.radix, [&](size_t i, Int d) {
                    out += s.addr->coefT[i] * d;
                });
                break;
              }
              case PrimOp::Valid: {
                Int local = in(s.pin);
                if (local == kUndef || local < 0 || local >= steps) {
                    out = 0;
                    break;
                }
                out = 1; // No FIFO in this config: always valid.
                if (s.validDt->empty())
                    break;
                // FIFO data valid iff t - dt is digit-wise in range.
                forDigits(local, *s.radix, [&](size_t i, Int d) {
                    d -= (*s.validDt)[i];
                    if (d < 0 || d >= (*s.radix)[i])
                        out = 0;
                });
                break;
              }
              case PrimOp::MemRead: {
                Int addr = in(s.pin);
                if (addr == kUndef || addr == kInvalidAddr)
                    break;
                if (!s.mem || addr < 0 || addr >= Int(s.mem->size()))
                    badAddress(dag, s, cfg, addr);
                out = s.mem->flat(size_t(addr));
                stats.reads++;
                break;
              }
              case PrimOp::MemWrite: {
                // Side effect at cycle g; no output.
                if (!s.commits)
                    break;
                Int data = in(s.pin), addr = in(s.pin + 1);
                if (addr == kUndef || addr == kInvalidAddr ||
                    data == kUndef)
                    break;
                if (!s.mem || addr < 0 || addr >= Int(s.mem->size()))
                    badAddress(dag, s, cfg, addr);
                Int &cell = s.mem->flat(size_t(addr));
                if (s.accumulate && s.maxAccum)
                    cell = std::max(cell, data);
                else if (s.accumulate)
                    cell += data;
                else
                    cell = data;
                stats.writes++;
                break;
              }
              case PrimOp::Mul: {
                Int a = in(s.pin), b = in(s.pin + 1);
                out = (a == kUndef || b == kUndef) ? kUndef : a * b;
                break;
              }
              case PrimOp::Add: {
                Int a = in(s.pin), b = in(s.pin + 1);
                out = (a == kUndef || b == kUndef) ? kUndef : a + b;
                break;
              }
              case PrimOp::Shl: {
                Int a = in(s.pin), b = in(s.pin + 1);
                // Scale by 2^shift with a multiply: the shifted value
                // can be negative, and shifting it left is UB even
                // though the hardware shifter's two's-complement
                // result is exactly this product.
                out = (a == kUndef || b == kUndef)
                          ? kUndef
                          : a * (Int(1) << (b & 0x3));
                break;
              }
              case PrimOp::Max: {
                Int a = in(s.pin), b = in(s.pin + 1);
                out = (a == kUndef || b == kUndef) ? kUndef
                                                   : std::max(a, b);
                break;
              }
              case PrimOp::Mux:
                // Dynamic select; static muxes were compiled to taps.
                out = in(in(s.pin) == 1 ? s.pin + 1 : s.pin + 2);
                break;
              case PrimOp::Reduce: {
                Int acc = 0;
                bool undef = s.npins == 0;
                for (int k = s.pin; k < s.pin + s.npins; k++) {
                    Int val = in(k);
                    if (val == kUndef)
                        undef = true;
                    else
                        acc += val;
                }
                out = undef ? kUndef : acc;
                break;
              }
              case PrimOp::Fifo:
              case PrimOp::Sink:
                break; // Compiled to taps.
            }
            row[c] = out;
        }
        rowOff += prog.cols;
        if (rowOff == total)
            rowOff = 0;
    }
    return stats;
}

bool
verifyAgainstReference(const CodegenResult &gen, const Adg &adg, int cfg,
                       unsigned seed, InterpStats *stats)
{
    const Workload &w = *adg.configs.at(size_t(cfg)).workload;
    TensorSet ref = makeInputs(w, seed);
    TensorSet hw = ref;
    runReference(w, ref);
    InterpStats st = runOnHardware(gen, adg, cfg, hw);
    if (stats)
        *stats = st;
    return ref[w.outputTensor()] == hw[w.outputTensor()];
}

} // namespace lego
