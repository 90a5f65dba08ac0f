/**
 * @file
 * Cycle-accurate DAG interpreter — this repository's substitute for
 * the paper's RTL simulation. It executes the *generated* primitive
 * graph (operand muxes, forwarding chains, programmed FIFOs, address
 * generators, pipeline registers inserted by delay matching) cycle by
 * cycle against real tensor data, so a mismatch anywhere in the flow
 * (front-end planning, codegen, any back-end pass) shows up as a
 * wrong output tensor.
 *
 * Semantics: output(v, g) = f_v(inputs at cycle g - L_v), where input
 * i at cycle t is output(producer_i, t - delay(edge_i)), with
 * delay = static pipeline registers + per-config programmed depth.
 * Values before cycle 0 are the undefined sentinel, which propagates
 * and gates memory writes (pipeline fill never corrupts memory).
 *
 * Each run first compiles the config:
 *  - a flat schedule of the live nodes in topoOrder(cfg) order;
 *  - every input pin resolved once to (source node, lag), with
 *    lag = L_v + delayFor(cfg);
 *  - the per-config payload: the tensor behind each memory port,
 *    MemWrite liveness, static mux selects, AddrGen/Valid radices,
 *    coefficients and FIFO offsets, and the Reduce pin list.
 *
 * Pin rule: a pin reads the first non-dead edge into it, whether or
 * not that edge is activeFor(cfg). A MemWrite commits only if an
 * active, non-dead edge drives its pin 0. A Reduce reads pin p
 * wherever pinMap[cfg][p] >= 0. A pin with no edge — including a mux
 * select naming one — reads undefined.
 *
 * History is a ring of (largest lag + 1) cycles by live nodes. A pin
 * whose value the ring cannot hold reads undefined in every cycle:
 * one fed by a dead node, one whose lag outlasts the run, and one fed
 * over a zero-lag edge by a node scheduled at or after the reader
 * (only an inactive edge can do that; in this cycle the source has
 * not produced its value yet).
 *
 * A memory access whose address is neither undefined nor the
 * invalid-address marker must fall inside the bound tensor; anything
 * else panics with the node and the config.
 */

#ifndef LEGO_BACKEND_INTERP_HH
#define LEGO_BACKEND_INTERP_HH

#include "backend/codegen.hh"
#include "core/reference.hh"

namespace lego
{

/** Statistics of one interpreted run. */
struct InterpStats
{
    Int cycles = 0;       //!< Total simulated cycles.
    Int writes = 0;       //!< Committed memory writes.
    Int reads = 0;        //!< Memory reads issued (valid addresses).
    Int pipelineDepth = 0; //!< Longest static path (fill latency).
};

/**
 * Execute config `cfg` of the generated design on the tensors in
 * `ts` (inputs pre-filled; output updated in place, accumulating).
 * The workload/dataflow are taken from the ADG's config table.
 */
InterpStats runOnHardware(const CodegenResult &gen, const Adg &adg,
                          int cfg, TensorSet &ts);

/**
 * Convenience harness: build inputs from `seed`, run the reference
 * executor and the hardware interpreter, and compare outputs.
 * Returns true when the generated hardware computes exactly the
 * reference result.
 */
bool verifyAgainstReference(const CodegenResult &gen, const Adg &adg,
                            int cfg, unsigned seed,
                            InterpStats *stats = nullptr);

} // namespace lego

#endif // LEGO_BACKEND_INTERP_HH
