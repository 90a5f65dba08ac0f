/**
 * @file
 * Exact min-cost flow (primal-dual: early-exit Dijkstra phases, each
 * followed by an ISAP maximum flow on the admissible subgraph).
 *
 * The delay-matching LP of Section V-A is a difference-constraint LP;
 * its dual is an uncapacitated transshipment problem, solved here as a
 * min-cost flow. Optimal node potentials then yield the primal D
 * variables (see diffcon.hh). Costs/capacities/supplies are integral,
 * so the optimum is integral — the paper's register counts.
 *
 * Each phase runs one Dijkstra on reduced costs and raises the
 * potentials by min(dist, dist[sink]). Dijkstra stops as soon as the
 * smallest queued distance reaches dist[sink]: every node it has not
 * settled is at least that far, so it gets exactly +dist[sink], the
 * capped value a full run would give. Zero-reduced-cost arcs keep the
 * current distance and bypass the heap.
 *
 * The phase then saturates the admissible subgraph (residual arcs of
 * zero reduced cost) with shortest-augmenting-path max flow (ISAP):
 * one reverse BFS from the sink labels every node with its exact
 * admissible distance, the search advances only along arcs that
 * lower the label by one, relabels at dead ends, and stops at the
 * first gap (a label no node holds any more cuts the source off).
 *
 * The potentials are exactly those of successive shortest paths (one
 * Dijkstra per augmenting path): while an admissible path exists,
 * SSP's Dijkstra finds dist[sink] = 0 and leaves every potential
 * unchanged, and any two maximum flows on the admissible subgraph
 * leave residual graphs with the same shortest-path distances (they
 * differ by zero-cost cycles, so each arc one of them lacks is
 * bridged by a zero-cost path in the other). The returned dual, and
 * hence register placement and RTL, is therefore the SSP dual,
 * whichever maximum flow the phase finds.
 *
 * Dijkstra panics on a scanned arc of negative reduced cost, and
 * solve() sweeps every residual arc once more at the end, so arcs the
 * early exit skipped are checked too.
 */

#ifndef LEGO_LP_NETFLOW_HH
#define LEGO_LP_NETFLOW_HH

#include <utility>
#include <vector>

#include "core/types.hh"

namespace lego
{

/** Min-cost flow on a directed graph with node supplies. */
class MinCostFlow
{
  public:
    explicit MinCostFlow(int num_nodes);

    /**
     * Add an arc u -> v with capacity and per-unit cost. Returns the
     * arc id for later flow queries.
     */
    int addArc(int u, int v, Int cap, Int cost);

    /** Positive = source (must ship out), negative = sink. */
    void setSupply(int node, Int supply);
    void addSupply(int node, Int delta);

    /**
     * Solve. Returns false when the supplies cannot be routed.
     * Requires that no negative-cost directed cycle exists (true for
     * LEGO's DAG-derived instances).
     */
    bool solve();

    Int totalCost() const { return totalCost_; }
    Int flowOn(int arc_id) const;

    /**
     * Node potential at optimality: for every arc with residual
     * capacity, cost + pi[u] - pi[v] >= 0.
     */
    Int potential(int v) const { return pi_[size_t(v)]; }

  private:
    struct Edge
    {
        int to;
        Int cap;
        Int cost;
        int rev; //!< Index of the reverse edge in graph_[to].
    };

    void addInternal(int u, int v, Int cap, Int cost);
    bool bellmanFordInit();
    bool dijkstra(int src, int dst);
    Int admissibleMaxFlow(int src, int dst);

    int n_;
    std::vector<std::vector<Edge>> graph_;
    std::vector<std::pair<int, int>> arcRef_; //!< arc id -> (node, idx).
    std::vector<Int> supply_;
    std::vector<Int> pi_;
    Int totalCost_ = 0;

    // Per-phase scratch, kept across phases to reuse the storage.
    std::vector<Int> dist_;
    std::vector<std::pair<Int, int>> heap_;
    std::vector<int> label_, count_, iter_, queue_, path_;
};

} // namespace lego

#endif // LEGO_LP_NETFLOW_HH
