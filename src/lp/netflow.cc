#include "lp/netflow.hh"

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>

namespace lego
{

namespace
{
constexpr Int kInf = std::numeric_limits<Int>::max() / 4;
} // namespace

MinCostFlow::MinCostFlow(int num_nodes)
    : n_(num_nodes + 2), // +2: super source / super sink.
      graph_(size_t(n_)),
      supply_(size_t(n_), 0),
      pi_(size_t(n_), 0)
{
}

void
MinCostFlow::addInternal(int u, int v, Int cap, Int cost)
{
    graph_[size_t(u)].push_back({v, cap, cost, int(graph_[size_t(v)].size())});
    graph_[size_t(v)].push_back(
        {u, 0, -cost, int(graph_[size_t(u)].size()) - 1});
}

int
MinCostFlow::addArc(int u, int v, Int cap, Int cost)
{
    if (u < 0 || u >= n_ - 2 || v < 0 || v >= n_ - 2)
        panic("MinCostFlow::addArc: node out of range");
    arcRef_.emplace_back(u, int(graph_[size_t(u)].size()));
    addInternal(u, v, cap, cost);
    return int(arcRef_.size()) - 1;
}

void
MinCostFlow::setSupply(int node, Int supply)
{
    supply_.at(size_t(node)) = supply;
}

void
MinCostFlow::addSupply(int node, Int delta)
{
    supply_.at(size_t(node)) += delta;
}

Int
MinCostFlow::flowOn(int arc_id) const
{
    auto [u, idx] = arcRef_.at(size_t(arc_id));
    const Edge &e = graph_[size_t(u)][size_t(idx)];
    // Flow pushed equals the reverse edge's acquired capacity.
    return graph_[size_t(e.to)][size_t(e.rev)].cap;
}

bool
MinCostFlow::bellmanFordInit()
{
    // Virtual-source Bellman-Ford: start all nodes at 0 so that the
    // resulting potentials are feasible on every component (needed for
    // reading back dual values on flow-free components).
    std::vector<Int> dist(size_t(n_), 0);
    std::vector<char> inq(size_t(n_), 1);
    std::vector<int> relaxed(size_t(n_), 0);
    std::deque<int> q;
    for (int v = 0; v < n_; v++)
        q.push_back(v);
    while (!q.empty()) {
        int u = q.front();
        q.pop_front();
        inq[size_t(u)] = 0;
        for (const Edge &e : graph_[size_t(u)]) {
            if (e.cap <= 0)
                continue;
            Int nd = dist[size_t(u)] + e.cost;
            if (nd < dist[size_t(e.to)]) {
                dist[size_t(e.to)] = nd;
                if (++relaxed[size_t(e.to)] > n_ + 1)
                    return false; // Negative cycle (LEGO bug).
                if (!inq[size_t(e.to)]) {
                    inq[size_t(e.to)] = 1;
                    q.push_back(e.to);
                }
            }
        }
    }
    for (int v = 0; v < n_; v++)
        pi_[size_t(v)] = dist[size_t(v)];
    return true;
}

bool
MinCostFlow::dijkstra(int src, int dst)
{
    std::vector<Int> dist(size_t(n_), kInf);
    using Item = std::pair<Int, int>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
    dist[size_t(src)] = 0;
    pq.push({0, src});
    while (!pq.empty()) {
        auto [d, u] = pq.top();
        pq.pop();
        if (d > dist[size_t(u)])
            continue;
        for (const Edge &e : graph_[size_t(u)]) {
            if (e.cap <= 0)
                continue;
            Int rc = e.cost + pi_[size_t(u)] - pi_[size_t(e.to)];
            if (rc < 0)
                panic("MinCostFlow: negative reduced cost");
            Int nd = d + rc;
            if (nd < dist[size_t(e.to)]) {
                dist[size_t(e.to)] = nd;
                pq.push({nd, e.to});
            }
        }
    }
    if (dist[size_t(dst)] >= kInf)
        return false;
    // Update potentials, capping by dist[dst] to keep feasibility on
    // unreached nodes. Every shortest src-dst path now has zero
    // reduced cost.
    for (int v = 0; v < n_; v++)
        pi_[size_t(v)] += std::min(dist[size_t(v)], dist[size_t(dst)]);
    return true;
}

Int
MinCostFlow::admissibleMaxFlow(int src, int dst)
{
    // Dinic restricted to admissible arcs (residual, zero reduced
    // cost): BFS levels, then a blocking flow along level-increasing
    // paths with per-node arc iterators; repeat until dst is cut off.
    std::vector<int> level, iter, queue, path;
    auto admissible = [&](int u, const Edge &e) {
        return e.cap > 0 && e.cost + pi_[size_t(u)] == pi_[size_t(e.to)];
    };
    auto nextLevel = [&](int u, const Edge &e) {
        return level[size_t(e.to)] == level[size_t(u)] + 1 &&
               admissible(u, e);
    };
    // The arc a node on the path leaves by.
    auto arcOf = [&](int u) -> Edge & {
        return graph_[size_t(u)][size_t(iter[size_t(u)])];
    };
    Int pushed = 0;
    for (;;) {
        level.assign(size_t(n_), -1);
        level[size_t(src)] = 0;
        queue.assign(1, src);
        for (size_t h = 0; h < queue.size(); h++) {
            int u = queue[h];
            for (const Edge &e : graph_[size_t(u)]) {
                if (level[size_t(e.to)] < 0 && admissible(u, e)) {
                    level[size_t(e.to)] = level[size_t(u)] + 1;
                    queue.push_back(e.to);
                }
            }
        }
        if (level[size_t(dst)] < 0)
            return pushed;

        iter.assign(size_t(n_), 0);
        path.assign(1, src);
        while (!path.empty()) {
            int u = path.back();
            if (u == dst) {
                Int push = kInf;
                for (size_t k = 0; k + 1 < path.size(); k++)
                    push = std::min(push, arcOf(path[k]).cap);
                size_t cut = path.size();
                for (size_t k = 0; k + 1 < path.size(); k++) {
                    Edge &e = arcOf(path[k]);
                    e.cap -= push;
                    graph_[size_t(e.to)][size_t(e.rev)].cap += push;
                    totalCost_ += push * e.cost;
                    if (e.cap == 0)
                        cut = std::min(cut, k);
                }
                pushed += push;
                // Retreat to the tail of the first saturated arc.
                path.resize(cut + 1);
                continue;
            }
            const std::vector<Edge> &adj = graph_[size_t(u)];
            int &i = iter[size_t(u)];
            while (size_t(i) < adj.size() && !nextLevel(u, adj[size_t(i)]))
                i++;
            if (size_t(i) < adj.size()) {
                path.push_back(adj[size_t(i)].to);
            } else {
                // Dead end: drop u and the arc that led to it.
                path.pop_back();
                if (!path.empty())
                    iter[size_t(path.back())]++;
            }
        }
    }
}

bool
MinCostFlow::solve()
{
    const int src = n_ - 2;
    const int dst = n_ - 1;
    Int total = 0;
    for (int v = 0; v < n_ - 2; v++) {
        if (supply_[size_t(v)] > 0) {
            addInternal(src, v, supply_[size_t(v)], 0);
            total += supply_[size_t(v)];
        } else if (supply_[size_t(v)] < 0) {
            addInternal(v, dst, -supply_[size_t(v)], 0);
        }
    }
    Int demand = 0;
    for (int v = 0; v < n_ - 2; v++)
        if (supply_[size_t(v)] < 0)
            demand -= supply_[size_t(v)];
    if (demand != total)
        return false;

    if (!bellmanFordInit())
        panic("MinCostFlow: negative cycle in constraint graph");

    // Primal-dual phases: one Dijkstra, then saturate every
    // zero-reduced-cost path it opened.
    Int shipped = 0;
    while (shipped < total) {
        if (!dijkstra(src, dst))
            return false;
        shipped += admissibleMaxFlow(src, dst);
    }
    return true;
}

} // namespace lego
