#include "lp/netflow.hh"

#include <algorithm>
#include <deque>
#include <limits>

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
    std::vector<Int> &dist = dist_;
    dist.assign(size_t(n_), kInf);
    // Nodes at the current distance d wait on a stack and only the
    // rest go through the heap: zero-reduced-cost arcs, the bulk of
    // LEGO's, keep d.
    using Item = std::pair<Int, int>;
    std::vector<Item> &heap = heap_;
    std::vector<int> &level = queue_;
    heap.clear();
    level.assign(1, src);
    dist[size_t(src)] = 0;
    Int d = 0;
    for (;;) {
        int u;
        if (!level.empty()) {
            u = level.back();
            level.pop_back();
        } else if (!heap.empty()) {
            std::pop_heap(heap.begin(), heap.end(), std::greater<Item>());
            auto [k, v] = heap.back();
            heap.pop_back();
            if (k > dist[size_t(v)])
                continue;
            d = k;
            u = v;
        } else {
            break;
        }
        // Every node still unsettled is at least dist[dst] away, so
        // the capped update below gives it exactly +dist[dst].
        if (d >= dist[size_t(dst)])
            break;
        for (const Edge &e : graph_[size_t(u)]) {
            if (e.cap <= 0)
                continue;
            Int rc = e.cost + pi_[size_t(u)] - pi_[size_t(e.to)];
            if (rc < 0)
                panic("MinCostFlow: negative reduced cost");
            Int nd = d + rc;
            if (nd < dist[size_t(e.to)]) {
                dist[size_t(e.to)] = nd;
                if (rc == 0) {
                    level.push_back(e.to);
                } else {
                    heap.push_back({nd, e.to});
                    std::push_heap(heap.begin(), heap.end(),
                                   std::greater<Item>());
                }
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
    // ISAP restricted to admissible arcs (residual, zero reduced
    // cost). label[v] is a lower bound on v's admissible distance to
    // dst, exact after the reverse BFS; the path advances only along
    // arcs with label[u] == label[v] + 1 and relabels at dead ends.
    auto admissible = [&](int u, const Edge &e) {
        return e.cap > 0 && e.cost + pi_[size_t(u)] == pi_[size_t(e.to)];
    };
    std::vector<int> &label = label_, &count = count_, &iter = iter_;
    std::vector<int> &queue = queue_, &path = path_;
    label.assign(size_t(n_), n_);
    label[size_t(dst)] = 0;
    queue.assign(1, dst);
    for (size_t h = 0; h < queue.size(); h++) {
        int v = queue[h];
        for (const Edge &e : graph_[size_t(v)]) {
            // The arc e.to -> v is the twin of e.
            if (label[size_t(e.to)] == n_ &&
                admissible(e.to, graph_[size_t(e.to)][size_t(e.rev)])) {
                label[size_t(e.to)] = label[size_t(v)] + 1;
                queue.push_back(e.to);
            }
        }
    }
    auto descends = [&](int u, const Edge &e) {
        return label[size_t(e.to)] + 1 == label[size_t(u)] && admissible(u, e);
    };
    count.assign(size_t(n_) + 1, 0);
    for (int v = 0; v < n_; v++)
        count[size_t(label[size_t(v)])]++;
    iter.assign(size_t(n_), 0);
    path.clear(); // Nodes before u; each leaves by graph_[.][iter[.]].
    auto arcOf = [&](int v) -> Edge & {
        return graph_[size_t(v)][size_t(iter[size_t(v)])];
    };

    Int pushed = 0;
    int u = src;
    while (label[size_t(src)] < n_) {
        if (u == dst) {
            Int push = kInf;
            for (int v : path)
                push = std::min(push, arcOf(v).cap);
            size_t cut = path.size();
            for (size_t k = 0; k < path.size(); k++) {
                Edge &e = arcOf(path[k]);
                e.cap -= push;
                graph_[size_t(e.to)][size_t(e.rev)].cap += push;
                totalCost_ += push * e.cost;
                if (e.cap == 0)
                    cut = std::min(cut, k);
            }
            pushed += push;
            // Retreat to the tail of the first saturated arc.
            u = path[cut];
            path.resize(cut);
            continue;
        }
        const std::vector<Edge> &adj = graph_[size_t(u)];
        int &i = iter[size_t(u)];
        while (size_t(i) < adj.size() && !descends(u, adj[size_t(i)]))
            i++;
        if (size_t(i) < adj.size()) {
            path.push_back(u);
            u = adj[size_t(i)].to;
            continue;
        }
        // Dead end. If u held the last node at its label, no node
        // above it (src included) can reach dst any more: stop.
        if (--count[size_t(label[size_t(u)])] == 0)
            break;
        int relabel = n_;
        for (const Edge &e : adj)
            if (admissible(u, e))
                relabel = std::min(relabel, label[size_t(e.to)] + 1);
        label[size_t(u)] = relabel;
        count[size_t(relabel)]++;
        i = 0;
        if (u != src) {
            u = path.back();
            path.pop_back();
        }
    }
    return pushed;
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
            break;
        shipped += admissibleMaxFlow(src, dst);
    }

    // Dijkstra checks only the arcs it scans before its early exit;
    // every residual arc must still price non-negatively.
    for (int u = 0; u < n_; u++)
        for (const Edge &e : graph_[size_t(u)])
            if (e.cap > 0 &&
                e.cost + pi_[size_t(u)] - pi_[size_t(e.to)] < 0)
                panic("MinCostFlow: negative reduced cost");
    return shipped == total;
}

} // namespace lego
