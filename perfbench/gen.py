"""Seeded synthetic datasets and query mixes for the tgq benchmark.

Everything here is a pure function of the seed and the scale: the same
seed gives byte-identical JSONL lines and the same op list. tgq only ever
sees the generated lines and query strings.

Generator rules (shared by every workload):

* nodes live over the whole time domain, except one in ten, which has two
  disjoint lifetimes;
* edges join two distinct nodes, every node being an endpoint of about the
  same number of edges, and live over a random interval inside one of the
  intervals their endpoints share (see ``_edge_intervals``);
* the node attribute ``w`` is a random walk recorded at about 70% of the
  points where the node is alive, and always at the first point of each
  lifetime, so carry-forward defines it wherever the node is alive;
* the edge attribute ``weight`` is recorded at about 30% of the points
  where the edge is alive, and always at its first point;
* there are 20 named subsets of 25 nodes and one external series ``ext``.

Every query names only elements that are alive (and so have a value) at
its time points, so every query is answerable by construction.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import partial

N_SUBSETS = 20
SUBSET_SIZE = 25


@dataclass(frozen=True)
class Scale:
    nodes: int
    edges: int
    times: int


@dataclass
class Dataset:
    """The generated graph, kept in plain Python form so that answers can be
    computed without tgq."""

    times: int
    lifetimes: dict  # node id -> [(start, end), ...]
    edges: dict  # edge id -> (src, dst, start, end)
    w: dict  # node id -> {t: value}
    weight: dict  # edge id -> {t: value}
    subsets: dict  # name -> sorted node ids
    ext: list  # value per time point
    _adjacency: dict = field(default_factory=dict, repr=False)
    _dense: dict = field(default_factory=dict, repr=False)  # node -> value per t

    def alive(self, node: str, t: int) -> bool:
        return any(s <= t <= e for s, e in self.lifetimes[node])

    def value(self, node: str, t: int) -> float:
        """``w`` of an alive node at t, carried forward inside its lifetime."""
        if not self._dense:
            for n, ivals in self.lifetimes.items():
                row = self._dense[n] = [None] * self.times
                for s, e in ivals:
                    for u in range(s, e + 1):
                        row[u] = self.w[n].get(u, row[u - 1] if u > s else None)
        return self._dense[node][t]

    def edge_weight(self, edge: str, t: int) -> float:
        series = self.weight[edge]
        return next(series[u] for u in range(t, self.edges[edge][2] - 1, -1) if u in series)

    def alive_edges(self, t: int) -> list:
        return [
            (eid, src, dst) for eid, (src, dst, s, e) in self.edges.items() if s <= t <= e
        ]

    def adjacency(self, t: int) -> dict:
        """node -> set of neighbours over the edges alive at t."""
        if t not in self._adjacency:
            adj = {n: set() for n in self.lifetimes if self.alive(n, t)}
            for _, src, dst in self.alive_edges(t):
                adj[src].add(dst)
                adj[dst].add(src)
            self._adjacency[t] = adj
        return self._adjacency[t]

    def distances(self, start: str, t: int, limit=None) -> dict:
        """Hop distance from ``start`` to every node it reaches at t."""
        adj = self.adjacency(t)
        dist = {start: 0}
        frontier = [start]
        while frontier and (limit is None or dist[frontier[0]] < limit):
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        return dist

    def records(self) -> list:
        out = []
        for node, ivals in self.lifetimes.items():
            for s, e in ivals:
                out.append({"type": "node", "id": node, "start": s, "end": e})
        for eid, (src, dst, s, e) in self.edges.items():
            out.append({"type": "edge", "id": eid, "src": src, "dst": dst,
                        "directed": False, "start": s, "end": e})
        for name, members in self.subsets.items():
            out.append({"type": "subset", "name": name,
                        "members": [f"node:{n}" for n in members]})
        for t, value in enumerate(self.ext):
            out.append({"type": "series", "name": "ext", "t": t, "value": value})
        for node, series in self.w.items():
            for t, value in series.items():
                out.append({"type": "attr", "elem": f"node:{node}", "name": "w",
                            "t": t, "value": value})
        for eid, series in self.weight.items():
            for t, value in series.items():
                out.append({"type": "attr", "elem": f"edge:{eid}", "name": "weight",
                            "t": t, "value": value})
        return out

    def lines(self) -> list:
        return [json.dumps(rec, separators=(",", ":")) for rec in self.records()]


def make_dataset(scale: Scale, seed: int) -> Dataset:
    rng = random.Random(f"data:{seed}")
    last = scale.times - 1
    lifetimes = {}
    for i in range(scale.nodes):
        node = f"n{i}"
        if i % 10 == 9:
            gap_start = rng.randrange(1, last - 1)
            gap_end = rng.randrange(gap_start, last - 1)
            lifetimes[node] = [(0, gap_start - 1), (gap_end + 1, last)]
        else:
            lifetimes[node] = [(0, last)]
    names = list(lifetimes)

    # Endpoints first come from a shuffled list that holds every node equally
    # often, so every seed gives the same degree sequence; pairs that cannot
    # be used are then replaced by uniformly drawn ones.
    stubs = names * (2 * scale.edges // len(names))
    rng.shuffle(stubs)
    drawn = iter(zip(stubs[0::2], stubs[1::2]))
    ends = []  # (a, b, intervals the two share)
    pairs = set()
    while len(ends) < scale.edges:
        a, b = next(drawn, None) or rng.sample(names, 2)
        a, b = sorted((a, b))
        if a == b or (a, b) in pairs:
            continue
        shared = [
            (max(s1, s2), min(e1, e2))
            for s1, e1 in lifetimes[a] for s2, e2 in lifetimes[b]
            if max(s1, s2) <= min(e1, e2)
        ]
        if shared:
            pairs.add((a, b))
            ends.append((a, b, shared))
    spans = _edge_intervals(rng, [shared for _, _, shared in ends], scale.times)
    edges = {f"e{j}": (a, b, s, e) for j, ((a, b, _), (s, e)) in enumerate(zip(ends, spans))}

    w = {}
    for node, ivals in lifetimes.items():
        level = rng.uniform(20.0, 80.0)
        series = {}
        for s, e in ivals:
            for t in range(s, e + 1):
                level += rng.gauss(0.0, 3.0)
                if t == s or rng.random() < 0.7:
                    series[t] = round(level, 2)
        w[node] = series

    weight = {}
    for eid, (_, _, s, e) in edges.items():
        weight[eid] = {
            t: float(rng.randint(1, 9))
            for t in range(s, e + 1) if t == s or rng.random() < 0.3
        }

    subsets = {
        f"S{k}": sorted(rng.sample(names, SUBSET_SIZE)) for k in range(N_SUBSETS)
    }
    level = 0.0
    ext = []
    for _ in range(scale.times):
        level += rng.gauss(0.0, 1.0)
        ext.append(round(level, 3))
    return Dataset(scale.times, lifetimes, edges, w, weight, subsets, ext)


def _edge_intervals(rng: random.Random, shared: list, times: int, draws: int = 15) -> list:
    """A random interval inside one of each edge's shared intervals.

    The number of edges alive at a time point sets the cost of most
    structural queries, and one draw of a few hundred intervals can land
    well above or below the usual count. So this makes ``draws`` draws and
    keeps the one whose mean alive-edge count, over the busier half of the
    time points, is the median of them: seeds then differ in which edges
    are alive, much less in how many.
    """
    candidates = []
    for _ in range(draws):
        spans = []
        for options in shared:
            lo, hi = rng.choice(options)
            spans.append(tuple(sorted((rng.randint(lo, hi), rng.randint(lo, hi)))))
        delta = [0] * (times + 1)
        for s, e in spans:
            delta[s] += 1
            delta[e + 1] -= 1
        alive, running = [], 0
        for t in range(times):
            running += delta[t]
            alive.append(running)
        busy = sorted(alive)[times // 2:]
        candidates.append((sum(busy), len(candidates), spans))
    candidates.sort()
    return candidates[draws // 2][2]


# ---------------------------------------------------------------------------
# Query mixes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    family: str  # task family, the key of the per-family latency means
    shape: str  # the query template
    text: str
    args: dict = field(default_factory=dict)  # parameters the answer check reads
    alive: tuple = ()  # (node, first t, last t) spans the query relies on


class _Picker:
    """Seeded choices of references that are alive where a query uses them."""

    def __init__(self, data: Dataset, rng: random.Random):
        self.d = data
        self.rng = rng
        self.nodes = sorted(data.lifetimes, key=lambda n: int(n[1:]))
        self._quantiles: dict = {}
        self._queues: dict = {}
        counts = sorted((len(data.alive_edges(t)), t) for t in range(data.times))
        # The half of the time points with the most alive edges. Edge
        # intervals pile up mid-domain, where one component spans most nodes;
        # towards the ends the graph falls apart. Structural queries at a
        # uniformly random t would swing in cost with the t drawn.
        self.busy = sorted(t for _, t in counts[len(counts) // 2:])

    def t(self) -> int:
        return self.rng.randrange(self.d.times)

    def busy_t(self, key: str) -> int:
        """The next of the busy time points, in a shuffled order kept per
        query shape, so that each shape visits them all equally often."""
        queue = self._queues.setdefault(key, [])
        if not queue:
            queue.extend(self.busy)
            self.rng.shuffle(queue)
        return queue.pop()

    def busy_window(self, length: int, key: str):
        mid = self.busy_t(key)
        start = min(max(0, mid - length // 2), self.d.times - length)
        return start, start + length - 1

    def t_by_component_work(self, target: int = 100_000) -> int:
        """One of the two time points whose connected components hold the
        nearest to ``target`` node quadruples in all. Configuration metrics
        enumerate every quadruple of a component, so a component search at a
        random t would cost whatever the largest component there happens to
        be: from nothing to seconds."""
        work = []
        for t in range(self.d.times):
            seen: set = set()
            quads = 0
            for start in self.d.adjacency(t):
                if start not in seen:
                    component = self.d.distances(start, t)
                    seen |= component.keys()
                    k = len(component)
                    quads += k * (k - 1) * (k - 2) * (k - 3) // 24
            work.append((abs(quads - target), t))
        return self.rng.choice(sorted(work)[:2])[1]

    def window(self, length: int):
        start = self.rng.randrange(self.d.times - length + 1)
        return start, start + length - 1

    def node_over(self, a: int, b: int) -> str:
        """A node alive over the whole of [a, b]."""
        while True:
            node = self.rng.choice(self.nodes)
            if any(s <= a and b <= e for s, e in self.d.lifetimes[node]):
                return node

    def node_at(self, t: int) -> str:
        return self.node_over(t, t)

    def pair_at(self, t: int, joined: float = 0.5):
        """Two distinct nodes alive at t, joined by an edge at t with
        probability ``joined``."""
        edges = self.d.alive_edges(t)
        if edges and self.rng.random() < joined:
            _, a, b = self.rng.choice(edges)
            return a, b
        a = self.node_at(t)
        while True:
            b = self.node_at(t)
            if b != a:
                return a, b

    def subset_ref(self) -> str:
        return f"subset:S{self.rng.randrange(N_SUBSETS)}"

    def threshold(self, quantile: float, t=None) -> float:
        """A ``w`` threshold that a fixed share of the alive values exceed, so
        that a FIND returns about the same number of rows for every seed."""
        if t not in self._quantiles:
            times = [t] if t is not None else range(self.d.times)
            self._quantiles[t] = sorted(
                self.d.value(n, u) for u in times for n in self.nodes if self.d.alive(n, u)
            )
        values = self._quantiles[t]
        return values[int(quantile * (len(values) - 1))]


def _lookup(p):
    t = p.t()
    node = p.node_at(t)
    return Op("lookup", "lookup", f"LOOKUP w OF node:{node} AT t={t}",
              {"node": node, "t": t}, ((node, t, t),))


def _find_g_at_t(p):
    t = p.t()
    x = p.threshold(0.9, t)
    return Op("find", "find_g_at_t", f"FIND g WHERE w > {x} AT t={t}", {"x": x, "t": t})


def _find_t_of_node(p):
    t = p.t()
    node = p.node_at(t)
    x = p.d.value(node, t)
    return Op("find", "find_t_of_node", f"FIND t WHERE w > {x} FOR node:{node}",
              {"x": x, "node": node}, ((node, t, t),))


def _find_t_g(p):
    x = p.threshold(0.999)
    return Op("find", "find_t_g", f"FIND t,g WHERE w > {x}", {"x": x})


def _trend_of_node(p):
    a, b = p.window(10)
    node = p.node_over(a, b)
    return Op("characterize", "trend_of_node",
              f"CHARACTERIZE TREND ON w OF node:{node} DURING [{a}, {b}]", alive=((node, a, b),))


def _dist_of_subset(p):
    return Op("characterize", "dist_of_subset",
              f"CHARACTERIZE DIST ON w OF {p.subset_ref()} AT t={p.t()}")


def _dist_of_nodes(p):
    return Op("characterize", "dist_of_nodes", f"CHARACTERIZE DIST ON w OF NODES AT t={p.t()}")


def _aspect(axis, shape):
    def build(p):
        a, b = p.window(10)
        return Op("characterize", shape,
                  f"CHARACTERIZE ASPECT {axis} ON w OF {p.subset_ref()} DURING [{a}, {b}]")
    return build


def _search_trend_each_node(p):
    a, b = p.window(10)
    return Op("search", "trend_each_node",
              f"SEARCH INCREASING ON w OVER EACH_NODE DURING [{a}, {b}]")


def _search_peak_windows(p):
    node = p.node_over(0, p.d.times - 1)
    return Op("search", "peak_windows", f"SEARCH PEAK ON w OF node:{node} WINDOWS 5",
              alive=((node, 0, p.d.times - 1),))


def _search_dist_subsets(p):
    return Op("search", "dist_subsets", f"SEARCH DIST CONCENTRATED ON w OVER SUBSETS AT t={p.t()}")


def _compare_trend(p):
    a, b = p.window(10)
    n1, n2 = p.node_over(a, b), p.node_over(a, b)
    return Op("compare", "compare_trend",
              f"COMPARE TREND ON w OF node:{n1} DURING [{a}, {b}] "
              f"WITH TREND ON w OF node:{n2} DURING [{a}, {b}]",
              alive=((n1, a, b), (n2, a, b)))


def _compare_dist(p):
    return Op("compare", "compare_dist",
              f"COMPARE DIST ON w OF {p.subset_ref()} AT t={p.t()} "
              f"WITH DIST ON w OF {p.subset_ref()} AT t={p.t()}")


def _seek_value_fixed(p):
    t = p.t()
    node = p.node_at(t)
    return Op("seek", "seek_value_fixed",
              f"SEEK g2 WHERE w(g1) WITHIN(0.5) w(g2) AND g1 = node:{node} AND t1 = {t} AND t2 = {t}",
              {"node": node, "t": t, "within": 0.5}, ((node, t, t),))


def _seek_eq_all_pairs(p):
    t = p.t()
    return Op("seek", "seek_eq_all_pairs",
              f"SEEK g1,g2 WHERE w(g1) = w(g2) AND t1 = {t} AND t2 = {t}", {"t": t})


def _seek_trend_opposite(p):
    a, b = p.window(10)
    node = p.node_over(a, b)
    return Op("seek", "seek_trend_opposite",
              f"SEEK g2 WHERE TREND(w, g1) OPPOSITE TREND(w, g2) AND g1 = node:{node} "
              f"AND T1 = [{a}, {b}] AND T2 = [{a}, {b}]", alive=((node, a, b),))


def _seek_dist_subsets(p):
    return Op("seek", "seek_dist_subsets",
              f"SEEK G1,G2 WHERE DIST(w, G1) DIFFERENT DIST(w, G2) AND t1 = {p.t()} "
              f"AND t2 = {p.t()} OVER SUBSETS")


def _correlate_nodes(p):
    a, b = p.window(20)
    n1, n2 = p.node_over(a, b), p.node_over(a, b)
    return Op("correlate", "correlate_nodes",
              f"CORRELATE w OF node:{n1} DURING [{a}, {b}] WITH w OF node:{n2} DURING [{a}, {b}]",
              alive=((n1, a, b), (n2, a, b)))


def _correlate_series(p):
    a, b = p.window(20)
    return Op("correlate", "correlate_series",
              f"CORRELATE w OF {p.subset_ref()} DURING [{a}, {b}] WITH SERIES ext LAG 1")


def _connected(p, joined=0.5):
    t = p.busy_t("connected")
    a, b = p.pair_at(t, joined)
    return Op("connect", "connected", f"CONNECTED(node:{a}, node:{b}) AT t={t}",
              {"a": a, "b": b, "t": t}, ((a, t, t), (b, t, t)))


def _neighbors_path2(p):
    t = p.busy_t("neighbors_path2")
    node = p.node_at(t)
    return Op("connect", "neighbors_path2", f"NEIGHBORS(node:{node}, PATH <= 2) AT t={t}",
              {"node": node, "t": t}, ((node, t, t),))


def _neighbors_adjacent_all_t(p):
    node = p.node_over(0, p.d.times - 1)
    return Op("connect", "neighbors_adjacent_all_t", f"NEIGHBORS(node:{node}, ADJACENT)",
              {"node": node}, ((node, 0, p.d.times - 1),))


def _neighbors_weight(p):
    t = p.busy_t("neighbors_weight")
    node = p.node_at(t)
    return Op("connect", "neighbors_weight",
              f"NEIGHBORS(node:{node}, ADJACENT WITH weight > 4) AT t={t}",
              {"node": node, "t": t, "x": 4.0}, ((node, t, t),))


def _times_path3(p):
    a, b = p.pair_at(0)
    return Op("connect", "times_path3", f"TIMES WHERE CONNECTED(node:{a}, node:{b}, PATH <= 3)",
              {"a": a, "b": b}, ((a, 0, 0), (b, 0, 0)))


def _pairs(spec, shape, limit):
    def build(p):
        t = p.busy_t(shape)
        return Op("connect", shape, f"PAIRS({spec}) AT t={t}", {"t": t, "limit": limit})
    return build


def _struct_pair(p):
    a, b = p.busy_window(10, "struct_pair")
    n1, n2 = p.pair_at(a)
    return Op("struct", "struct_pair",
              f"STRUCT CHARACTERIZE PAIR(node:{n1}, node:{n2}) DURING [{a}, {b}]",
              alive=((n1, a, a), (n2, a, a)))


def _struct_subset(kind, shape, window):
    def build(p):
        if window:
            a, b = p.busy_window(10, shape)
            when = f"DURING [{a}, {b}]"
        else:
            when = f"AT t={p.busy_t(shape)}"
        return Op("struct", shape, f"STRUCT CHARACTERIZE {kind} OF {p.subset_ref()} {when}")
    return build


def _struct_search_appearing(p):
    a, b = p.busy_window(5, "struct_search_appearing")
    return Op("struct", "struct_search_appearing",
              f"STRUCT SEARCH APPEARING OVER PAIRS DURING [{a}, {b}]")


def _struct_search_config(p):
    return Op("struct", "struct_search_config",
              f"STRUCT SEARCH CONFIG density=1.0 OVER COMPONENTS AT t={p.t_by_component_work()}")


def _search_dist_components(p):
    return Op("search", "search_dist_components",
              f"SEARCH DIST CONCENTRATED ON w OVER COMPONENTS AT t={p.busy_t('search_dist_components')}")


def _search_dist_khop(p):
    t = p.busy_t("search_dist_khop")
    node = p.node_at(t)
    return Op("search", "search_dist_khop",
              f"SEARCH DIST BIMODAL ON w OVER KHOP 1 node:{node} AT t={t}", alive=((node, t, t),))


# Ops per round of each workload. The counts keep every shape well under
# half of a round's time and put the median and the tail percentile inside
# a block of ops of one cost (see perfbench/reference.json).
MIXES = {
    "values": [
        (_lookup, 300), (_find_g_at_t, 8), (_find_t_of_node, 8), (_find_t_g, 2),
        (_trend_of_node, 6), (_dist_of_subset, 6), (_dist_of_nodes, 4),
        (_aspect("TRENDS_OVER_GRAPH", "aspect_trends"), 2),
        (_aspect("DISTRIBUTION_OVER_TIME", "aspect_dist"), 2),
        (_search_trend_each_node, 4), (_search_peak_windows, 8), (_search_dist_subsets, 2),
        (_compare_trend, 3), (_compare_dist, 3),
        (_seek_value_fixed, 2), (_seek_eq_all_pairs, 1), (_seek_trend_opposite, 4),
        (_seek_dist_subsets, 2),
        (_correlate_nodes, 3), (_correlate_series, 3),
    ],
    "structure": [
        # Nine in ten CONNECTED ops ask about two nodes an edge joins, which
        # cost alike, so that the median falls inside one block of ops.
        (partial(_connected, joined=0.9), 200), (_neighbors_path2, 10),
        (_neighbors_adjacent_all_t, 8), (_neighbors_weight, 8), (_times_path3, 6),
        (_pairs("ADJACENT", "pairs_adjacent", 1), 2), (_pairs("PATH <= 2", "pairs_path2", 2), 1),
        (_struct_pair, 6), (_struct_subset("CONFIG", "struct_config", False), 4),
        (_struct_subset("PAIRS", "struct_pairs", True), 3),
        (_struct_subset("CONFIGTREND", "struct_configtrend", True), 3),
        (_struct_search_appearing, 1), (_struct_search_config, 2),
        (_search_dist_components, 4), (_search_dist_khop, 6),
    ],
    "cold_query": [
        (_lookup, 2), (_trend_of_node, 2), (_connected, 2), (_neighbors_path2, 2),
    ],
}


def make_ops(workload: str, data: Dataset, seed: int, rounds: int) -> list:
    """``rounds`` rounds of the workload's mix, each shuffled on its own."""
    rng = random.Random(f"ops:{workload}:{seed}")
    picker = _Picker(data, rng)
    out = []
    for _ in range(rounds):
        ops = [build(picker) for build, count in MIXES[workload] for _ in range(count)]
        rng.shuffle(ops)
        out.append(ops)
    return out
