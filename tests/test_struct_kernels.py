"""Structural kernels checked against per-lookup edge scans.

The ``reference_*`` functions are the code ``structure.py`` ran before
connection went through one neighbour table per time point: every
neighbour lookup scans every alive edge of the snapshot and tests the edge
predicate there, a path is a BFS over such lookups, connection is decided
pair by pair, and cliques are counted over all 3- and 4-subsets of the
alive members. The kernels must give the same answers and raise the same
errors.
"""

import itertools
import json
import random
from collections import deque

import pytest

from tgq.config import Config
from tgq.errors import (
    ABSENT_ELEMENT, EMPTY_SCOPE, FAMILY_MISMATCH, KIND_MISMATCH, SEARCH_SPACE_EXCEEDED, TgqError,
    VALIDATION_ERROR,
)
from tgq.graph import ElemKind, GraphElementRef, TimeInterval, edge_ref, load, node_ref, object_ref
from tgq.patterns import match_score
from tgq.search import (
    SearchSpace, SubsetFamily, check_budget, group_candidates, scopes, time_points,
    time_windows, union_graph,
)
from tgq import structure
from tgq.relations import _member_nodes, are_adjacent, shortest_connection
from tgq.structure import (
    ConnectionSpec,
    PresenceClass,
    PresenceLiteral,
    StructScopeKind,
    StructuralPattern,
    classify_presence,
    connection_times,
    find_connected,
    find_connected_pairs,
    pair_over_time,
    pairs_aggregate,
    snapshot_metrics,
    structural_search,
)
from tgq.tasks import Binding, ValueConstraint

from randsuite import random_graph

# ---------------------------------------------------------------------------
# Reference: one edge scan per neighbour lookup
# ---------------------------------------------------------------------------


def reference_edge_ok(graph, cfg, edge_id, t, spec):
    if spec.edge_attr is None:
        return True
    value = graph.column(GraphElementRef(ElemKind.EDGE, edge_id), spec.edge_attr, cfg)[t]
    return value is not None and spec.edge_constraint.test(value)


def reference_neighbours(graph, cfg, node, t, spec):
    out = set()
    for edge_id, src, dst, directed in graph.snapshot(t).edges:
        if not reference_edge_ok(graph, cfg, edge_id, t, spec):
            continue
        if spec.direction == "any" or not directed:
            if src == node:
                out.add(dst)
            elif dst == node:
                out.add(src)
        elif spec.direction == "out" and src == node:
            out.add(dst)
        elif spec.direction == "in" and dst == node:
            out.add(src)
    return sorted(out)


def reference_reachable(graph, cfg, start, t, spec):
    dist = {start: 0}
    frontier = [start]
    depth = 0
    while frontier and (spec.max_distance is None or depth < spec.max_distance):
        depth += 1
        nxt = []
        for u in frontier:
            for v in reference_neighbours(graph, cfg, u, t, spec):
                if v not in dist:
                    dist[v] = depth
                    nxt.append(v)
        frontier = nxt
    return dist


def reference_nodes_of(graph, ref, t):
    if ref.kind == ElemKind.NODE:
        return [ref.id] if graph.snapshot(t).has_node(ref.id) else []
    if ref.kind == ElemKind.OBJECT:
        snap = graph.snapshot(t)
        return sorted(n for n in graph.object_members(ref.id).nodes if snap.has_node(n))
    raise TgqError(FAMILY_MISMATCH, f"connection tasks apply to nodes and objects, not {ref}")


def reference_connected(graph, cfg, g1, g2, t, spec):
    starts = reference_nodes_of(graph, g1, t)
    targets = set(reference_nodes_of(graph, g2, t))
    if not starts or not targets:
        return False
    if spec.mode == "adjacent":
        for a in starts:
            for b in reference_neighbours(graph, cfg, a, t, spec):
                if b in targets:
                    return True
        return False
    for a in starts:
        reach = reference_reachable(graph, cfg, a, t, spec)
        if any(b in reach and reach[b] > 0 for b in targets):
            return True
    return False


def reference_find_connected(graph, cfg, g1, spec, t=None):
    if t is not None and not graph.exists_at(g1, t):
        raise TgqError(ABSENT_ELEMENT, f"{g1} does not exist at t={graph.label_of(t)}")
    times = [t] if t is not None else [
        ti for ti in range(graph.n_times) if graph.exists_at(g1, ti)
    ]
    if g1.kind == ElemKind.NODE:
        candidates = [node_ref(n) for n in graph.node_ids()]
    else:
        candidates = [object_ref(o) for o in graph.object_ids()]
    out = []
    for ti in times:
        for g2 in candidates:
            if g2 == g1 or not graph.exists_at(g2, ti):
                continue
            if reference_connected(graph, cfg, g1, g2, ti, spec):
                out.append((g2, ti))
    out.sort(key=lambda p: (p[1], p[0]))
    return out


def reference_find_connected_pairs(graph, cfg, spec, t=None):
    times = time_points(graph, t)
    names = graph.node_ids()
    check_budget(len(times) * len(names) * max(1, len(names) - 1) // 2, cfg,
                 "connected-pair search")
    ordered = spec.direction != "any"
    out = []
    for ti in times:
        snap = graph.snapshot(ti)
        alive = [n for n in names if snap.has_node(n)]
        for i, a in enumerate(alive):
            for b in alive if ordered else alive[i + 1:]:
                if a != b and reference_connected(graph, cfg, node_ref(a), node_ref(b), ti, spec):
                    out.append((node_ref(a), node_ref(b), ti))
    out.sort(key=lambda p: (p[2], p[0], p[1]))
    return out


def reference_connection_times(graph, cfg, g1, g2, spec):
    return [
        t for t in range(graph.n_times)
        if graph.exists_at(g1, t) and graph.exists_at(g2, t)
        and reference_connected(graph, cfg, g1, g2, t, spec)
    ]


def reference_pair_over_time(graph, cfg, g1, g2, interval, spec=None):
    spec = spec or ConnectionSpec()
    bits = "".join(
        "1" if graph.exists_at(g1, t) and graph.exists_at(g2, t)
        and reference_connected(graph, cfg, g1, g2, t, spec) else "0"
        for t in interval.indices()
    )
    return StructuralPattern(StructScopeKind.PAIR_OVER_TIME,
                             presence_class=classify_presence(bits), presence_bits=bits)


def reference_pairs_aggregate(graph, cfg, members, interval, spec=None):
    refs = sorted(members)
    if len(refs) < 2:
        raise TgqError(EMPTY_SCOPE, "pair aggregation needs at least two members")
    counts: dict = {}
    for a, b in itertools.combinations(refs, 2):
        cls = reference_pair_over_time(graph, cfg, a, b, interval, spec).presence_class.value
        counts[cls] = counts.get(cls, 0) + 1
    return StructuralPattern(StructScopeKind.PAIRS_AGGREGATE,
                             class_frequencies=tuple(sorted(counts.items())))


def reference_first_error_time_major(graph, cfg, members, interval, spec):
    """The error a pass time by time meets first, taking at each t the
    pairs of the members alive there in order, or None."""
    for t in interval.indices():
        alive = [ref for ref in sorted(members) if graph.exists_at(ref, t)]
        for a, b in itertools.combinations(alive, 2):
            try:
                reference_connected(graph, cfg, a, b, t, spec)
            except TgqError as err:
                return (err.code, err.message, err.details)
    return None


def reference_search_pairs(graph, cfg, target, time_key=None, connection=None,
                           window_min_len=1):
    """The PAIRS branch of ``structural_search`` (a presence target)."""
    thr = cfg.similarity_threshold
    windows = time_windows(graph, time_key, window_min_len)
    pairs = list(itertools.combinations(graph.node_ids(), 2))
    check_budget(len(pairs) * len(windows), cfg, "structural search")
    matches = []
    for window in windows:
        for a, b in pairs:
            candidate = reference_pair_over_time(
                graph, cfg, node_ref(a), node_ref(b), window, connection)
            score, _ = match_score(target, candidate, cfg)
            if score >= thr:
                matches.append(Binding(window, f"node:{a}|node:{b}", candidate, score))
    matches.sort(key=lambda m: (-m.score, *m.sort_key()))
    return matches


def reference_snapshot_metrics(graph, members, t):
    node_ids = set()
    for m in members:
        if m.kind != ElemKind.NODE:
            raise TgqError(FAMILY_MISMATCH, "snapshot configuration is defined over node sets")
        node_ids.add(m.id)
    snap = graph.snapshot(t)
    alive = sorted(n for n in node_ids if snap.has_node(n))
    if not alive:
        raise TgqError(EMPTY_SCOPE, f"no member is alive at t={graph.label_of(t)}")
    adj = {n: {m for m in snap.neighbours(n) if m in node_ids and m != n} for n in alive}
    n = len(alive)
    m_count = sum(len(v) for v in adj.values()) // 2
    components = 0
    seen: set = set()
    for start in alive:
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            for v in adj[stack.pop()] - seen:
                seen.add(v)
                stack.append(v)
    triangles = sum(
        1 for a, b, c in itertools.combinations(alive, 3)
        if b in adj[a] and c in adj[a] and c in adj[b]
    )
    cliques4 = sum(
        1 for quad in itertools.combinations(alive, 4)
        if all(y in adj[x] for x, y in itertools.combinations(quad, 2))
    )
    return {
        "density": (2 * m_count / (n * (n - 1))) if n > 1 else 0.0,
        "components": float(components),
        "triangles": float(triangles),
        "mean_degree": 2 * m_count / n,
        "cliques4": float(cliques4),
    }


def reference_shortest_connection(graph, t, g1, g2, max_distance=None):
    """``relations.shortest_connection`` as a BFS over a deque that tests
    each node for a target when it leaves the queue."""
    sources = _member_nodes(graph, g1, t, "structural relations apply to nodes and graph objects")
    targets = set(_member_nodes(graph, g2, t,
                                "structural relations apply to nodes and graph objects"))
    if not sources or not targets:
        return None, None
    snap = graph.snapshot(t)
    seen = {n: None for n in sources}
    frontier = deque((n, 0) for n in sorted(sources))
    if g1 != g2 and set(sources) & targets:
        return 0, [sorted(set(sources) & targets)[0]]
    while frontier:
        node, dist = frontier.popleft()
        if node in targets and dist > 0:
            path = [node]
            while seen[path[-1]] is not None:
                path.append(seen[path[-1]])
            return dist, path[::-1]
        if max_distance is not None and dist >= max_distance:
            continue
        for nxt in snap.neighbours(node):
            if nxt not in seen:
                seen[nxt] = node
                frontier.append((nxt, dist + 1))
    if g1 == g2:
        return 0, sources[:1]
    return None, None


def reference_union_adjacency(graph, context, at):
    """The union graph of a point, or of every snapshot of a window, built afresh."""
    if at is not None:
        snap = graph.snapshot(at)
        return {n: set(snap.neighbours(n)) for n in snap.nodes}, set(snap.nodes)
    if context is None:
        context = graph.full_interval()
    adjacency: dict = {}
    alive: set = set()
    for t in context.indices():
        snap = graph.snapshot(t)
        alive.update(snap.nodes)
        for n in snap.nodes:
            adjacency.setdefault(n, set()).update(snap.neighbours(n))
    return adjacency, alive


def outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the code, message and details of its error."""
    try:
        return fn(*args, **kwargs)
    except TgqError as err:
        return (err.code, err.message, err.details)


# ---------------------------------------------------------------------------
# Graphs and connection specs
# ---------------------------------------------------------------------------


def extended_graph(seed: int):
    """A randsuite graph replayed from its tables, with about a third of its
    edges directed (some reversed), an edge attribute ``weight`` recorded at
    some alive points, a categorical edge attribute ``kind``, a self-loop on
    one node, and objects ``o`` (three nodes) and ``p`` (two nodes, one
    shared with ``o``)."""
    raw = random_graph(seed)
    rng = random.Random(1000 + seed)
    records = []
    for name, spans in raw.node_spans.items():
        for s, e in spans:
            # one record per point keeps every time label in the domain
            records += [{"type": "node", "id": name, "start": t, "end": t}
                        for t in range(s, e + 1)]
    names = sorted(raw.node_spans)
    loop_node = rng.choice(names)
    loop_span = raw.node_spans[loop_node][0]
    edges = list(raw.edge_rows) + [("loop", loop_node, loop_node) + loop_span]
    for edge_id, src, dst, start, end in edges:
        directed = rng.random() < 0.35
        if directed and rng.random() < 0.5:
            src, dst = dst, src
        records.append({"type": "edge", "id": edge_id, "src": src, "dst": dst,
                        "start": start, "end": end, "directed": directed})
        for t in range(start, end + 1):
            if rng.random() < 0.5:
                records.append({"type": "attr", "elem": f"edge:{edge_id}",
                                "name": "weight", "t": t, "value": float(rng.randint(0, 4))})
        records.append({"type": "attr", "elem": f"edge:{edge_id}", "name": "kind",
                        "t": start, "value": rng.choice(("road", "rail"))})
    for elem, attr, t, value in raw.attr_rows:
        records.append({"type": "attr", "elem": f"node:{elem}", "name": attr,
                        "t": t, "value": value})
    for name, members in raw.subsets.items():
        records.append({"type": "subset", "name": name,
                        "members": [f"node:{m}" for m in members]})
    records.append({"type": "object", "id": "o", "nodes": names[:3]})
    records.append({"type": "object", "id": "p", "nodes": names[2:4] or names[:1]})
    return load(json.dumps(r) for r in records)


WEIGHT_GT_1 = ("weight", ValueConstraint("gt", (1.0,)))
MODES = {"adjacent": ("adjacent", None), "path2": ("path", 2), "path": ("path", None)}
SPECS = {
    f"{mode}-{direction}-{'weight' if pred else 'all'}": ConnectionSpec(
        MODES[mode][0], MODES[mode][1], direction, *(WEIGHT_GT_1 if pred else (None, None)))
    for mode in MODES
    for direction in ("any", "out", "in")
    for pred in (False, True)
}
# A numeric test on a categorical attribute raises KIND_MISMATCH at the first
# edge with a value: both kernels must raise it in the same calls.
SPECS["path-any-kind"] = ConnectionSpec("path", None, "any", "kind",
                                        ValueConstraint("gt", (1.0,)))
CONFIGS = {"carry": Config(), "no-carry": Config(carry_forward_default=False)}
SEEDS = range(30)


@pytest.fixture(scope="module")
def graphs():
    return [extended_graph(seed) for seed in SEEDS]


def each_case(graphs):
    for graph in graphs:
        for cfg in CONFIGS.values():
            yield graph, cfg


def endpoints(graph):
    """Connection endpoints: two nodes, both objects, and a node with an
    object."""
    names = graph.node_ids()
    n0, n1 = node_ref(names[0]), node_ref(names[-1])
    o, p = object_ref("o"), object_ref("p")
    return [(n0, n1), (n1, n0), (o, p), (p, o), (n0, o), (o, n1)]


# ---------------------------------------------------------------------------
# Equality with the reference
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SPECS))
def test_find_connected_matches_reference(graphs, name):
    spec = SPECS[name]
    for graph, cfg in each_case(graphs):
        for g1 in (node_ref(graph.node_ids()[0]), node_ref(graph.node_ids()[-1]),
                   object_ref("o"), object_ref("p")):
            for t in [None] + list(range(graph.n_times)):
                assert outcome(find_connected, graph, cfg, g1, spec, t) == outcome(
                    reference_find_connected, graph, cfg, g1, spec, t), (g1, t)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_find_connected_pairs_matches_reference(graphs, name):
    spec = SPECS[name]
    for graph, cfg in each_case(graphs):
        for t in [None] + list(range(graph.n_times)):
            assert outcome(find_connected_pairs, graph, cfg, spec, t) == outcome(
                reference_find_connected_pairs, graph, cfg, spec, t), t


@pytest.mark.parametrize("name", sorted(SPECS))
def test_connection_times_and_presence_match_reference(graphs, name):
    # Besides the endpoints, an edge with its source node (FAMILY_MISMATCH
    # wherever both exist) and an object with itself.
    spec = SPECS[name]
    codes = set()
    for graph, cfg in each_case(graphs):
        full = graph.full_interval()
        edge = graph.edge_ids()[0]
        for g1, g2 in endpoints(graph) + [(edge_ref(edge), node_ref(graph.edges[edge].src)),
                                          (object_ref("o"), object_ref("o"))]:
            got = outcome(connection_times, graph, cfg, g1, g2, spec)
            assert got == outcome(reference_connection_times, graph, cfg, g1, g2, spec)
            codes.add(got[0] if isinstance(got, tuple) else None)
            for window in (full, TimeInterval(0, 0), TimeInterval(full.end // 2, full.end)):
                assert outcome(pair_over_time, graph, cfg, g1, g2, window, spec) == outcome(
                    reference_pair_over_time, graph, cfg, g1, g2, window, spec)
    assert FAMILY_MISMATCH in codes


@pytest.mark.parametrize("name", sorted(SPECS))
def test_pairs_aggregate_matches_reference(graphs, name):
    spec = SPECS[name]
    for graph, cfg in each_case(graphs):
        members = [node_ref(n) for n in graph.node_ids()] + [object_ref("o")]
        for window in (graph.full_interval(), TimeInterval(0, 0)):
            assert outcome(pairs_aggregate, graph, cfg, members, window, spec) == outcome(
                reference_pairs_aggregate, graph, cfg, members, window, spec)


# Presence search connects pairs by an edge in either direction.
@pytest.mark.parametrize("name", ["adjacent-any-all"])
def test_structural_search_pairs_matches_reference(graphs, name):
    spec = SPECS[name]
    cfg = Config(search_max_candidates=10**6)
    for i, graph in enumerate(graphs):
        for cls in (PresenceClass.APPEARING, PresenceClass.ALWAYS):
            target = PresenceLiteral(cls)
            # every window on a few graphs, the whole domain on all of them
            fixed = None if i < 3 else graph.full_interval()
            got = outcome(structural_search, graph, cfg, target, SearchSpace(), time_key=fixed)
            assert got == outcome(reference_search_pairs, graph, cfg, target, fixed, spec)


# Every presence class as a literal, and one full pattern whose bits differ
# from the candidates': only the class is compared.
PAIR_TARGETS = [PresenceLiteral(cls) for cls in PresenceClass] + [
    StructuralPattern(StructScopeKind.PAIR_OVER_TIME,
                      presence_class=PresenceClass.INTERMITTENT, presence_bits="101"),
]


@pytest.mark.parametrize("threshold", [None, 0.0, 1.0])
@pytest.mark.parametrize("name", ["adjacent-any-all"])
def test_structural_search_pairs_targets_and_thresholds(graphs, name, threshold):
    # NEVER, and a threshold of 0, report pairs that never connect as well.
    spec = SPECS[name]
    cfg = Config(search_max_candidates=10**6)
    if threshold is not None:
        cfg = cfg.replace(similarity_threshold=threshold)
    for i, graph in enumerate(graphs):
        fixed = None if i < 2 else graph.full_interval()
        for target in PAIR_TARGETS:
            got = outcome(structural_search, graph, cfg, target, SearchSpace(), time_key=fixed)
            assert got == outcome(reference_search_pairs, graph, cfg, target, fixed,
                                  spec), (i, target)


@pytest.mark.parametrize("min_len", [2, 3, 9])
def test_structural_search_pairs_free_windows_min_len(graphs, min_len):
    cfg = Config(search_max_candidates=10**6)
    for graph in graphs[:8]:
        for target in (PresenceLiteral(PresenceClass.APPEARING),
                       PresenceLiteral(PresenceClass.NEVER)):
            got = outcome(structural_search, graph, cfg, target,
                          SearchSpace(window_min_len=min_len))
            assert got == outcome(reference_search_pairs, graph, cfg, target, None,
                                  window_min_len=min_len)


def gaps(graph):
    """(node, window) for each node that dies and comes back: the window runs
    from its last point before the gap to its first point after it."""
    out = []
    for name in graph.node_ids():
        alive = [t for t in range(graph.n_times) if graph.exists_at(node_ref(name), t)]
        out += [(name, TimeInterval(s, e)) for s, e in zip(alive, alive[1:]) if e > s + 1]
    return out


def test_presence_across_a_death_matches_reference(graphs):
    cfg = Config(search_max_candidates=10**6)
    spec = SPECS["path-any-all"]
    broken = 0
    for graph in graphs:
        for name, window in gaps(graph):
            for other in graph.node_ids():
                if other == name:
                    continue
                pair = (node_ref(name), node_ref(other))
                got = pair_over_time(graph, cfg, *pair, window, spec)
                assert got == reference_pair_over_time(graph, cfg, *pair, window, spec)
                broken += got.presence_bits[0] == got.presence_bits[-1] == "1"
            members = [node_ref(n) for n in graph.node_ids()] + [object_ref("o")]
            assert outcome(pairs_aggregate, graph, cfg, members, window, spec) == outcome(
                reference_pairs_aggregate, graph, cfg, members, window, spec)
            for target in (PresenceLiteral(PresenceClass.INTERMITTENT),
                           PresenceLiteral(PresenceClass.NEVER)):
                got = outcome(structural_search, graph, cfg, target, SearchSpace(),
                              time_key=window)
                assert got == outcome(reference_search_pairs, graph, cfg, target, window)
    # some pair connects on both sides of a gap, so its bits are 1...0...1
    assert broken > 0


def lifetime_edges(graph):
    """One edge ref per distinct set of time points an edge is alive at."""
    by_life: dict = {}
    for e in graph.edge_ids():
        ref = edge_ref(e)
        by_life.setdefault(tuple(t for t in range(graph.n_times) if graph.exists_at(ref, t)), ref)
    return list(by_life.values())


def test_pairs_aggregate_mixed_kinds_errors_match_reference(graphs):
    # An edge member raises FAMILY_MISMATCH once it exists beside another
    # member; before that the categorical predicate may raise KIND_MISMATCH.
    # With two or three edges of different lifetimes, the pair that fails
    # first need not be met first by a pass time by time: count those cases.
    seen, reordered = set(), 0
    for graph, cfg in each_case(graphs):
        full = graph.full_interval()
        nodes = [node_ref(n) for n in graph.node_ids()[:4]]
        lives = lifetime_edges(graph)
        groups = [[edge_ref(e)] for e in graph.edge_ids()[:3]] + [lives[:2], lives[-3:]]
        for edges in groups:
            for members in (nodes + edges + [object_ref("o")], edges + nodes[:1]):
                for spec in (SPECS["path-any-kind"], SPECS["adjacent-any-all"]):
                    for window in (full, TimeInterval(0, 0), TimeInterval(full.end, full.end)):
                        got = outcome(pairs_aggregate, graph, cfg, members, window, spec)
                        assert got == outcome(reference_pairs_aggregate, graph, cfg, members,
                                              window, spec), (members, window)
                        seen.add(got[0] if isinstance(got, tuple) else None)
                        reordered += isinstance(got, tuple) and got != \
                            reference_first_error_time_major(graph, cfg, members, window, spec)
    assert {FAMILY_MISMATCH, KIND_MISMATCH, None} <= seen
    assert reordered > 0


def test_pairs_aggregate_repeated_member_matches_reference(graphs):
    for graph, cfg in each_case(graphs):
        names = graph.node_ids()
        members = [node_ref(names[0]), node_ref(names[-1]), node_ref(names[0]),
                   object_ref("o"), object_ref("o")]
        for spec in (SPECS["adjacent-any-all"], SPECS["path-any-all"]):
            assert outcome(pairs_aggregate, graph, cfg, members, graph.full_interval(),
                           spec) == outcome(reference_pairs_aggregate, graph, cfg, members,
                                            graph.full_interval(), spec)


def test_pairs_aggregate_over_edge_members():
    # Edges never alive together give no pair to connect, so their one pair
    # is NEVER, though each alone is alive beside no other member. Edges
    # alive together raise.
    def graph(e1_end):
        return load(json.dumps(r) for r in [
            *({"type": "node", "id": n, "start": 0, "end": 3} for n in "ab"),
            {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": e1_end},
            {"type": "edge", "id": "e2", "src": "a", "dst": "b", "start": 2, "end": 3},
        ])
    members = [edge_ref("e1"), edge_ref("e2")]
    apart, together = graph(1), graph(2)
    got = pairs_aggregate(apart, Config(), members, apart.full_interval())
    assert got.class_frequencies == (("NEVER", 1),)
    with pytest.raises(TgqError) as err:
        pairs_aggregate(together, Config(), members, together.full_interval())
    assert err.value.code == FAMILY_MISMATCH
    assert "edge:e1" in err.value.message


def test_pairs_aggregate_rejects_a_time_past_the_domain():
    # labels 0, 2 and 3 are indices 0-2: index 3 is rejected as a snapshot
    # there is, before any member is read
    graph = load(json.dumps(r) for r in [
        *({"type": "node", "id": n, "start": 0, "end": 3} for n in "ab"),
        {"type": "edge", "id": "e", "src": "a", "dst": "b", "start": 2, "end": 3},
    ])
    assert graph.n_times == 3
    for call in (lambda: graph.snapshot(3),
                 lambda: pairs_aggregate(graph, Config(), [node_ref("a"), node_ref("b")],
                                         TimeInterval(0, 3))):
        with pytest.raises(TgqError) as err:
            call()
        assert (err.value.code, err.value.message) == (
            VALIDATION_ERROR, "time index 3 outside the domain")


def test_pairs_aggregate_raises_the_first_error_in_pair_order():
    # e1 (alive at 5) meets e3 later than e2 (alive at 3) does, but the pair
    # (e1, e3) comes first: the pair-by-pair scan names edge:e1, where a pass
    # time by time would meet (e2, e3) first and name edge:e2.
    graph = load(json.dumps(r) for r in [
        # one record per point keeps every label 0..9 in the time domain
        *({"type": "node", "id": n, "start": t, "end": t} for n in "ab" for t in range(10)),
        *({"type": "edge", "id": e, "src": "a", "dst": "b", "start": s, "end": t}
          for e, s, t in (("e1", 5, 5), ("e2", 3, 3), ("e3", 0, 9))),
    ])
    members = [edge_ref("e1"), edge_ref("e2"), edge_ref("e3")]
    assert graph.full_interval() == TimeInterval(0, 9)
    with pytest.raises(TgqError) as err:
        pairs_aggregate(graph, Config(), members, TimeInterval(0, 9))
    assert err.value.code == FAMILY_MISMATCH
    assert "edge:e1" in err.value.message


def test_no_read_where_one_member_is_alive():
    # At 0 and 1 only a is alive of the two members, beside an edge a-c whose
    # categorical kind fails the numeric predicate of "path-any-kind": no
    # table is built there, so nothing raises. At 2 and 3 the one edge has
    # no kind, so it does not qualify and the pair never connects.
    graph = load(json.dumps(r) for r in [
        {"type": "node", "id": "a", "start": 0, "end": 3},
        {"type": "node", "id": "b", "start": 2, "end": 3},
        {"type": "node", "id": "c", "start": 0, "end": 1},
        {"type": "edge", "id": "e1", "src": "a", "dst": "c", "start": 0, "end": 1},
        {"type": "edge", "id": "e2", "src": "a", "dst": "b", "start": 2, "end": 3},
        {"type": "attr", "elem": "edge:e1", "name": "kind", "t": 0, "value": "road"},
    ])
    spec, cfg, window = SPECS["path-any-kind"], Config(), TimeInterval(0, 3)
    a, b = node_ref("a"), node_ref("b")
    with pytest.raises(TgqError) as err:  # the table at 0 does raise
        find_connected_pairs(graph, cfg, spec, 0)
    assert err.value.code == KIND_MISMATCH
    assert pairs_aggregate(graph, cfg, [a, b], window, spec).class_frequencies == (("NEVER", 1),)
    assert pair_over_time(graph, cfg, a, b, window, spec).presence_bits == "0000"
    assert connection_times(graph, cfg, a, b, spec) == []


def parallel_graph():
    """Nodes a, b, c, d alive at 0..3. a→b and b→a (directed) and a–b
    (undirected) are all alive at 1 and 2; only a→b lives at 0 and only
    b→a at 3. c has a self-loop and d no edge. ``weight`` passes
    ``WEIGHT_GT_1`` on a different edge at each of 0..2 and is missing at 3."""
    records = [{"type": "node", "id": n, "start": 0, "end": 3} for n in "abcd"]
    for edge_id, src, dst, directed, start, end, heavy in [
            ("ab", "a", "b", True, 0, 2, (0, 2)), ("ba", "b", "a", True, 1, 3, (1,)),
            ("u", "a", "b", False, 1, 2, (2,)), ("loop", "c", "c", True, 0, 3, (0, 1))]:
        records.append({"type": "edge", "id": edge_id, "src": src, "dst": dst,
                        "start": start, "end": end, "directed": directed})
        records += [{"type": "attr", "elem": f"edge:{edge_id}", "name": "weight", "t": t,
                     "value": 2.0 if t in heavy else 0.0} for t in range(start, min(end, 2) + 1)]
    return load(json.dumps(r) for r in records)


@pytest.mark.parametrize("name", sorted(n for n in SPECS if not n.endswith("kind")))
def test_parallel_edges_match_reference(name):
    graph, spec, cfg = parallel_graph(), SPECS[name], Config(carry_forward_default=False)
    nodes = [node_ref(n) for n in graph.node_ids()]
    for g1 in nodes:
        for t in [None] + list(range(graph.n_times)):
            assert find_connected(graph, cfg, g1, spec, t) == reference_find_connected(
                graph, cfg, g1, spec, t), (g1, t)
        for g2 in nodes:
            assert connection_times(graph, cfg, g1, g2, spec) == reference_connection_times(
                graph, cfg, g1, g2, spec), (g1, g2)
    for t in [None] + list(range(graph.n_times)):
        assert find_connected_pairs(graph, cfg, spec, t) == reference_find_connected_pairs(
            graph, cfg, spec, t), t


def test_parallel_edges_follow_direction_and_predicate():
    graph, cfg = parallel_graph(), Config(carry_forward_default=False)

    def reached(name, t):
        return [str(g) for g, _ in find_connected(graph, cfg, node_ref("a"), SPECS[name], t)]
    assert reached("adjacent-out-all", 0) == ["node:b"]
    assert reached("adjacent-in-all", 0) == []
    assert reached("adjacent-in-all", 3) == ["node:b"]
    assert reached("adjacent-in-weight", 1) == ["node:b"]  # only b→a is heavy at 1
    assert reached("adjacent-out-weight", 1) == []
    assert reached("adjacent-in-weight", 2) == ["node:b"]  # the undirected a–b
    assert reached("path-any-weight", 3) == []  # no weight at 3
    assert connection_times(graph, cfg, node_ref("c"), node_ref("c"),
                            SPECS["adjacent-any-weight"]) == [0, 1]
    assert find_connected_pairs(graph, cfg, SPECS["adjacent-out-all"], 1) == [
        (node_ref("a"), node_ref("b"), 1), (node_ref("b"), node_ref("a"), 1)]


def test_search_builds_bits_only_for_connecting_pairs(monkeypatch):
    # 40 nodes, one edge, time points 0, 3 and 5: one bitstring for the
    # NEVER pattern and one for the pair that connects.
    records = [{"type": "node", "id": f"v{i:02d}", "start": 0, "end": 5} for i in range(40)]
    records.append({"type": "edge", "id": "e", "src": "v03", "dst": "v07",
                    "start": 3, "end": 5})
    graph = load(json.dumps(r) for r in records)
    calls = []
    real = structure.classify_presence
    monkeypatch.setattr(structure, "classify_presence",
                        lambda bits: calls.append(bits) or real(bits))
    got = structural_search(graph, Config(), PresenceLiteral(PresenceClass.APPEARING),
                            SearchSpace(), time_key=graph.full_interval())
    assert [(m.ref_name, m.payload.presence_bits) for m in got] == [("node:v03|node:v07", "011")]
    assert sorted(calls) == ["000", "011"]


def test_spec_default_is_adjacent_any(graphs):
    cfg = Config()
    for graph in graphs:
        o, p = object_ref("o"), object_ref("p")
        assert pair_over_time(graph, cfg, o, p, graph.full_interval()) == \
            reference_pair_over_time(graph, cfg, o, p, graph.full_interval())


def test_kind_predicate_raises(graphs):
    # The categorical predicate does raise somewhere, so the error paths above
    # are exercised and not only the answers.
    spec = SPECS["path-any-kind"]
    codes = {
        outcome(find_connected_pairs, graph, Config(), spec)[0]
        for graph in graphs
    }
    assert "KIND_MISMATCH" in codes


def test_shortest_connection_matches_reference(graphs):
    outcomes = set()
    for graph in graphs:
        pairs = endpoints(graph) + [(node_ref(graph.node_ids()[0]),) * 2, (object_ref("o"),) * 2,
                                    (object_ref("o"), edge_ref(graph.edge_ids()[0]))]
        for t in range(graph.n_times):
            for g1, g2 in pairs:
                for bound in (None, 0, 1, 2):
                    got = outcome(shortest_connection, graph, t, g1, g2, bound)
                    assert got == outcome(reference_shortest_connection, graph, t, g1, g2,
                                          bound), (t, g1, g2, bound)
                    outcomes.add(got[0])  # a distance, None, or an error code
    assert {None, 0, 1, 2, 3, "FAMILY_MISMATCH"} <= outcomes


def reference_find_connection(graph, cfg, g1, g2, t):
    """``structure.find_connection`` as two separate kernel calls, each
    working out both elements' member nodes itself."""
    for g in (g1, g2):
        if not graph.exists_at(g, t):
            raise TgqError(ABSENT_ELEMENT, f"{g} does not exist at t={graph.label_of(t)}")
    adjacent, edges = are_adjacent(graph, t, g1, g2)
    dist, path = shortest_connection(graph, t, g1, g2)
    return structure.ConnectionReport(adjacent, dist, tuple(path) if path else None,
                                      tuple(edges))


def test_find_connection_matches_separate_kernel_calls(graphs):
    """Objects "o" and "p" share a node; members come and go over time."""
    outcomes = set()
    for graph in graphs:
        n0 = node_ref(graph.node_ids()[0])
        pairs = endpoints(graph) + [(n0, n0), (object_ref("o"),) * 2,
                                    (object_ref("o"), edge_ref(graph.edge_ids()[0]))]
        for t in range(graph.n_times):
            for g1, g2 in pairs:
                got = outcome(structure.find_connection, graph, Config(), g1, g2, t)
                assert got == outcome(reference_find_connection, graph, Config(), g1, g2, t), (
                    t, g1, g2)
                outcomes.add(got[0] if isinstance(got, tuple) else (got.adjacent, got.distance))
    assert {ABSENT_ELEMENT, FAMILY_MISMATCH, (True, 1), (False, 0), (False, None)} <= outcomes


def test_snapshot_metrics_match_reference(graphs):
    for graph in graphs:
        groups = [[node_ref(n) for n in graph.node_ids()], [object_ref("o")],
                  graph.subset("A").members, graph.subset("B").members]
        for members in groups:
            for t in range(graph.n_times):
                assert outcome(snapshot_metrics, graph, members, t) == outcome(
                    reference_snapshot_metrics, graph, members, t)


def dense_graph(seed: int):
    """Up to 9 nodes alive throughout, each pair joined with probability
    0.7 at random points, plus a self-loop: many triangles and 4-cliques."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(rng.randint(4, 9))]
    records = [{"type": "node", "id": n, "start": 0, "end": 3} for n in names]
    for i, (a, b) in enumerate(itertools.combinations(names, 2)):
        if rng.random() < 0.7:
            start = rng.randint(0, 3)
            records.append({"type": "edge", "id": f"e{i}", "src": a, "dst": b,
                            "start": start, "end": rng.randint(start, 3),
                            "directed": rng.random() < 0.3})
    records.append({"type": "edge", "id": "loop", "src": names[0], "dst": names[0],
                    "start": 0, "end": 3})
    return load(json.dumps(r) for r in records)


def test_clique_counts_match_subsets_on_dense_graphs():
    found = 0
    for seed in range(40):
        graph = dense_graph(seed)
        members = [node_ref(n) for n in graph.node_ids()]
        for t in range(graph.n_times):
            got = snapshot_metrics(graph, members, t)
            assert got == reference_snapshot_metrics(graph, members, t)
            found += got["cliques4"] > 0
    assert found > 0


# ---------------------------------------------------------------------------
# Budget errors
# ---------------------------------------------------------------------------


def test_cap_sweep_errors_identical(graphs):
    # Caps at 1 and on each side of every budget count the calls check.
    spec = SPECS["path-any-weight"]
    target = PresenceLiteral(PresenceClass.APPEARING)
    exceeded = 0
    for graph in graphs:
        n = len(graph.node_ids())
        pairs = n * max(1, n - 1) // 2
        counts = (graph.n_times * pairs, pairs, n * (n - 1) // 2)
        for cap in sorted({1} | {c + d for c in counts for d in (-1, 0, 1) if c + d > 0}):
            cfg = Config(search_max_candidates=cap)
            for t in (None, 0):
                got = outcome(find_connected_pairs, graph, cfg, spec, t)
                assert got == outcome(reference_find_connected_pairs, graph, cfg, spec, t)
                exceeded += isinstance(got, tuple) and got[0] == SEARCH_SPACE_EXCEEDED
            got = outcome(structural_search, graph, cfg, target, SearchSpace(),
                          time_key=graph.full_interval())
            assert got == outcome(reference_search_pairs, graph, cfg, target,
                                  graph.full_interval())
            exceeded += isinstance(got, tuple) and got[0] == SEARCH_SPACE_EXCEEDED
    assert exceeded > 0


def test_grown_window_unions_match_reference(graphs):
    for graph in graphs:
        union = None
        for window in time_windows(graph):
            union = union_graph(graph, window, union)
            assert union == (window, *reference_union_adjacency(graph, window, None))
        for t in time_points(graph):
            assert union_graph(graph, TimeInterval(t, t))[1:] == reference_union_adjacency(
                graph, None, t)


@pytest.mark.parametrize("family, centre", [(SubsetFamily.CONNECTED_COMPONENTS, None),
                                            (SubsetFamily.KHOP, None), (SubsetFamily.KHOP, "n0")])
def test_window_scopes_match_reference_unions(graphs, family, centre):
    cfg = Config(search_max_candidates=10 ** 6)
    for graph in graphs:
        for min_len in (1, 2):
            space = SearchSpace(subset_family=family, khop_center=centre, window_min_len=min_len)
            keys = time_windows(graph, None, min_len)
            got = [(grp, key) for grp, key, _ in scopes(
                graph, cfg, "search", space, lambda members, key: None, keys)]
            want = [(grp, key) for key in keys for grp in group_candidates(
                graph, space, union=(key, *reference_union_adjacency(graph, key, None)))]
            assert got == want
