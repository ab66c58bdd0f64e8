"""Answers computed from the generator's own data, without tgq.

``agrees(op, data, bindings)`` compares tgq's bindings for an op with the
answer worked out here. Query shapes without an oracle here always agree;
they are checked against recorded digests and for repeatability instead.
"""

from __future__ import annotations


def _node(n: str) -> str:
    return f"node:{n}"


def _lookup(op, d):
    a = op.args
    return [{"t": a["t"], "element": _node(a["node"]), "attr": "w",
             "value": d.value(a["node"], a["t"]), "aggregated": False}]


def _find(d, x, times, nodes):
    rows = []
    for t in times:
        for n in sorted(nodes):
            if d.alive(n, t) and d.value(n, t) > x:
                rows.append({"t": t, "element": _node(n), "value": d.value(n, t)})
    return rows


def _find_g_at_t(op, d):
    return _find(d, op.args["x"], [op.args["t"]], d.lifetimes)


def _find_t_of_node(op, d):
    return _find(d, op.args["x"], range(d.times), [op.args["node"]])


def _find_t_g(op, d):
    return _find(d, op.args["x"], range(d.times), d.lifetimes)


def _seek_value_fixed(op, d):
    a = op.args
    lhs = d.value(a["node"], a["t"])
    found = {
        n: d.value(n, a["t"]) for n in sorted(d.lifetimes)
        if d.alive(n, a["t"]) and abs(d.value(n, a["t"]) - lhs) <= a["within"]
    }
    return [
        {"lhs": {"t": a["t"], "ref": _node(a["node"]), "found": lhs},
         "rhs": {"t": a["t"], "ref": _node(n), "found": v},
         "relation": {"relation": "within"}}
        for n, v in found.items()
    ]


def _seek_eq_all_pairs(op, d):
    t = op.args["t"]
    alive = sorted(n for n in d.lifetimes if d.alive(n, t))
    rows = []
    for i, a in enumerate(alive):
        for b in alive[i + 1:]:
            if d.value(a, t) == d.value(b, t):
                rows.append({"lhs": {"t": t, "ref": _node(a), "found": d.value(a, t)},
                             "rhs": {"t": t, "ref": _node(b), "found": d.value(b, t)},
                             "relation": {"relation": "eq"}})
    return rows


def _check_connected(op, d, rows):
    """CONNECTED reports one shortest path; any shortest path is right."""
    a, b, t = op.args["a"], op.args["b"], op.args["t"]
    dist = d.distances(a, t).get(b)
    edges = sorted(
        eid for eid, src, dst in d.alive_edges(t) if {src, dst} == {a, b}
    )
    if len(rows) != 1:
        return False
    row = rows[0]
    want = {"t": t, "connected": dist is not None, "adjacent": bool(edges),
            "distance": dist, "edges": edges}
    if {k: row.get(k) for k in want} != want or set(row) != set(want) | {"path"}:
        return False
    path = row["path"]
    if dist is None:
        return path is None
    adj = d.adjacency(t)
    return (
        len(path) == dist + 1 and path[0] == a and path[-1] == b
        and all(v in adj[u] for u, v in zip(path, path[1:]))
    )


def _neighbors_path2(op, d):
    node, t = op.args["node"], op.args["t"]
    dist = d.distances(node, t, limit=2)
    return [{"element": _node(n), "t": t} for n in sorted(dist) if dist[n] > 0]


def _neighbors_adjacent_all_t(op, d):
    node = op.args["node"]
    return [
        {"element": _node(n), "t": t}
        for t in range(d.times) if d.alive(node, t)
        for n in sorted(d.adjacency(t)[node])
    ]


def _neighbors_weight(op, d):
    node, t, x = op.args["node"], op.args["t"], op.args["x"]
    found = set()
    for eid, src, dst in d.alive_edges(t):
        if node in (src, dst) and d.edge_weight(eid, t) > x:
            found.add(dst if src == node else src)
    return [{"element": _node(n), "t": t} for n in sorted(found)]


def _times_path3(op, d):
    a, b = op.args["a"], op.args["b"]
    return [
        {"t": t} for t in range(d.times)
        if d.alive(a, t) and d.alive(b, t) and 0 < d.distances(a, t, limit=3).get(b, 0)
    ]


def _pairs(op, d):
    t, limit = op.args["t"], op.args["limit"]
    alive = sorted(d.adjacency(t))
    rows = []
    for i, a in enumerate(alive):
        dist = d.distances(a, t, limit=limit)
        for b in alive[i + 1:]:
            if b in dist:
                rows.append({"g1": _node(a), "g2": _node(b), "t": t})
    return rows


_EXPECTED = {
    "lookup": _lookup,
    "find_g_at_t": _find_g_at_t,
    "find_t_of_node": _find_t_of_node,
    "find_t_g": _find_t_g,
    "seek_value_fixed": _seek_value_fixed,
    "seek_eq_all_pairs": _seek_eq_all_pairs,
    "neighbors_path2": _neighbors_path2,
    "neighbors_adjacent_all_t": _neighbors_adjacent_all_t,
    "neighbors_weight": _neighbors_weight,
    "times_path3": _times_path3,
    "pairs_adjacent": _pairs,
    "pairs_path2": _pairs,
}


def agrees(op, data, bindings) -> bool:
    """Whether ``bindings`` match the oracle; True for shapes without one."""
    if op.shape == "connected":
        return _check_connected(op, data, bindings)
    oracle = _EXPECTED.get(op.shape)
    return oracle is None or oracle(op, data) == bindings
