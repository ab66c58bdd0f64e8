"""Test helpers over a loaded graph that nothing in ``src/`` needs.

``dump`` serialises a graph back to canonical JSON lines, so that ``load``
of the dump reproduces an equal graph. ``same_graph`` is that equality:
the time domain, every element, object, subset, attribute record and
external series. ``TemporalGraph`` itself compares by identity.
"""

import json


def same_graph(a, b) -> bool:
    return (
        a.time_labels == b.time_labels
        and a.nodes == b.nodes
        and a.edges == b.edges
        and a.objects == b.objects
        and a.subsets == b.subsets
        and a.attrs == b.attrs
        and a.attr_kinds == b.attr_kinds
        and a.external_series == b.external_series
    )


def dump(graph) -> str:
    lines = []
    for ident in graph.node_ids():
        for s, e in graph.nodes[ident]:
            lines.append({"type": "node", "id": ident,
                          "start": graph.label_of(s), "end": graph.label_of(e)})
    for ident in graph.edge_ids():
        e = graph.edges[ident]
        for s, t in e.intervals:
            lines.append({"type": "edge", "id": ident, "src": e.src, "dst": e.dst,
                          "directed": e.directed,
                          "start": graph.label_of(s), "end": graph.label_of(t)})
    for ident in graph.object_ids():
        o = graph.objects[ident]
        lines.append({"type": "object", "id": ident,
                      "nodes": sorted(o.nodes), "edges": sorted(o.edges)})
    for name in sorted(graph.subsets):
        lines.append({"type": "subset", "name": name,
                      "members": [str(m) for m in graph.subsets[name].members]})
    for (kind, ident, attr) in sorted(graph.attrs):
        for t, value in graph.attrs[(kind, ident, attr)]:
            lines.append({"type": "attr", "elem": f"{kind}:{ident}", "name": attr,
                          "t": graph.label_of(t), "value": value})
    for name in sorted(graph.external_series):
        for t in sorted(graph.external_series[name]):
            lines.append({"type": "series", "name": name,
                          "t": graph.label_of(t), "value": graph.external_series[name][t]})
    return "\n".join(json.dumps(rec, sort_keys=True) for rec in lines) + ("\n" if lines else "")
