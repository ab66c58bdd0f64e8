"""Seeded random temporal graphs for the oracle-equivalence suite.

Each graph keeps its raw generation tables alongside the loaded store so
oracles can work from the records rather than through the engine.
"""

import json
import random
from dataclasses import dataclass

from tgq.graph import load


@dataclass
class RawGraph:
    graph: object
    node_spans: dict  # id -> list[(start, end)] in label space (= index space)
    edge_rows: list  # (edge_id, src, dst, start, end)
    attr_rows: list  # (elem_id, attr, t, value)
    subsets: dict  # name -> list of node ids
    n_times: int
    records: list  # the generated records, in load order


def random_graph(seed: int) -> RawGraph:
    rng = random.Random(seed)
    n = rng.randint(3, 12)
    t_max = rng.randint(2, 8)  # time labels 0..t_max-1, all present via anchor
    names = [f"n{i}" for i in range(n)]
    records = []

    # an anchor node pins every timestamp into the domain, so time labels
    # and domain indices coincide for the oracles
    node_spans = {names[0]: [(0, t_max - 1)]}
    for t in range(t_max):
        records.append({"type": "node", "id": names[0], "start": t, "end": t})
    for name in names[1:]:
        spans = []
        if rng.random() < 0.25 and t_max >= 4:
            first_end = rng.randint(0, t_max // 2 - 1)
            second_start = rng.randint(first_end + 2, t_max - 1)
            spans = [(0, first_end), (second_start, t_max - 1)]
        else:
            start = rng.randint(0, t_max - 1)
            end = rng.randint(start, t_max - 1)
            spans = [(start, end)]
        node_spans[name] = spans
        for s, e in spans:
            records.append({"type": "node", "id": name, "start": s, "end": e})

    def alive(name, t):
        return any(s <= t <= e for s, e in node_spans[name])

    edge_rows = []
    eid = 0
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() > 0.35:
                continue
            shared = [t for t in range(t_max) if alive(names[i], t) and alive(names[j], t)]
            if not shared:
                continue
            start = rng.choice(shared)
            run = [start]
            t = start + 1
            while t in shared and rng.random() < 0.7:
                run.append(t)
                t += 1
            # the run must be contiguous in the shared range
            end = run[-1]
            if any(u not in shared for u in range(start, end + 1)):
                continue
            edge_id = f"e{eid}"
            eid += 1
            edge_rows.append((edge_id, names[i], names[j], start, end))
            records.append({"type": "edge", "id": edge_id, "src": names[i],
                            "dst": names[j], "start": start, "end": end})

    attr_rows = []
    for name in names:
        for attr in ("w", "u"):
            for t in range(t_max):
                if alive(name, t) and rng.random() < 0.6:
                    value = float(rng.randint(0, 6))
                    attr_rows.append((name, attr, t, value))
                    records.append({"type": "attr", "elem": f"node:{name}",
                                    "name": attr, "t": t, "value": value})

    subsets = {}
    for sname in ("A", "B"):
        size = rng.randint(1, max(1, n // 2))
        members = sorted(rng.sample(names, size))
        subsets[sname] = members
        records.append({"type": "subset", "name": sname,
                        "members": [f"node:{m}" for m in members]})

    graph = load(json.dumps(r) for r in records)
    return RawGraph(graph, node_spans, edge_rows, attr_rows, subsets, t_max, records)
