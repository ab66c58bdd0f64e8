import json

import pytest

from tgq.config import Config
from tgq.errors import ABSENT_ELEMENT, MISSING_VALUE, TgqError
from tgq.graph import load


def jl(records):
    """Records -> JSON-lines list."""
    return [json.dumps(r) for r in records]


def raising_value(graph, t, ref, attr, cfg):
    """Oracle read through the raising ``value_at_info``: the value, or None where
    it raises ABSENT_ELEMENT or MISSING_VALUE."""
    try:
        return graph.value_at_info(t, ref, attr, cfg)[0]
    except TgqError as err:
        if err.code in (ABSENT_ELEMENT, MISSING_VALUE):
            return None
        raise


@pytest.fixture
def cfg():
    return Config()


@pytest.fixture
def mini_graph():
    """Two nodes over three time points; node a has w recorded at t=0 and
    t=2, node b at t=1 only. Exercises carry-forward."""
    return load(jl([
        {"type": "node", "id": "a", "start": 0, "end": 2},
        {"type": "node", "id": "b", "start": 0, "end": 2},
        {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 2},
        {"type": "attr", "elem": "node:a", "name": "w", "t": 0, "value": 1.0},
        {"type": "attr", "elem": "node:a", "name": "w", "t": 2, "value": 3.0},
        {"type": "attr", "elem": "node:b", "name": "w", "t": 1, "value": 2.0},
    ]))


@pytest.fixture
def chain_graph():
    """Path a - b - c alive throughout, used for BFS-style checks."""
    return load(jl([
        {"type": "node", "id": "a", "start": 0, "end": 4},
        {"type": "node", "id": "b", "start": 0, "end": 4},
        {"type": "node", "id": "c", "start": 0, "end": 4},
        {"type": "node", "id": "z", "start": 0, "end": 4},
        {"type": "edge", "id": "e1", "src": "a", "dst": "b", "start": 0, "end": 4},
        {"type": "edge", "id": "e2", "src": "b", "dst": "c", "start": 1, "end": 3},
    ]))
