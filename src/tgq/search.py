"""Candidate enumeration for search-style tasks.

Free graph references are never quantified over all 2^N subsets; they range
over declared families (single elements, named subsets, connected
components, k-hop balls), and free time references over single points or
contiguous windows. Enumeration is capped so a runaway search fails fast
instead of hanging.

``scopes`` enumerates (group, time key) scopes: distribution and aspectual
search, the relation-seeking sides of those patterns and of snapshot
configurations, and structural search over node sets all go through it.
Two enumerations do not, because each skips candidates ``scopes`` would
characterise, though the cap still counts them:

- Trend windows (``tasks._scopes``) range over single elements. Free
  windows are listed from each element's cached step-run index
  (``patterns.step_runs``), only those whose shape can match. One fixed
  window over every node or edge classifies only the elements that the
  per-start index of their step runs (``patterns.start_index``, cached by
  ``TemporalGraph.family_index``) cannot rule out.
- Presence pairs (``structure.structural_search``) follow each window's
  connected-pair sets, so that the pairs that never connect are scored
  once per window.

``bfs`` is the one breadth-first search: components, k-hop balls, path
connection, shortest connections and component counts all run on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .config import Config
from .errors import EMPTY_SCOPE, SEARCH_SPACE_EXCEEDED, TgqError, VALIDATION_ERROR
from .graph import ElemKind, TemporalGraph, TimeInterval, node_ref


class SubsetFamily(str, Enum):
    EACH_NODE = "EACH_NODE"
    EACH_EDGE = "EACH_EDGE"
    NAMED_SUBSETS = "SUBSETS"
    CONNECTED_COMPONENTS = "COMPONENTS"
    KHOP = "KHOP"


@dataclass(frozen=True)
class SearchSpace:
    subset_family: SubsetFamily = SubsetFamily.EACH_NODE
    khop_k: int = 1
    khop_center: Optional[str] = None  # node id; None enumerates every centre
    window_min_len: int = 1

    def __post_init__(self):
        if self.khop_k < 1:
            raise TgqError(VALIDATION_ERROR, "k-hop radius must be >= 1")
        if self.window_min_len < 1:
            raise TgqError(VALIDATION_ERROR, "window length must be >= 1")


@dataclass(frozen=True)
class GroupCandidate:
    """A candidate set of elements with a stable name for reporting."""

    name: str
    members: tuple  # tuple[GraphElementRef, ...], sorted


def check_budget(count: int, cfg: Config, what: str) -> None:
    if count > cfg.search_max_candidates:
        raise TgqError(
            SEARCH_SPACE_EXCEEDED,
            f"{what}: {count} candidates exceed the cap of {cfg.search_max_candidates}",
            count=count,
        )


def element_candidates(graph: TemporalGraph, family: SubsetFamily) -> list:
    """Single-element candidates for element-shaped free references."""
    if family == SubsetFamily.EACH_NODE:
        return graph.all_refs((ElemKind.NODE,))
    if family == SubsetFamily.EACH_EDGE:
        return graph.all_refs((ElemKind.EDGE,))
    raise TgqError(
        VALIDATION_ERROR,
        f"family {family.value} does not enumerate single elements",
    )


def group_candidates(
    graph: TemporalGraph,
    space: SearchSpace,
    context: Optional[TimeInterval] = None,
    at: Optional[int] = None,
    union: Optional[tuple] = None,
) -> list:
    """Element-set candidates for subset-shaped free references.

    Components and k-hop balls are structural, so they need a time context:
    a single point, or an interval whose union graph (an element counts if
    alive anywhere in it) defines connectivity. ``union``, if given, is
    that graph as ``union_graph`` built it.
    """
    fam = space.subset_family
    if fam == SubsetFamily.NAMED_SUBSETS:
        return [
            GroupCandidate(f"subset:{name}", graph.subsets[name].members)
            for name in sorted(graph.subsets)
        ]
    if fam in (SubsetFamily.EACH_NODE, SubsetFamily.EACH_EDGE):
        return [
            GroupCandidate(str(ref), (ref,))
            for ref in element_candidates(graph, fam)
        ]
    if union is None:
        window = TimeInterval(at, at) if at is not None else context or graph.full_interval()
        union = union_graph(graph, window)
    _, adjacency, alive = union
    if fam == SubsetFamily.CONNECTED_COMPONENTS:
        out = []
        seen: set = set()
        for start in sorted(alive):
            if start in seen:
                continue
            comp = bfs(adjacency, (start,))
            seen.update(comp)
            members = tuple(node_ref(n) for n in sorted(comp))
            out.append(GroupCandidate(f"component:{min(comp)}", members))
        return out
    # KHOP
    centres = [space.khop_center] if space.khop_center else sorted(alive)
    out = []
    for centre in centres:
        if centre not in alive:
            continue
        ball = bfs(adjacency, (centre,), space.khop_k)
        members = tuple(node_ref(n) for n in sorted(ball))
        out.append(GroupCandidate(f"khop:{centre}", members))
    return out


def scopes(graph: TemporalGraph, cfg: Config, what: str, space: SearchSpace,
           characterize, keys: list, ref_key: Optional[GroupCandidate] = None):
    """``(group, key, characterize(group.members, key))`` for every candidate
    group (only ``ref_key`` when it is fixed) at every time key, a point or a
    window. All are counted against the cap before any pattern is built;
    EMPTY_SCOPE scopes are left out."""
    jobs = []
    union = None
    for key in keys:
        if ref_key is not None:
            groups = [ref_key]
        elif isinstance(key, TimeInterval):
            if space.subset_family in (SubsetFamily.CONNECTED_COMPONENTS, SubsetFamily.KHOP):
                union = union_graph(graph, key, union)
            groups = group_candidates(graph, space, context=key, union=union)
        else:
            groups = group_candidates(graph, space, at=key)
        jobs.extend((grp, key) for grp in groups)
    check_budget(len(jobs), cfg, what)
    for grp, key in jobs:
        try:
            pattern = characterize(grp.members, key)
        except TgqError as err:
            if err.code == EMPTY_SCOPE:
                continue
            raise
        yield grp, key, pattern


def time_points(graph: TemporalGraph, fixed: Optional[int] = None) -> list:
    return [fixed] if fixed is not None else list(range(graph.n_times))


def time_windows(
    graph: TemporalGraph,
    fixed: Optional[TimeInterval] = None,
    min_len: int = 1,
) -> list:
    if fixed is not None:
        return [fixed]
    t = graph.n_times
    return [
        TimeInterval(s, e)
        for s in range(t)
        for e in range(s + min_len - 1, t)
    ]


def _time_sort_key(key):
    """Order time keys: points, then windows, then no time reference."""
    if key is None:
        return (2, 0, 0)
    if isinstance(key, TimeInterval):
        return (1, key.start, key.end)
    return (0, key, 0)


def union_graph(graph: TemporalGraph, window: TimeInterval, prev: Optional[tuple] = None):
    """``(window, adjacency, alive)``, the union graph of the snapshots in
    ``window``: ``prev``, that of the window one point shorter with the same
    start, extended in place by one snapshot, else built afresh."""
    if prev is not None and (prev[0].start, prev[0].end + 1) == (window.start, window.end):
        _, adjacency, alive = prev
        times = (window.end,)
    else:
        adjacency, alive, times = {}, set(), window.indices()
    for t in times:
        snap = graph.snapshot(t)
        alive.update(snap.nodes)
        for n in snap.nodes:
            adjacency.setdefault(n, set()).update(snap.neighbours(n))
    return window, adjacency, alive


def bfs(adjacency: dict, starts, limit: Optional[int] = None,
        targets: frozenset = frozenset()) -> dict:
    """Breadth-first search from ``starts`` along ``adjacency`` (node ->
    neighbours), level by level: at most ``limit`` levels, stopping after
    the first level that reaches one of ``targets``. Returns the parent map,
    node -> the node it was first reached from (None for a start), in the
    order the nodes were reached."""
    parents = dict.fromkeys(starts)
    frontier = list(parents)
    depth = 0
    while frontier and (limit is None or depth < limit):
        depth += 1
        level = []
        for u in frontier:
            for v in adjacency.get(u, ()):
                if v not in parents:
                    parents[v] = u
                    level.append(v)
        if targets and not targets.isdisjoint(level):
            break
        frontier = level
    return parents
