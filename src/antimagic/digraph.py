"""Oriented graph core: arc sets, directed distances, path orientation tools.

An oriented graph is a simple digraph with no loops and at most one arc
between any two vertices (no opposite pairs).  Vertices are the ints
0..n-1 internally; the serialize module translates to 1-based ids for
every external format.

Directed distance d(u, v) is the length of a shortest directed path and
is unreachable (None) when no such path exists.  The partial diameter is
the largest finite distance that occurs.
"""

from __future__ import annotations

import reprlib
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    InvalidDistanceSetError,
    InvalidParameterError,
    NotAPathError,
    is_int,
    require_int,
)

# classification labels for path orientations
UNIDIRECTIONAL = "unidirectional"
THETA_PRIME = "theta-prime"
THETA_DOUBLE_PRIME = "theta-double-prime"
OTHER = "other"

# Direction bits, read from vertex 0, of the theta paths on k >= 2 edges:
# theta-prime reverses only the first arc of a one-way path and
# theta-double-prime reverses all arcs but the first.
_THETA_BITS = {
    THETA_PRIME: lambda k: (0,) + (1,) * (k - 1),
    THETA_DOUBLE_PRIME: lambda k: (1,) + (0,) * (k - 1),
}


@dataclass(frozen=True)
class OrientedGraph:
    """Immutable oriented graph on vertices 0..n-1."""

    n: int
    arcs: frozenset[tuple[int, int]]

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]]) -> None:
        require_int("vertex count", n, lo=1)
        # checked before hashing: no arc may fail there or merge into another
        arc_set: set[tuple[int, int]] = set()
        for arc in arcs:
            try:
                u, v = arc
            except (TypeError, ValueError):
                raise InvalidParameterError(
                    f"arc {reprlib.repr(arc)} must be a vertex pair") from None
            # the exact-type test only spares the common case two calls
            if not (type(u) is int and type(v) is int
                    or is_int(u) and is_int(v)):
                raise InvalidParameterError(
                    f"arc ({u!r}, {v!r}) must join integer vertices")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(
                    f"arc ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InvalidParameterError(f"loop at vertex {u}")
            if (v, u) in arc_set:
                raise InvalidParameterError(
                    f"opposite arcs between {v} and {u}")
            arc_set.add((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", frozenset(arc_set))

    # ---- adjacency ----

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            out[u].append(v)
        return tuple(tuple(sorted(vs)) for vs in out)

    @cached_property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            inc[v].append(u)
        return tuple(tuple(sorted(us)) for us in inc)

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    def out_degree(self, v: int) -> int:
        return len(self.successors[v])

    def in_degree(self, v: int) -> int:
        return len(self.predecessors[v])

    def sinks(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if not self.successors[v])

    def sources(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if not self.predecessors[v])


@dataclass(frozen=True)
class DistanceMatrix:
    """All directed distances of a graph; rows[v][u] is d(v, u), None if unreachable."""

    rows: tuple[tuple[int | None, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def distance(self, u: int, v: int) -> int | None:
        return self.rows[u][v]

    @cached_property
    def partial_diameter(self) -> int:
        # diagonal entries are 0, so the max is well defined even with no arcs
        return max(d for row in self.rows for d in row if d is not None)


def _balls(
    g: OrientedGraph, sources: Iterable[int], depth: int | None = None,
) -> Iterator[tuple[list[int], list[int | None]]]:
    """(ball, dist) per source: the vertices within depth of it, in BFS order.

    dist[u] is d(source, u) for u in ball and None elsewhere, so with no
    depth it is the source's row of the distance matrix.  One dist list
    serves every source and is reset through the ball when the next
    source is drawn, so each source costs the size of its ball, not n;
    read dist before resuming.  BFS order lists a ball by distance, so
    its last vertex is its deepest, and when that lies shallower than
    depth the BFS ran to completion.
    """
    succ = g.successors
    limit = g.n if depth is None else depth
    dist: list[int | None] = [None] * g.n
    for s in sources:
        dist[s] = 0
        ball = [s]
        for v in ball:
            dv = dist[v] + 1
            if dv > limit:
                break  # the rest of the ball lies at depth limit as well
            for w in succ[v]:
                if dist[w] is None:
                    dist[w] = dv
                    ball.append(w)
        yield ball, dist
        for v in ball:
            dist[v] = None


def all_pairs_distances(g: OrientedGraph) -> DistanceMatrix:
    """BFS from every vertex; unreachable pairs stay None."""
    return DistanceMatrix(tuple(
        tuple(dist) for _, dist in _balls(g, range(g.n))))


def partial_diameter(g: OrientedGraph) -> int:
    return max(dist[ball[-1]] for ball, dist in _balls(g, range(g.n)))


def is_strongly_connected(g: OrientedGraph) -> bool:
    for adjacency in (g.successors, g.predecessors):
        seen = {0}
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) != g.n:
            return False
    return True


def weak_components(g: OrientedGraph) -> tuple[frozenset[int], ...]:
    """Vertex sets of the weakly connected components, ordered by smallest member."""
    und: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.arcs:
        und[u].append(v)
        und[v].append(u)
    seen: set[int] = set()
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        comp = {s}
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in und[v]:
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return tuple(comps)


# ---- path orientation tools ----


def path_vertex_order(g: OrientedGraph) -> tuple[int, ...]:
    """Vertices of an underlying path in traversal order.

    Starts from the endpoint with the smaller index so the result is
    deterministic.  Raises NotAPathError when the underlying undirected
    graph is not a path.
    """
    n = g.n
    if n == 1:
        if g.arcs:
            raise NotAPathError("single vertex with arcs")
        return (0,)
    if g.arc_count != n - 1:
        raise NotAPathError(
            f"a path on {n} vertices has {n - 1} edges, got {g.arc_count}")
    und: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.arcs:
        und[u].append(v)
        und[v].append(u)
    degrees = [len(nb) for nb in und]
    if max(degrees) > 2:
        raise NotAPathError("a vertex has more than two neighbors")
    ends = [v for v in range(n) if degrees[v] == 1]
    if len(ends) != 2:
        raise NotAPathError("underlying graph does not have two endpoints")
    order = [min(ends)]
    prev = -1
    while len(order) < n:
        cur = order[-1]
        step = [w for w in und[cur] if w != prev]
        if not step:
            raise NotAPathError("underlying graph is disconnected")
        prev = cur
        order.append(step[0])
    return tuple(order)


def _direction_bits(g: OrientedGraph, order: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(
        1 if (order[i], order[i + 1]) in g.arcs else 0
        for i in range(len(order) - 1))


def classify_path_orientation(g: OrientedGraph) -> str:
    """One of unidirectional, theta-prime, theta-double-prime, other.

    Classification is up to path reversal, against the patterns of
    _THETA_BITS.  Both theta classes are fixed under reversal, so they
    stay distinguishable at every order, including 3.
    """
    order = path_vertex_order(g)
    if g.n == 1:
        return UNIDIRECTIONAL
    bits = _direction_bits(g, order)
    # reading the path from the far end reverses the edge order and flips
    # every direction bit
    mirrored = tuple(1 - b for b in reversed(bits))
    readings = {bits, mirrored}
    k = len(bits)
    if (1,) * k in readings:  # every order-2 path stops here
        return UNIDIRECTIONAL
    for kind, pattern in _THETA_BITS.items():
        if pattern(k) in readings:
            return kind
    return OTHER


@dataclass(frozen=True)
class OrientationCensus:
    """Sink and source counts plus the kinds of the two path ends."""

    sink_count: int
    source_count: int
    end_kinds: tuple[str, ...]


def orientation_census(g: OrientedGraph) -> OrientationCensus:
    """Census of a path orientation.

    Every end vertex of an oriented path with n >= 2 is either a sink or
    a source.  When both ends are sinks the graph has one more sink than
    sources, when both are sources the opposite, and with one of each the
    counts agree.
    """
    order = path_vertex_order(g)
    sink_count = len(g.sinks())
    source_count = len(g.sources())
    if g.n == 1:
        return OrientationCensus(1, 1, ("isolated",))
    kinds = tuple(
        "sink" if g.out_degree(e) == 0 else "source"
        for e in (order[0], order[-1]))
    return OrientationCensus(sink_count, source_count, kinds)


def is_unidirectional_path(g: OrientedGraph) -> bool:
    """True when the whole graph is a single one-way path.

    Works on any graph, not only underlying paths, so tree and forest
    sweeps can use it as a predicate.
    """
    if g.arc_count != g.n - 1:
        return False
    if any(len(s) > 1 for s in g.successors):
        return False
    if any(len(p) > 1 for p in g.predecessors):
        return False
    return len(weak_components(g)) == 1


# ---- distance sets ----


def normalize_distance_set(values: Iterable[int]) -> tuple[int, ...]:
    """Sorted duplicate-free tuple; must be non-empty with int entries >= 0."""
    try:
        entries = tuple(values)
    except TypeError as exc:
        raise InvalidDistanceSetError(f"bad distance set: {exc}") from None
    if not all(map(is_int, entries)):
        raise InvalidDistanceSetError(
            f"distances must be integers, got {entries!r}")
    ds = sorted(set(entries))
    if not ds:
        raise InvalidDistanceSetError("distance set must be non-empty")
    if ds[0] < 0:
        raise InvalidDistanceSetError(
            f"distances must be non-negative, got {ds[0]}")
    return tuple(ds)


def validate_distance_set(
    values: Iterable[int],
    partial_diam: int,
    clamp: bool = False,
) -> tuple[int, ...]:
    """Normalize and bound-check a distance set against a partial diameter.

    With clamp=True entries beyond the partial diameter are dropped
    instead of rejected; the clamped set must stay non-empty.
    """
    return _bound_distance_set(
        normalize_distance_set(values), partial_diam, clamp)


def _bound_distance_set(
    ds: tuple[int, ...], partial_diam: int, clamp: bool = False,
) -> tuple[int, ...]:
    """validate_distance_set's bound check on an already normalized set."""
    if ds[-1] > partial_diam:
        if not clamp:
            raise InvalidDistanceSetError(
                f"max distance {reprlib.repr(ds[-1])} exceeds partial diameter "
                f"{partial_diam}")
        ds = tuple(d for d in ds if d <= partial_diam)
        if not ds:
            raise InvalidDistanceSetError(
                "clamping left the distance set empty")
    return ds
