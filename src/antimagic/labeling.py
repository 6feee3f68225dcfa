"""Vertex labelings, distance-set weights, and the antimagic/magic verifiers.

A labeling is a bijection from the n vertices onto the labels 1..n,
stored as a tuple indexed by vertex.  The D-neighborhood of v collects
every vertex whose directed distance from v lies in the distance set D,
and the D-weight of v adds up the labels over that neighborhood (an
empty neighborhood weighs 0).  A labeling is D-antimagic when all
weights differ and D-magic when they all agree.

D and its complement D* inside {0..partial diameter} split the finite
entries of each distance row, so the two weights of v add up to the
labels v reaches: n(n+1)/2 exactly when the row holds no None.
check_duality checks that identity and its corollaries from two
neighborhood tables; search.duality_sweep_graph decides them by row.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence, TypeVar

from .digraph import (
    DistanceMatrix,
    OrientedGraph,
    _balls,
    _bound_distance_set,
    _resolve_dm,
    all_pairs_distances,
    is_strongly_connected,
    normalize_distance_set,
    partial_diameter,
    validate_distance_set,
)
from .errors import (
    InvalidDistanceSetError,
    InvalidParameterError,
    TheoremPreconditionError,
    is_int,
    require_int,
)

R = TypeVar("R")


def check_labeling(labels: Sequence[int], n: int) -> tuple[int, ...]:
    """Validate a bijection onto 1..n and return it as a tuple.

    A rejection names the length or the first bad label, never the whole
    labeling, which may be long.
    """
    values = tuple(labels)
    if (len(values) == n and all(map(is_int, values))
            and sorted(values) == list(range(1, n + 1))):
        return values
    problem = f"got {len(values)} labels"
    if len(values) == n:
        seen = set()
        for v, label in enumerate(values):
            fresh = is_int(label) and 1 <= label <= n
            if not fresh or label in seen:
                again = " again" if fresh else ""
                problem = f"vertex {v} has label {reprlib.repr(label)}{again}"
                break
            seen.add(label)
    raise InvalidParameterError(
        f"labeling must be a bijection onto 1..{n}, {problem}")


@dataclass(frozen=True)
class WeightProfile:
    """Per-vertex weights plus every colliding pair, sorted lexicographically."""

    weights: tuple[int, ...]
    collisions: tuple[tuple[int, int], ...]

    @property
    def distinct(self) -> bool:
        return not self.collisions

    @property
    def magic_constant(self) -> int | None:
        """The weight every vertex shares, or None when two weights differ."""
        first = self.weights[0]
        return first if self.weights.count(first) == len(self.weights) else None


def d_neighborhood(
    g: OrientedGraph,
    v: int,
    d_set: Iterable[int],
) -> tuple[int, ...]:
    """Vertices whose distance from v lies in d_set, ascending."""
    require_int("vertex", v)
    if not 0 <= v < g.n:
        raise InvalidParameterError(f"vertex {v} out of range")
    ds = normalize_distance_set(d_set)
    ball, dist = next(_balls(g, (v,), ds[-1]))
    if dist[ball[-1]] < ds[-1]:
        _bound_distance_set(ds, partial_diameter(g))
    return _row(ball, dist, set(ds))


def neighborhood_table(
    g: OrientedGraph,
    d_set: Iterable[int],
    *,
    dm: DistanceMatrix | None = None,
) -> tuple[tuple[int, ...], ...]:
    """d_neighborhood for every vertex at once."""
    if dm is None:
        return tuple(_ball_rows(g, d_set, False, _row))
    dm = _resolve_dm(g, dm)
    ds = validate_distance_set(d_set, dm.partial_diameter)
    wanted = set(ds)
    return tuple(
        tuple(u for u in range(g.n) if row[u] in wanted)
        for row in dm.rows)


def _row(
    ball: list[int], dist: list[int | None], wanted: set[int],
) -> tuple[int, ...]:
    return tuple(sorted([u for u in ball if dist[u] in wanted]))


def _ball_rows(
    g: OrientedGraph,
    d_set: Iterable[int],
    clamp: bool,
    row: Callable[[list[int], list[int | None], set[int]], R],
) -> list[R]:
    """row(ball, dist, D) for every vertex; D checked as by validate_distance_set.

    Each ball is cut off at max(D).  One that reaches that depth proves
    D within the partial diameter; when none does, every BFS ran to
    completion and the deepest level reached is the partial diameter.
    Distances beyond it never occur, so clamping needs no second pass.
    """
    ds = normalize_distance_set(d_set)
    wanted = set(ds)
    deepest = 0
    rows = []
    for ball, dist in _balls(g, range(g.n), ds[-1]):
        deepest = max(deepest, dist[ball[-1]])
        rows.append(row(ball, dist, wanted))
    if deepest < ds[-1]:
        _bound_distance_set(ds, deepest, clamp)
    return rows


def _collisions(weights: Sequence[int]) -> tuple[tuple[int, int], ...]:
    by_weight: dict[int, list[int]] = {}
    for v, w in enumerate(weights):
        by_weight.setdefault(w, []).append(v)
    pairs = []
    for vs in by_weight.values():
        if len(vs) > 1:
            pairs.extend(combinations(vs, 2))
    return tuple(sorted(pairs))


def weight_profile(
    g: OrientedGraph,
    labels: Sequence[int],
    d_set: Iterable[int],
    *,
    clamp: bool = False,
) -> WeightProfile:
    values = check_labeling(labels, g.n)
    runs = _linear_forest_runs(g)
    if runs is not None:
        weights = _run_weights(runs, values, d_set, clamp)
    else:
        def weight(
            ball: list[int], dist: list[int | None], wanted: set[int],
        ) -> int:
            return sum([values[u] for u in ball if dist[u] in wanted])

        weights = tuple(_ball_rows(g, d_set, clamp, weight))
    return WeightProfile(weights, _collisions(weights))


def _linear_forest_runs(g: OrientedGraph) -> list[list[int]] | None:
    """The directed runs of an oriented linear forest; None for any other graph.

    A run follows out-arcs from a vertex with no in-arc to a sink, one
    run per out-arc.  In a linear forest the ball of run[i] holds run[i + d]
    at distance d on each run through it, and nothing else but itself.
    """
    succ, pred = g.successors, g.predecessors
    if any(len(s) + len(p) > 2 for s, p in zip(succ, pred)):
        return None
    runs: list[list[int]] = []
    at: dict[int, list[list[int]]] = {}  # the runs that start or end at v
    for s in range(g.n):
        if pred[s]:
            continue
        for v in succ[s]:
            run = [s, v]
            while nxt := succ[v]:
                v = nxt[0]
                run.append(v)
            runs.append(run)
            at.setdefault(s, []).append(run)
            at.setdefault(v, []).append(run)
    # With every degree at most 2, the runs cover every arc but those of
    # directed cycles, and join at shared ends into paths and cycles of
    # runs.  Walking each path from both of its ends reaches every run
    # twice exactly when there is no cycle.
    reached = 0
    for end in [v for v, ending in at.items() if len(ending) == 1]:
        run = at[end][0]
        while True:
            reached += 1
            end = run[0] if run[-1] == end else run[-1]
            ending = at[end]
            if len(ending) == 1:
                break
            run = ending[1] if ending[0] is run else ending[0]
    if reached < 2 * len(runs) or len(g.arcs) > sum(map(len, runs)) - len(runs):
        return None
    return runs


def _run_weights(
    runs: list[list[int]],
    values: tuple[int, ...],
    d_set: Iterable[int],
    clamp: bool,
) -> tuple[int, ...]:
    """weight_profile's weights from the runs of a linear forest.

    The longest run less one is the partial diameter.
    """
    ds = normalize_distance_set(d_set)
    deepest = max(map(len, runs), default=1) - 1
    if ds[-1] > deepest:
        ds = _bound_distance_set(ds, deepest, clamp)
    weights = list(values) if ds[0] == 0 else [0] * len(values)
    for d in filter(None, ds):
        for run in runs:
            for v, u in zip(run, run[d:]):
                weights[v] += values[u]
    return tuple(weights)


def _profile(
    values: tuple[int, ...], table: tuple[tuple[int, ...], ...],
) -> WeightProfile:
    weights = tuple(sum(values[u] for u in nb) for nb in table)
    return WeightProfile(weights, _collisions(weights))


def is_d_antimagic(
    g: OrientedGraph,
    labels: Sequence[int],
    d_set: Iterable[int],
) -> bool:
    return weight_profile(g, labels, d_set).distinct


def is_d_magic(
    g: OrientedGraph,
    labels: Sequence[int],
    d_set: Iterable[int],
) -> int | None:
    """The magic constant when every weight agrees, else None."""
    return weight_profile(g, labels, d_set).magic_constant


def complement_distance_set(
    d_set: Iterable[int], partial_diam: int
) -> tuple[int, ...]:
    """The complement of d_set in {0..partial_diam}.

    d_set must be a proper non-empty subset of that range so both the set
    and its complement remain valid distance sets.
    """
    ds = validate_distance_set(d_set, partial_diam)
    comp = tuple(d for d in range(partial_diam + 1) if d not in set(ds))
    if not comp:
        raise InvalidDistanceSetError(
            "distance set covers the whole range, its complement is empty")
    return comp


@dataclass(frozen=True)
class DualityReport:
    """Joint facts about a labeling under a distance set and its complement."""

    d_set: tuple[int, ...]
    complement_set: tuple[int, ...]
    label_total: int
    weight_sums: tuple[int, ...]
    antimagic_d: bool
    antimagic_complement: bool
    magic_d: int | None
    magic_complement: int | None

    @property
    def sums_ok(self) -> bool:
        return all(s == self.label_total for s in self.weight_sums)

    @property
    def flags_agree(self) -> bool:
        return self.antimagic_d == self.antimagic_complement

    @property
    def magic_ok(self) -> bool:
        if (self.magic_d is None) != (self.magic_complement is None):
            return False
        if self.magic_d is None or self.magic_complement is None:
            return True
        return self.magic_d + self.magic_complement == self.label_total

    @property
    def ok(self) -> bool:
        return self.sums_ok and self.flags_agree and self.magic_ok


def check_duality(
    g: OrientedGraph,
    labels: Sequence[int],
    d_set: Iterable[int],
) -> DualityReport:
    """Weights under d_set and its complement, with the identities they satisfy.

    Needs a strongly connected graph: only then is every distance finite,
    so the two neighborhoods of a vertex partition the whole vertex set
    and the paired weights add up to n(n+1)/2.
    """
    if not is_strongly_connected(g):
        raise TheoremPreconditionError(
            "duality needs a strongly connected graph")
    dm = all_pairs_distances(g)
    ds = validate_distance_set(d_set, dm.partial_diameter)
    comp = complement_distance_set(ds, dm.partial_diameter)
    n = g.n
    values = check_labeling(labels, n)
    profile_d = _profile(values, neighborhood_table(g, ds, dm=dm))
    profile_c = _profile(values, neighborhood_table(g, comp, dm=dm))
    return DualityReport(
        d_set=ds,
        complement_set=comp,
        label_total=n * (n + 1) // 2,
        weight_sums=tuple(
            a + b for a, b in zip(profile_d.weights, profile_c.weights)),
        antimagic_d=profile_d.distinct,
        antimagic_complement=profile_c.distinct,
        magic_d=profile_d.magic_constant,
        magic_complement=profile_c.magic_constant,
    )


def necessary_condition_distinct_neighborhoods(
    g: OrientedGraph,
    d_set: Iterable[int],
) -> tuple[int, int] | None:
    """A vertex pair sharing one D-neighborhood, or None when all differ.

    Two vertices with the same neighborhood get the same weight under
    every labeling, so a witness pair rules out every D-antimagic
    labeling at once.  Scans vertices in ascending order and reports the
    first repeat against its earliest predecessor.
    """
    table = neighborhood_table(g, d_set)
    seen: dict[tuple[int, ...], int] = {}
    for v, nb in enumerate(table):
        if nb in seen:
            return (seen[nb], v)
        seen[nb] = v
    return None
