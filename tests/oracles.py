"""Independent naive recomputations used to cross-check the library.

Everything here works from first principles on plain (n, arcs) data
and avoids the package's own distance and weight code on purpose:
Floyd-Warshall instead of per-vertex BFS, dict scans instead of
cached tables, whole-space permutation loops instead of the tuned
search.  Slow and obvious beats fast and clever here.

The labelled-graph sweeps at the end are the one exception: they run
the package's own per-graph kernels on every labelled graph or tree,
the slow path that the isomorphism-class sweeps of antimagic.search
replace.  They look each kernel up on antimagic.search (the necessary
condition on antimagic.labeling) at call time, so a test that
monkeypatches a kernel changes both paths alike.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Sequence

from antimagic import labeling, search
from antimagic.search import (
    COMPLEMENT_DUALITY,
    MAGIC_WINDOW,
    TREE_DEPTH_ONE,
    CharacterizationCheck,
    NeighborhoodSurvey,
)

INF = float("inf")


def floyd_warshall(n: int, arcs: Iterable[tuple[int, int]]) -> list[list[int | None]]:
    dist = [[INF] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v in arcs:
        dist[u][v] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                through = dist[i][k] + dist[k][j]
                if through < dist[i][j]:
                    dist[i][j] = through
    return [[None if d is INF or d == INF else int(d) for d in row]
            for row in dist]


def partial_diameter(n: int, arcs: Iterable[tuple[int, int]]) -> int:
    dist = floyd_warshall(n, arcs)
    return max(d for row in dist for d in row if d is not None)


def neighborhood(n: int, arcs: Iterable[tuple[int, int]], v: int,
                 d_set: Iterable[int]) -> list[int]:
    dist = floyd_warshall(n, arcs)
    wanted = set(d_set)
    return [u for u in range(n) if dist[v][u] in wanted]


def weights(n: int, arcs: Iterable[tuple[int, int]], labels: Sequence[int],
            d_set: Iterable[int]) -> list[int]:
    dist = floyd_warshall(n, arcs)
    wanted = set(d_set)
    return [sum(labels[u] for u in range(n) if dist[v][u] in wanted)
            for v in range(n)]


def all_antimagic_labelings(n: int, arcs: Iterable[tuple[int, int]],
                            d_set: Iterable[int]) -> list[tuple[int, ...]]:
    """Every bijection with pairwise distinct weights, in lex order."""
    arcs = list(arcs)
    dist = floyd_warshall(n, arcs)
    wanted = set(d_set)
    hoods = [[u for u in range(n) if dist[v][u] in wanted] for v in range(n)]
    hits = []
    for perm in permutations(range(1, n + 1)):
        ws = [sum(perm[u] for u in hood) for hood in hoods]
        if len(set(ws)) == n:
            hits.append(perm)
    return hits


def all_magic_labelings(n: int, arcs: Iterable[tuple[int, int]],
                        d_set: Iterable[int]) -> list[tuple[tuple[int, ...], int]]:
    """Every bijection with one shared weight, with that weight, lex order."""
    arcs = list(arcs)
    dist = floyd_warshall(n, arcs)
    wanted = set(d_set)
    hoods = [[u for u in range(n) if dist[v][u] in wanted] for v in range(n)]
    hits = []
    for perm in permutations(range(1, n + 1)):
        ws = [sum(perm[u] for u in hood) for hood in hoods]
        if len(set(ws)) == 1:
            hits.append((perm, ws[0]))
    return hits


def layer_sorted_forest_labels(
    components: Sequence[tuple[int, int]],
) -> dict[tuple[int, int, int], int]:
    """Rank every forest vertex by (position, component, copy), from 1.

    This is the behavior the closed-form forest labeling is supposed to
    reproduce, stated as a plain sort instead of a formula.
    """
    coords = []
    for j, (m, n) in enumerate(components, start=1):
        for s in range(1, m + 1):
            for i in range(1, n + 1):
                coords.append((i, j, s))
    coords.sort()
    return {(j, s, i): rank for rank, (i, j, s) in enumerate(coords, start=1)}


# ---- labelled-graph sweeps ----


def _strongly_connected_graphs(order: int):
    for g in search.enumerate_oriented_graphs(order):
        if search.is_strongly_connected(g):
            yield g


def magic_bound_sweep(order: int) -> CharacterizationCheck:
    low = 5
    high = order * (order + 1) // 2 - 5
    swept = checked = 0
    counterexamples = []
    for g in _strongly_connected_graphs(order):
        swept += 1
        dm = search.all_pairs_distances(g)
        for ds in search._proper_subsets(dm.partial_diameter):
            checked += 1
            counterexamples.extend(
                (tuple(sorted(g.arcs)), ds, labels, lam)
                for labels, lam in search.exhaustive_magic_search(g, ds, dm=dm)
                if not low <= lam <= high)
    return CharacterizationCheck(MAGIC_WINDOW, swept, checked, 0,
                                 tuple(counterexamples))


def duality_sweep(order: int, trials: int | None = None,
                  seed: int = 0) -> CharacterizationCheck:
    swept = checked = 0
    counterexamples = []
    for g in _strongly_connected_graphs(order):
        swept += 1
        check = search.duality_sweep_graph(g, trials=trials, seed=seed)
        checked += check.checked
        counterexamples.extend(check.counterexamples)
    return CharacterizationCheck(COMPLEMENT_DUALITY, swept, checked, 0,
                                 tuple(counterexamples))


def survey_neighborhood_sufficiency(order: int) -> NeighborhoodSurvey:
    pairs = necessary_ok = antimagic = gap = 0
    for g in search.enumerate_oriented_graphs(order):
        dm = search.all_pairs_distances(g)
        for ds in search._powerset(range(dm.partial_diameter + 1)):
            if not ds:
                continue
            pairs += 1
            necessary = labeling.necessary_condition_distinct_neighborhoods(
                g, ds) is None
            found = search.exhaustive_labeling_search(g, ds, dm=dm).found
            necessary_ok += necessary
            antimagic += found
            gap += necessary and not found
    return NeighborhoodSurvey(order, pairs, necessary_ok, antimagic, gap)


def check_tree_characterization(n_max: int) -> CharacterizationCheck:
    tally = search._Tally(TREE_DEPTH_ONE)
    for n in range(2, n_max + 1):
        for g in search.enumerate_trees(n):
            search._check_predictions(
                g, [(tally, (1,), search.is_unidirectional_path(g))],
                (n, tuple(sorted(g.arcs))))
    return tally.check()
