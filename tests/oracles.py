"""Independent naive recomputations used to cross-check the library.

Everything here works from first principles on plain (n, arcs) data
and avoids the package's own distance and weight code on purpose:
Floyd-Warshall instead of per-vertex BFS, dict scans instead of
cached tables, whole-space permutation loops instead of the tuned
search.  Slow and obvious beats fast and clever here.

isomorphism_classes is the code-indexed class enumeration that the
vertex-extension class generator of antimagic.search replaced: slow,
but each orbit is read straight off the enumeration it partitions.

dense_distances is the per-source deque BFS that filled every row of
the distance matrix before the verifiers moved to BFS balls cut off at
max(D), and dense_weight_profile the weight_profile that read its
weights off that matrix, both kept word for word as the reference.

is_linear_forest and linear_forest_edges decide and list linear
forests by union-find on the underlying edges, independently of the
walk over directed runs by which weight_profile recognises them.

flat_magic_labelings is the flat permutation loop of
antimagic.search.exhaustive_magic_search from before it learnt to
answer () at once when two weights differ under every labeling, kept
word for word as the reference.

scan_range is the flat permutation loop that the pruning walk of
antimagic.search._scan_range replaced, kept word for word as the
reference; flat_search wraps it in the search's counting rules.

duality_sweep_graph is the loop of antimagic.search.duality_sweep_graph
from before the level-sum kernel, kept word for word as the reference:
one labeling.check_duality per distance set and labeling, each paying
for its own distance matrix and neighborhood tables.

The labelled-graph sweeps at the end are the one exception: they run
the package's own per-graph kernels on every labelled graph, tree,
oriented path or linear forest, the slow path that the
isomorphism-class sweeps of antimagic.search replace.  The path and
forest sweeps are the labelled loops of check_path_characterizations
and check_forest_lemmas from before those ran one graph per class, kept
word for word but for the search. prefixes.  They look each kernel up
on antimagic.search (the necessary condition on antimagic.labeling) at
call time, so a test that monkeypatches a kernel changes both paths
alike.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, combinations, islice, permutations, product
from math import factorial
from typing import Iterable, Iterator, Sequence

from antimagic import (
    DistanceMatrix,
    InvalidParameterError,
    OrientedGraph,
    TheoremPreconditionError,
    WeightProfile,
    check_labeling,
    labeling,
    search,
    validate_distance_set,
)
from antimagic.generators import (
    EXPLICIT,
    LinearForestSpec,
    _mask_to_bits,
    build_forest,
    mpn_spec,
)
from antimagic.search import (
    ABORTED_BUDGET,
    COMPLEMENT_DUALITY,
    EXHAUSTED_NONE,
    FOREST_COPIES_MIN_ZERO,
    FOREST_MIN_ONE_MULTI,
    FOREST_MIN_TWO_PLUS,
    FOREST_MIXED_ZERO_ONE,
    FOREST_UNIFORM_ZERO_TOP,
    FOUND,
    MAGIC_WINDOW,
    TREE_DEPTH_ONE,
    CharacterizationCheck,
    NeighborhoodSurvey,
)
from antimagic.errors import require_int

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


def neighborhood_table(n: int, arcs: Iterable[tuple[int, int]],
                       d_set: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    dist = floyd_warshall(n, arcs)
    wanted = set(d_set)
    return tuple(tuple(u for u in range(n) if dist[v][u] in wanted)
                 for v in range(n))


# ---- linear forests ----


def is_linear_forest(n: int, edges: Iterable[tuple[int, int]]) -> bool:
    """No vertex of degree above 2 and no cycle in the underlying graph."""
    degree = [0] * n
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
        ru, rv = find(u), find(v)
        if ru == rv or degree[u] > 2 or degree[v] > 2:
            return False
        root[ru] = rv
    return True


def linear_forest_edges(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every undirected edge set on 0..n-1 that forms a linear forest."""
    pairs = list(combinations(range(n), 2))
    for k in range(n):
        for edges in combinations(pairs, k):
            if is_linear_forest(n, edges):
                yield edges


# ---- dense distances ----


def dense_distances(g: OrientedGraph) -> DistanceMatrix:
    """BFS from every vertex; unreachable pairs stay None."""
    succ = g.successors
    rows = []
    for s in range(g.n):
        dist: list[int | None] = [None] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            dv = dist[v]
            assert dv is not None
            for w in succ[v]:
                if dist[w] is None:
                    dist[w] = dv + 1
                    queue.append(w)
        rows.append(tuple(dist))
    return DistanceMatrix(tuple(rows))


def dense_weight_profile(
    g: OrientedGraph,
    labels: Sequence[int],
    d_set: Iterable[int],
    *,
    clamp: bool = False,
) -> WeightProfile:
    values = check_labeling(labels, g.n)
    dm = dense_distances(g)
    ds = validate_distance_set(d_set, dm.partial_diameter, clamp)
    return labeling._profile(values,
                             labeling.neighborhood_table(g, ds, dm=dm))


def all_antimagic_labelings(n: int, arcs: Iterable[tuple[int, int]],
                            d_set: Iterable[int]) -> list[tuple[int, ...]]:
    """Every bijection with pairwise distinct weights, in lex order."""
    hoods = neighborhood_table(n, arcs, d_set)
    hits = []
    for perm in permutations(range(1, n + 1)):
        ws = [sum(perm[u] for u in hood) for hood in hoods]
        if len(set(ws)) == n:
            hits.append(perm)
    return hits


def all_magic_labelings(n: int, arcs: Iterable[tuple[int, int]],
                        d_set: Iterable[int]) -> list[tuple[tuple[int, ...], int]]:
    """Every bijection with one shared weight, with that weight, lex order."""
    hoods = neighborhood_table(n, arcs, d_set)
    hits = []
    for perm in permutations(range(1, n + 1)):
        ws = [sum(perm[u] for u in hood) for hood in hoods]
        if len(set(ws)) == 1:
            hits.append((perm, ws[0]))
    return hits


def flat_magic_labelings(
    nbhd: tuple[tuple[int, ...], ...],
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every (labels, constant) with all weights over nbhd equal, lex order."""
    hits = []
    for labels in permutations(range(1, len(nbhd) + 1)):
        lam = None
        for hood in nbhd:
            w = 0
            for u in hood:
                w += labels[u]
            if lam is None:
                lam = w
            elif w != lam:
                lam = -1
                break
        if lam != -1:
            hits.append((labels, lam))
    return tuple(hits)


def scan_range(
    args: tuple[tuple[tuple[int, ...], ...], int, int, int],
) -> tuple[int, tuple[int, ...]] | None:
    """Scan one contiguous block of the bijection sequence (worker body)."""
    nbhd, n, start, stop = args
    source = islice(permutations(range(1, n + 1)), start, stop)
    for rank, labels in enumerate(source, start=start):
        seen = set()
        for hood in nbhd:
            w = 0
            for u in hood:
                w += labels[u]
            if w in seen:
                break
            seen.add(w)
        else:
            return rank, labels
    return None


def flat_search(
    hoods: tuple[tuple[int, ...], ...], budget: int | None = None,
) -> tuple[str, tuple[int, ...] | None, int]:
    """(outcome, witness, candidates_examined) of a flat scan with no shortcut.

    The witness is the first antimagic labeling in the rank prefix the
    budget allows, and the count its 1-based rank; with none, the count
    is the length of the prefix.
    """
    n = len(hoods)
    space = factorial(n)
    total = space if budget is None else min(budget, space)
    hit = scan_range((hoods, n, 0, total))
    if hit is not None:
        return FOUND, hit[1], hit[0] + 1
    return (ABORTED_BUDGET if total < space else EXHAUSTED_NONE), None, total


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


# ---- isomorphism classes ----


def _graph_from_digits(
    n: int, pairs: list[tuple[int, int]], digits: Iterable[int],
) -> OrientedGraph:
    arcs = []
    for (u, v), digit in zip(pairs, digits):
        if digit == 1:
            arcs.append((u, v))
        elif digit == 2:
            arcs.append((v, u))
    return OrientedGraph(n, arcs)


def isomorphism_classes(
    n: int,
) -> Iterator[tuple[OrientedGraph, tuple[int, ...]]]:
    """(representative, orbit codes) for every oriented graph class of order n.

    A graph's code is its index in enumerate_oriented_graphs(n): its
    base-3 pair digits read as a number.  Classes come in the order their
    first member appears there, and that member, the lowest code of the
    orbit, is the representative.  Orbit codes ascend.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = len(pairs)
    place = {pair: 3 ** (m - 1 - k) for k, pair in enumerate(pairs)}
    # tables[p][3k + d]: what digit d on pair k adds to the code of the
    # graph relabelled by vertex permutation p; a relabelled arc keeps its
    # digit when the image pair keeps its order and swaps 1 and 2 otherwise
    tables = []
    for perm in permutations(range(n)):
        table = []
        for u, v in pairs:
            a, b = perm[u], perm[v]
            if a < b:
                table += (0, place[a, b], 2 * place[a, b])
            else:
                table += (0, 2 * place[b, a], place[b, a])
        tables.append(table)
    seen = bytearray(3 ** m)
    for code, digits in enumerate(product((0, 1, 2), repeat=m)):
        if seen[code]:
            continue
        picks = [3 * k + digit for k, digit in enumerate(digits)]
        orbit = sorted({sum(map(table.__getitem__, picks)) for table in tables})
        for member in orbit:
            seen[member] = 1
        yield _graph_from_digits(n, pairs, digits), tuple(orbit)


def duality_sweep_graph(
    g: OrientedGraph,
    *,
    trials: int | None = None,
    seed: int = 0,
) -> CharacterizationCheck:
    if trials is None and g.n > 6:
        raise InvalidParameterError(
            "exhaustive duality checks are capped at order 6; pass trials=")
    if trials is not None:
        require_int("trials", trials, lo=1)
    if not search.is_strongly_connected(g):
        raise TheoremPreconditionError(
            "duality needs a strongly connected graph")
    dm = search.all_pairs_distances(g)
    tally = search._Tally(COMPLEMENT_DUALITY)
    for ds in search._proper_subsets(dm.partial_diameter):
        for labels in search._label_iter(g.n, trials, seed):
            tally.record([] if labeling.check_duality(g, labels, ds).ok else
                         [(tuple(sorted(g.arcs)), ds, labels)])
    return tally.check(swept=1)


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


def check_path_characterizations(
    n_max: int,
    *,
    jobs: int = 1,
) -> tuple[CharacterizationCheck, ...]:
    require_int("path sweep order", n_max, 3, 7)
    work = [(n, mask)
            for n in range(3, n_max + 1)
            for mask in range(2 ** (n - 1))]
    merged: dict[str, search._Tally] = {}
    for tallies in search._map(search._sweep_path_mask, work, jobs):
        for tally in tallies:
            merged.setdefault(tally.tag, search._Tally(tally.tag)).merge(tally)
    return tuple(tally.check() for tally in merged.values())


def check_forest_lemmas(
    max_total_order: int = 6,
) -> tuple[CharacterizationCheck, ...]:
    require_int("forest sweep total order", max_total_order, 2, 8)
    fam1, fam2, fam3, fam4, fam5 = (search._Tally(tag) for tag in (
        FOREST_MIN_ONE_MULTI, FOREST_MIN_TWO_PLUS, FOREST_COPIES_MIN_ZERO,
        FOREST_MIXED_ZERO_ONE, FOREST_UNIFORM_ZERO_TOP))
    for total in range(2, max_total_order + 1):
        for parts in search._partitions(total):
            if len(parts) < 2:
                continue
            lengths = tuple(sorted(parts))
            edges = total - len(parts)
            top = parts[0]
            for mask in range(2 ** edges):
                bits = _mask_to_bits(mask, edges)
                g = build_forest(
                    LinearForestSpec.from_lengths(lengths, EXPLICIT, bits))
                search._check_predictions(g, chain(
                    ((fam1, (1,) + extra, False)
                     for extra in search._powerset(range(2, top))),
                    ((fam2, ds, False)
                     for ds in search._powerset(range(2, top)) if ds),
                ), (lengths, bits))
                if mask == 0:  # all-zero bits build the phi forest
                    search._check_predictions(g, [(fam4, (0, 1), True)],
                                              (lengths, "tail-to-head"))

    for n in range(2, max_total_order + 1):
        for m in range(2, max_total_order // n + 1):
            search._check_predictions(
                build_forest(mpn_spec(m, n)),
                ((fam3, (0,) + extra, True)
                 for extra in search._powerset(range(1, n))),
                ((m, n), "tail-to-head"))
            for copy_mask in range(2 ** (n - 1)):
                copy_bits = _mask_to_bits(copy_mask, n - 1)
                search._check_predictions(
                    build_forest(mpn_spec(m, n, EXPLICIT, copy_bits * m)),
                    [(fam5, (0, n - 1), copy_mask in (0, 2 ** (n - 1) - 1))],
                    ((m, n), copy_bits))

    return tuple(tally.check() for tally in (fam1, fam2, fam3, fam4, fam5))
