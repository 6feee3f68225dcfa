"""Exhaustive searches and theorem sweeps over small oriented graphs.

Searches walk label bijections in lexicographic order, so every result
is deterministic: the witness of a successful search is the lex-least
antimagic labeling, and candidates_examined is its 1-based rank.  A
failed search reports the length of the rank prefix it covered (the
whole space, or the budget).  The scan labels vertices 0, 1, ... in
turn and checks each weight once its whole neighborhood is labelled;
when two such weights collide, the labelings below that prefix, one
run of consecutive ranks, all fail and are skipped, yet count as
examined.  Splitting work across processes never changes any of those
numbers; jobs only buys wall-clock time.

The pruning shortcut rests on a necessary condition: two vertices with
the same distance neighborhood get the same weight under every
labeling, so the search can report exhausted-none without scanning.
Such reports carry shortcut=True and candidates_examined=0.
use_pruning=False (the command line's --no-prune) turns off only this
shortcut; the scan skips collided runs either way and never sets
shortcut.

The magic scan has an exact shortcut of its own and no switch: when
two vertices' neighborhoods differ in a way that makes their weights
differ under every labeling (see _never_magic), it returns () without
walking the bijections.  The graph hunt never builds the graphs of
order 2 or more in which some vertex lacks an out-arc or an in-arc,
since none of them is strongly connected; it skips nothing that would
count towards candidates_examined.

Sweep helpers re-check the characterization theorems mechanically.
Each returns a CharacterizationCheck whose counterexamples tuple must
stay empty.  In the path, tree and forest sweeps swept = checked +
skipped, where skipped counts candidate distance sets that are invalid
for the graph at hand (max beyond its partial diameter).  The duality
and magic window sweeps report swept as the number of graphs and
checked as the cases tried on them, and skip nothing.

Distances, magic constants, the complement identity and the existence
of an antimagic labeling all survive relabelling the vertices, and so
does the kind of an oriented path, so the duality, magic window,
neighborhood survey, tree, path and forest sweeps run on one graph per
isomorphism class.  Their counts are still over labelled graphs: each
class adds its result times its orbit size.  _class_levels builds the
classes of oriented graphs and trees by vertex extension, and _classes
groups the oriented paths, read from either end, and the linear forests,
up to swapping equal paths, from their labelled lists.  _weighted_sweep
weights the classes and re-checks those that turn up counterexamples.
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from itertools import chain, combinations, islice, permutations, product
from math import ceil, factorial
from typing import Callable, Iterable, Iterator

from .digraph import (
    THETA_DOUBLE_PRIME,
    THETA_PRIME,
    UNIDIRECTIONAL,
    DistanceMatrix,
    OrientedGraph,
    _balls,
    all_pairs_distances,
    classify_path_orientation,
    is_strongly_connected,
    is_unidirectional_path,
    normalize_distance_set,
)
from .errors import (
    AntimagicError,
    InvalidParameterError,
    TheoremPreconditionError,
    require_int,
)
from .generators import (
    EXPLICIT,
    LinearForestSpec,
    _mask_to_bits,
    build_cycle,
    build_forest,
    build_path,
    enumerate_trees,
    mpn_spec,
)
from .labeling import neighborhood_table

FOUND = "found"
EXHAUSTED_NONE = "exhausted-none"
ABORTED_BUDGET = "aborted-budget"

MAX_EXHAUSTIVE_ORDER = 10
MAX_MAGIC_ORDER = 8
MAX_GRAPH_HUNT_ORDER = 5
MAX_DUALITY_ORDER = 4
MAX_DUALITY_TRIALS = 10**12
MAX_SURVEY_ORDER = 4

PATH_MIN_ONE = "path-min-1"
PATH_MIN_TWO_PLUS = "path-min-2-plus"
PATH_TOP_DISTANCE = "path-top-distance"
PATH_ZERO_PENULTIMATE = "path-zero-penultimate"
TREE_DEPTH_ONE = "tree-depth-1"
FOREST_MIN_ONE_MULTI = "forest-min-1-multi"
FOREST_MIN_TWO_PLUS = "forest-min-2-plus"
FOREST_COPIES_MIN_ZERO = "forest-copies-min-zero"
FOREST_MIXED_ZERO_ONE = "forest-mixed-zero-one"
FOREST_UNIFORM_ZERO_TOP = "forest-uniform-zero-top"
COMPLEMENT_DUALITY = "complement-duality"
MAGIC_WINDOW = "magic-constant-window"


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one search run; see the module docstring for the counting."""

    outcome: str
    witness: tuple[int, ...] | None
    candidates_examined: int
    elapsed: float
    shortcut: bool = False
    witness_graph: OrientedGraph | None = None
    magic_constant: int | None = None

    @property
    def found(self) -> bool:
        return self.outcome == FOUND


# The walk stops this many labels above the leaves and permutes the rest
# in a flat loop: a run pruned any deeper holds at most two labelings,
# fewer than a node of the walk costs.
_FLAT_TAIL = 3


def _scan_range(
    args: tuple[tuple[tuple[int, ...], ...], int, int, int],
) -> tuple[int, tuple[int, ...]] | None:
    """Scan one contiguous block of the bijection sequence (worker body).

    A depth-first walk gives vertex k each free label in ascending order,
    so the labelings below a prefix of k labels are one run of (n - k)!
    consecutive ranks (the Lehmer code), and they come in rank order.
    The weight of x is final once vertex max(N_D(x)) is labelled (at the
    root when N_D(x) is empty) and is checked there: a weight equal to
    an earlier one fails every labeling below the prefix, so that whole
    run is skipped.  Only prefixes whose run meets [start, stop) are
    visited.  The walk stops _FLAT_TAIL labels above the leaves, and a
    flat loop over the permutations of the free labels checks the
    weights still open; when fewer than two weights are final by then,
    nothing can prune and the whole block is that flat loop.
    """
    nbhd, n, start, stop = args
    depths = [max(hood) + 1 if hood else 0 for hood in nbhd]
    top = max(n - _FLAT_TAIL, 0)
    if sum(depth <= top for depth in depths) < 2:
        top = 0
    final: list[list[tuple[int, ...]]] = [[] for _ in range(top + 1)]
    rest = []  # the neighborhoods the flat loop checks, in vertex order
    for hood, depth in zip(nbhd, depths):
        (final[depth] if depth <= top else rest).append(hood)
    if len(final[0]) > 1:
        return None
    seen = {0} if final[0] else set()
    run = [0] * top  # run[k]: ranks below one label of vertex k, (n - 1 - k)!
    size = factorial(n - top)
    for k in range(top - 1, -1, -1):
        run[k] = size
        size *= n - k
    labels = [0] * n
    free = list(range(1, n + 1))
    stack = []  # (index in free, end, base, weights fixed) per labelled vertex
    k = base = 0
    while True:  # enter the prefix labels[:k], whose run starts at rank base
        if k == top:
            prefix = tuple(labels[:top])
            lo = start - base if start > base else 0
            tails = islice(permutations(free), lo, stop - base)
            for rank, tail in enumerate(tails, base + lo):
                full = prefix + tail
                taken = set(seen)
                for hood in rest:
                    w = 0
                    for u in hood:
                        w += full[u]
                    if w in taken:
                        break
                    taken.add(w)
                else:
                    return rank, full
            i = end = 0
        else:
            i = (start - base) // run[k] if start > base else 0
            end = min(n - k, -(-(stop - base) // run[k]))
        while True:  # try labels free[i:end] on vertex k; back up when done
            if i < end:
                labels[k] = free.pop(i)
                fixed = []
                for hood in final[k + 1]:
                    w = 0
                    for u in hood:
                        w += labels[u]
                    if w in seen:
                        break
                    seen.add(w)
                    fixed.append(w)
                else:
                    stack.append((i, end, base, fixed))
                    base += i * run[k]
                    k += 1
                    break
                seen.difference_update(fixed)
                free.insert(i, labels[k])
                i += 1
            elif stack:
                k -= 1
                i, end, base, fixed = stack.pop()
                seen.difference_update(fixed)
                free.insert(i, labels[k])
                i += 1
            else:
                return None


def _split_range(total: int, jobs: int) -> list[tuple[int, int]]:
    base, extra = divmod(total, jobs)
    chunks = []
    start = 0
    for idx in range(jobs):
        size = base + (1 if idx < extra else 0)
        if size == 0:
            break
        chunks.append((start, start + size))
        start += size
    return chunks


def _pool_size(jobs: int, tasks: int) -> int:
    """Pool size for tasks units of work: jobs, capped at the usable CPUs."""
    require_int("jobs", jobs, lo=1)
    if jobs == 1:  # the small sweeps search ~1900 times; skip the CPU query
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, cpus, tasks)


def _map(fn: Callable, work: list, jobs: int) -> Iterable:
    """fn over work, in order: here, or in a pool of up to jobs processes."""
    workers = _pool_size(jobs, len(work))
    if workers == 1:
        return map(fn, work)
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # one chunk per worker: a task is too small to pay for a round trip
            chunk = ceil(len(work) / workers)
            return list(pool.map(fn, work, chunksize=chunk))
    except BrokenProcessPool as exc:
        raise AntimagicError(f"a worker process failed: {exc}") from exc


def exhaustive_labeling_search(
    g: OrientedGraph,
    d_set: Iterable[int],
    *,
    budget: int | None = None,
    jobs: int = 1,
    use_pruning: bool = True,
    dm: DistanceMatrix | None = None,
) -> SearchReport:
    """Hunt for the lex-least antimagic labeling by brute force.

    budget caps the scan at a prefix of that many ranks and jobs splits
    it into contiguous chunks, one per process; neither changes the
    witness or its rank.  Runs of labelings skipped because a prefix
    already makes two weights collide count as examined.  use_pruning
    turns the shortcut of the module docstring on or off, nothing else.
    """
    started = time.perf_counter()
    if budget is not None:
        require_int("budget", budget, lo=1)
    n = g.n
    if budget is None and n > MAX_EXHAUSTIVE_ORDER:
        raise InvalidParameterError(
            f"unbudgeted search is capped at order {MAX_EXHAUSTIVE_ORDER}; "
            "pass budget= to scan a prefix of the space")
    space = factorial(n)
    total = space if budget is None else min(budget, space)
    workers = _pool_size(jobs, total)
    nbhd = neighborhood_table(g, d_set, dm=dm)
    if use_pruning and len(set(nbhd)) < n:
        return SearchReport(EXHAUSTED_NONE, None, 0,
                            time.perf_counter() - started, shortcut=True)
    work = [(nbhd, n, a, b) for a, b in _split_range(total, workers)]
    hit = next((result for result in _map(_scan_range, work, workers)
                if result is not None), None)
    elapsed = time.perf_counter() - started
    if hit is not None:
        rank, labels = hit
        return SearchReport(FOUND, labels, rank + 1, elapsed)
    outcome = ABORTED_BUDGET if total < space else EXHAUSTED_NONE
    return SearchReport(outcome, None, total, elapsed)


def exhaustive_magic_search(
    g: OrientedGraph,
    d_set: Iterable[int],
    *,
    dm: DistanceMatrix | None = None,
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All (labels, constant) pairs with every weight equal, in lex order."""
    if g.n > MAX_MAGIC_ORDER:
        raise InvalidParameterError(
            f"the magic scan is capped at order {MAX_MAGIC_ORDER}")
    nbhd = neighborhood_table(g, d_set, dm=dm)
    if _never_magic(nbhd):
        return ()
    hits = []
    for labels in permutations(range(1, g.n + 1)):
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


def _never_magic(nbhd: tuple[tuple[int, ...], ...]) -> bool:
    """Whether two weights differ under every labeling.

    For vertices x and y, w(x) - w(y) is the label sum over
    A = N_D(x) minus N_D(y) less the sum over B = N_D(y) minus N_D(x).
    Labels are distinct and positive, so that is never 0 when exactly
    one of A and B is empty, or when A = {a} and B = {b}.
    """
    hoods = [set(hood) for hood in nbhd]
    for x, y in combinations(hoods, 2):
        only_x, only_y = len(x - y), len(y - x)
        if (only_x == 0) != (only_y == 0) or only_x == only_y == 1:
            return True
    return False


def _lex_rank(labels: tuple[int, ...]) -> int:
    """0-based position of a permutation of 1..n in lexicographic order."""
    rest = sorted(labels)
    rank = 0
    for label in labels:
        rank = rank * len(rest) + rest.index(label)
        rest.remove(label)
    return rank


def enumerate_oriented_graphs(n: int) -> Iterator[OrientedGraph]:
    """Every oriented graph on vertices 0..n-1, in a fixed documented order.

    Vertex pairs are listed lexicographically; each pair independently
    carries no arc, the low-to-high arc, or the high-to-low arc, with
    the last pair varying fastest.  That is 3 ** (n choose 2) graphs.
    """
    require_int("order", n, lo=1)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for digits in product((0, 1, 2), repeat=len(pairs)):
        yield OrientedGraph(n, [(u, v) if digit == 1 else (v, u)
                                for (u, v), digit in zip(pairs, digits)
                                if digit])


def _two_way_arc_sets(n: int) -> Iterator[list[tuple[int, int]]]:
    """Arcs of enumerate_oriented_graphs(n), in order, less dead ends.

    A graph of order 2 or more in which some vertex has no out-arc or no
    in-arc cannot be strongly connected, and is left out.  The vertex
    pairs are walked depth first, last pair deepest.  Vertex u's last
    pair is (u, n - 1), so once it is set, a subtree where u lacks an
    out-arc or an in-arc is dropped whole; vertex n - 1 is checked at
    the leaf.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    out, inc = [0] * n, [0] * n
    arcs: list[tuple[int, int]] = []

    def walk(k: int) -> Iterator[list[tuple[int, int]]]:
        if k == len(pairs):
            if n == 1 or (out[-1] and inc[-1]):
                yield list(arcs)
            return
        u, v = pairs[k]
        for arc in (None, (u, v), (v, u)):
            if arc:
                arcs.append(arc)
                out[arc[0]] += 1
                inc[arc[1]] += 1
            if v < n - 1 or (out[u] and inc[u]):
                yield from walk(k + 1)
            if arc:
                arcs.pop()
                out[arc[0]] -= 1
                inc[arc[1]] -= 1

    return walk(0)


def _canonical_code(
    n: int, arcs: Iterable[tuple[int, int]],
) -> tuple[int, int]:
    """(code, |Aut|): isomorphic graphs, and only they, share the code.

    The code is the least arc bitmask (bit u * n + v for the arc u -> v)
    over the vertex orders that sort vertices by (out-degree, in-degree).
    The orders that reach it differ by automorphisms, so there are |Aut|
    of them.
    """
    out, inc = [0] * n, [0] * n
    for u, v in arcs:
        out[u] += 1
        inc[v] += 1
    key = list(zip(out, inc))
    cells = [[v for v in range(n) if key[v] == k] for k in sorted(set(key))]
    codes = []
    for parts in product(*map(permutations, cells)):
        place = {v: i for i, v in enumerate(chain.from_iterable(parts))}
        codes.append(sum(1 << place[u] * n + place[v] for u, v in arcs))
    best = min(codes)
    return best, codes.count(best)


def _any_arcs(v: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every arc set joining a new vertex v to vertices 0..v-1: 3^v of them."""
    choices = [((), ((u, v),), ((v, u),)) for u in range(v)]
    return (tuple(chain.from_iterable(pick)) for pick in product(*choices))


def _leaf_arcs(v: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """One arc, either way, between a new vertex v and a vertex below it."""
    return ((arc,) for u in range(v) for arc in ((u, v), (v, u)))


def _class_levels(
    n: int,
    new_arcs: Callable[[int], Iterable[tuple[tuple[int, int], ...]]],
) -> list[list[tuple[OrientedGraph, int]]]:
    """(representative, orbit size) of every class of orders 1..n, by order.

    Entry k - 1 holds order k: a new vertex k - 1 joins each class
    representative of order k - 1 through each arc set new_arcs(k - 1)
    offers, and the first graph of each canonical code is kept, with
    orbit size k!/|Aut|.  A child is coded only when its new vertex has
    the largest deletion key (-(out + in), out): least total degree,
    then most out-arcs.  Every graph is a smaller one plus a vertex of
    largest key, so _any_arcs gives every oriented graph; in a tree of
    order >= 2 the vertices of least degree are its leaves, and deleting
    one leaves a tree, so _leaf_arcs gives every oriented tree (vertex
    extension: Read 1978; McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 1998).  Siblings can still be isomorphic; the codes
    merge them.
    """
    levels = [[(OrientedGraph(1, ()), 1)]]
    for k in range(2, n + 1):
        level = {}
        for rep, _ in levels[-1]:
            for extra in new_arcs(k - 1):
                arcs = (*rep.arcs, *extra)
                out, inc = [0] * k, [0] * k
                for u, v in arcs:
                    out[u] += 1
                    inc[v] += 1
                keys = [(-o - i, o) for o, i in zip(out, inc)]
                if keys[-1] < max(keys):
                    continue
                code, automorphisms = _canonical_code(k, arcs)
                if code not in level:
                    level[code] = (OrientedGraph(k, arcs),
                                   factorial(k) // automorphisms)
        levels.append(list(level.values()))
    return levels


def find_magic_graph(
    n: int,
    d_set: Iterable[int],
    target: int | None = None,
) -> SearchReport:
    """First strongly connected graph and labeling with all weights equal.

    Scans the graphs of enumerate_oriented_graphs(n) in order, keeping
    only the strongly connected ones whose partial diameter covers the
    distance set, and walks each one's bijections lexicographically.
    Graphs with a vertex lacking an out-arc or an in-arc are skipped
    unbuilt, whole subtrees of the enumeration at a time.  With target
    set, only that magic constant counts as a hit.  candidates_examined
    totals the labelings tried across qualifying graphs: n! for each
    one scanned without a hit, even when the magic scan ruled it out at
    once, and the witness's 1-based rank on the last.
    """
    started = time.perf_counter()
    require_int("graph hunt order", n, 1, MAX_GRAPH_HUNT_ORDER)
    if target is not None:
        require_int("target", target)
    ds = normalize_distance_set(d_set)
    examined = 0
    for arcs in _two_way_arc_sets(n):
        g = OrientedGraph(n, arcs)
        if not is_strongly_connected(g):
            continue
        dm = all_pairs_distances(g)
        if ds[-1] > dm.partial_diameter:
            continue
        for labels, lam in exhaustive_magic_search(g, ds, dm=dm):
            if target is None or lam == target:
                return SearchReport(
                    FOUND, labels, examined + _lex_rank(labels) + 1,
                    time.perf_counter() - started,
                    witness_graph=g, magic_constant=lam)
        examined += factorial(n)
    return SearchReport(EXHAUSTED_NONE, None, examined,
                        time.perf_counter() - started)


# ---- theorem sweeps ----


@dataclass(frozen=True)
class CharacterizationCheck:
    """Tally of one theorem re-checked mechanically over a swept domain.

    checked counts the cases compared against the theorem and skipped
    the candidate distance sets invalid for their graph.  swept is
    checked + skipped, except in the duality and magic window sweeps,
    where it counts the graphs swept.
    """

    theorem_tag: str
    swept: int
    checked: int
    skipped: int
    counterexamples: tuple[tuple, ...]

    @property
    def agree(self) -> bool:
        return not self.counterexamples


@dataclass
class _Tally:
    """Running counts of one sweep family, frozen by check() at the end."""

    tag: str
    checked: int = 0
    skipped: int = 0
    counterexamples: list[tuple] = field(default_factory=list)

    def record(self, counterexamples: Iterable[tuple] = ()) -> None:
        """Count one check; any counterexample it turned up fails it."""
        self.checked += 1
        self.counterexamples.extend(counterexamples)

    def merge(self, other: _Tally | CharacterizationCheck, times: int = 1) -> None:
        """Add other's counts, times over, and its counterexamples."""
        self.checked += times * other.checked
        self.skipped += times * other.skipped
        self.counterexamples.extend(other.counterexamples)

    def check(self, swept: int | None = None) -> CharacterizationCheck:
        """The finished tally; swept defaults to checked + skipped."""
        if swept is None:
            swept = self.checked + self.skipped
        return CharacterizationCheck(self.tag, swept, self.checked,
                                     self.skipped, tuple(self.counterexamples))


def _powerset(pool: Iterable[int]) -> Iterator[tuple[int, ...]]:
    items = tuple(pool)
    return chain.from_iterable(
        combinations(items, r) for r in range(len(items) + 1))


def _proper_subsets(partial_diam: int) -> Iterator[tuple[int, ...]]:
    """Non-empty subsets of {0..partial_diam} with a non-empty complement."""
    items = range(partial_diam + 1)
    return chain.from_iterable(
        combinations(items, r) for r in range(1, partial_diam + 1))


def _check_predictions(
    g: OrientedGraph,
    cases: Iterable[tuple[_Tally, tuple[int, ...], bool]],
    key: tuple,
) -> None:
    """Compare (tally, distance set, predicted verdict) cases on g to a search.

    A set reaching past the partial diameter counts as skipped in its
    tally.  Each distinct set is searched once; a verdict other than the
    predicted one is recorded as key + (ds, predicted, found).
    """
    dm = all_pairs_distances(g)
    verdicts: dict[tuple[int, ...], bool] = {}
    for tally, ds, predicted in cases:
        if ds[-1] > dm.partial_diameter:
            tally.skipped += 1
            continue
        if ds not in verdicts:
            verdicts[ds] = exhaustive_labeling_search(g, ds, dm=dm).found
        found = verdicts[ds]
        tally.record([] if found == predicted
                     else [key + (ds, predicted, found)])


def _sweep_path_mask(args: tuple[int, int]) -> tuple[_Tally, ...]:
    """Check all four path families on one oriented path (worker body)."""
    n, mask = args
    g = build_path(n, mask)
    kind = classify_path_orientation(g)
    families = (
        (PATH_MIN_ONE,
         ((1,) + extra for extra in _powerset(range(2, n))),
         lambda ds: kind == UNIDIRECTIONAL),
        (PATH_MIN_TWO_PLUS,
         (ds for ds in _powerset(range(2, n)) if ds),
         lambda ds: False),
        (PATH_TOP_DISTANCE,
         (base + (n - 1,) for base in _powerset(range(n - 1))),
         lambda ds: kind == UNIDIRECTIONAL and ds[0] <= 1),
        (PATH_ZERO_PENULTIMATE,
         ((0,) + mid + (n - 2,) for mid in _powerset(range(1, n - 2))),
         lambda ds: kind in (UNIDIRECTIONAL, THETA_PRIME, THETA_DOUBLE_PRIME)),
    )
    tallies = tuple(_Tally(tag) for tag, _, _ in families)
    cases = ((tally, ds, predict(ds))
             for tally, (_, domain, predict) in zip(tallies, families)
             for ds in domain)
    _check_predictions(g, cases, (n, mask))
    return tallies


def check_path_characterizations(
    n_max: int,
    *,
    jobs: int = 1,
) -> tuple[CharacterizationCheck, ...]:
    """Re-check the four path antimagic characterizations up to order n_max.

    For every orientation of every path order 3..n_max and every
    candidate distance set of each family, compare what the theorem
    predicts against a brute-force search.  The families:

    * min distance 1: antimagic exactly for the one-way path
    * min distance 2 or more: never antimagic
    * longest distance present: antimagic exactly when one-way with
      min distance at most 1
    * 0 and the next-to-longest distance present, nothing longer:
      antimagic exactly for the one-way and the two theta orientations

    A path read from its other end has the same kind and verdicts, so
    one mask of each such pair is searched and counted for both masks.
    """
    require_int("path sweep order", n_max, 3, 7)
    work = [(n, mask)
            for n in range(3, n_max + 1)
            for mask in range(2 ** (n - 1))]
    tallies = tuple(map(_Tally, (PATH_MIN_ONE, PATH_MIN_TWO_PLUS,
                                 PATH_TOP_DISTANCE, PATH_ZERO_PENULTIMATE)))
    _weighted_sweep(tallies, _classes(work, _path_class), work, _path_class,
                    _sweep_path_mask, jobs)
    return tuple(tally.check() for tally in tallies)


def _path_class(key: tuple[int, int]) -> tuple:
    """_forest_class of the (n, mask) path, a linear forest of one path."""
    n, mask = key
    return _forest_class(((n,), _mask_to_bits(mask, n - 1)))


def _classes(keys: list, class_of: Callable) -> list[tuple]:
    """(first key, number of keys) of each class_of class, in keys order."""
    classes: dict = {}
    for key in keys:
        classes.setdefault(class_of(key), []).append(key)
    return [(members[0], len(members)) for members in classes.values()]


def _graph_class(g: OrientedGraph) -> int:
    """The canonical code, which names g's isomorphism class."""
    return _canonical_code(g.n, g.arcs)[0]


def _weighted_sweep(
    tallies: tuple[_Tally, ...],
    classes: list[tuple],
    labelled: Iterable,
    class_of: Callable,
    check: Callable,
    jobs: int = 1,
) -> None:
    """Add check over every labelled case to tallies, a class at a time.

    classes lists a (representative, size) pair per class, and class_of
    names the class of any case.  check gives one result per tally, the
    same counts for every case of a class.  The representatives are
    checked through _map, their counts weighted by the class size.  A
    class that turns up a counterexample is re-checked case by case, in
    the order labelled lists them, so its counterexamples are the ones a
    walk over labelled reports.
    """
    flagged = set()
    found = _map(check, [rep for rep, _ in classes], jobs)
    for (rep, size), results in zip(classes, found):
        if any(result.counterexamples for result in results):
            flagged.add(class_of(rep))
        else:
            for tally, result in zip(tallies, results):
                tally.merge(result, size)
    if flagged:
        for case in labelled:
            if class_of(case) in flagged:
                for tally, result in zip(tallies, check(case)):
                    tally.merge(result)


def _check_tree(g: OrientedGraph) -> tuple[_Tally]:
    tally = _Tally(TREE_DEPTH_ONE)
    _check_predictions(g, [(tally, (1,), is_unidirectional_path(g))],
                       (g.n, tuple(sorted(g.arcs))))
    return (tally,)


def check_tree_characterization(n_max: int) -> CharacterizationCheck:
    """Trees with D = {1} are antimagic exactly when they are one-way paths.

    One tree per isomorphism class is searched, its counts weighted by
    the orbit size.  Classes that disagree are re-checked tree by tree in
    enumerate_trees order, giving the labelled sweep's counterexamples.
    """
    require_int("tree sweep order", n_max, 2, 6)
    tally = _Tally(TREE_DEPTH_ONE)
    levels = _class_levels(n_max, _leaf_arcs)
    for n in range(2, n_max + 1):
        _weighted_sweep((tally,), levels[n - 1], enumerate_trees(n),
                        _graph_class, _check_tree)
    return tally.check()


def _partitions(total: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    cap = total if max_part is None else min(max_part, total)
    for first in range(cap, 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _forest_class(key: tuple) -> tuple:
    """Sorted (order, edge bits read from the lesser end) of each path."""
    lengths, bits = key
    edges = iter(bits)
    return tuple(sorted((n, min(part, tuple(1 - b for b in part[::-1])))
                        for n in lengths
                        for part in [tuple(islice(edges, n - 1))]))


def _sweep_forest(key: tuple) -> tuple[_Tally, _Tally]:
    """Families 1 and 2 on one explicitly oriented linear forest."""
    lengths, bits = key
    fam1, fam2 = _Tally(FOREST_MIN_ONE_MULTI), _Tally(FOREST_MIN_TWO_PLUS)
    extras = list(_powerset(range(2, lengths[-1])))
    _check_predictions(
        build_forest(LinearForestSpec.from_lengths(lengths, EXPLICIT, bits)),
        chain(((fam1, (1,) + extra, False) for extra in extras),
              ((fam2, ds, False) for ds in extras if ds)), key)
    return fam1, fam2


def check_forest_lemmas(
    max_total_order: int = 6,
) -> tuple[CharacterizationCheck, ...]:
    """Re-check the linear forest lemmas on every shape up to a total order.

    Five families:

    * two or more components with min distance 1: never antimagic,
      whatever the orientation
    * two or more components with min distance 2 or more: never
    * copies of one path, tail-to-head orientation, min distance 0:
      always antimagic
    * any multi-component forest, tail-to-head orientation, D = {0, 1}:
      always antimagic
    * copies of one path, the same orientation in every copy,
      D = {0, order - 1}: antimagic exactly when the copies are one-way
      (any other uniform orientation cannot even pose the question, so
      those rows count as skipped)

    Families 1 and 2 search one forest per class up to reading a path
    from its other end and swapping equal paths; see _weighted_sweep.
    """
    require_int("forest sweep total order", max_total_order, 2, 8)
    shapes = [tuple(sorted(parts))
              for total in range(2, max_total_order + 1)
              for parts in _partitions(total) if len(parts) > 1]
    keys = [(lengths, _mask_to_bits(mask, edges)) for lengths in shapes
            for edges in [sum(lengths) - len(lengths)]
            for mask in range(2 ** edges)]
    fam1, fam2, fam3, fam4, fam5 = (_Tally(tag) for tag in (
        FOREST_MIN_ONE_MULTI, FOREST_MIN_TWO_PLUS, FOREST_COPIES_MIN_ZERO,
        FOREST_MIXED_ZERO_ONE, FOREST_UNIFORM_ZERO_TOP))
    _weighted_sweep((fam1, fam2), _classes(keys, _forest_class), keys,
                    _forest_class, _sweep_forest)
    for lengths in shapes:  # the phi forest: every edge bit 0
        _check_predictions(build_forest(LinearForestSpec.from_lengths(lengths)),
                           [(fam4, (0, 1), True)], (lengths, "tail-to-head"))

    for n in range(2, max_total_order + 1):
        for m in range(2, max_total_order // n + 1):
            _check_predictions(
                build_forest(mpn_spec(m, n)),
                ((fam3, (0,) + extra, True)
                 for extra in _powerset(range(1, n))),
                ((m, n), "tail-to-head"))
            for copy_mask in range(2 ** (n - 1)):
                copy_bits = _mask_to_bits(copy_mask, n - 1)
                _check_predictions(
                    build_forest(mpn_spec(m, n, EXPLICIT, copy_bits * m)),
                    [(fam5, (0, n - 1), copy_mask in (0, 2 ** (n - 1) - 1))],
                    ((m, n), copy_bits))

    return tuple(tally.check() for tally in (fam1, fam2, fam3, fam4, fam5))


@dataclass(frozen=True)
class UnionBreakdown:
    """The four-cycle shows two good singleton distance sets whose union fails."""

    singleton_zero: SearchReport
    singleton_two: SearchReport
    union_pruned: SearchReport
    union_full: SearchReport

    @property
    def ok(self) -> bool:
        return (self.singleton_zero.found
                and self.singleton_two.found
                and self.union_pruned.outcome == EXHAUSTED_NONE
                and self.union_pruned.shortcut
                and self.union_full.outcome == EXHAUSTED_NONE
                and not self.union_full.shortcut
                and self.union_full.candidates_examined == 24)


def check_union_counterexample() -> UnionBreakdown:
    """Antimagic for {0} and for {2} does not survive taking {0, 2}."""
    g = build_cycle(4)
    dm = all_pairs_distances(g)
    return UnionBreakdown(
        exhaustive_labeling_search(g, (0,), dm=dm),
        exhaustive_labeling_search(g, (2,), dm=dm),
        exhaustive_labeling_search(g, (0, 2), dm=dm),
        exhaustive_labeling_search(g, (0, 2), dm=dm, use_pruning=False))


def _label_iter(
    n: int, trials: int | None, seed: int,
) -> Iterator[tuple[int, ...]]:
    if trials is None:
        yield from permutations(range(1, n + 1))
        return
    rng = random.Random(seed)
    base = list(range(1, n + 1))
    for _ in range(trials):
        rng.shuffle(base)
        yield tuple(base)


def duality_sweep_graph(
    g: OrientedGraph,
    *,
    trials: int | None = None,
    seed: int = 0,
) -> CharacterizationCheck:
    """Check the complement identity on one strongly connected graph.

    Every proper non-empty D with non-empty complement D* is paired with
    every labeling (all of them, or trials random ones).  The weights of
    v under D and D* add up to the labels v reaches: n(n+1)/2 when v's
    BFS ball holds all n vertices.  If every ball does, the identity and
    its corollaries hold under every labeling, and none is drawn.  If a
    ball is short, labels are at least 1, so every (D, labeling) pair is
    a counterexample, listed D by D in _proper_subsets order.
    """
    if trials is None and g.n > 6:
        raise InvalidParameterError(
            "exhaustive duality checks are capped at order 6; pass trials=")
    if trials is not None:
        require_int("trials", trials, 1, MAX_DUALITY_TRIALS)
    if not is_strongly_connected(g):
        raise TheoremPreconditionError(
            "duality needs a strongly connected graph")
    sizes, depths = zip(*((len(ball), dist[ball[-1]])
                          for ball, dist in _balls(g, range(g.n))))
    top = max(depths)
    count = factorial(g.n) if trials is None else trials
    full = min(sizes) == g.n
    sample = () if full else tuple(_label_iter(g.n, trials, seed))
    arcs = tuple(sorted(g.arcs))
    return CharacterizationCheck(
        COMPLEMENT_DUALITY, 1, count * ((2 << top) - 2), 0,
        () if full else tuple((arcs, ds, labels)
                              for ds in _proper_subsets(top)
                              for labels in sample))


def _class_sweep(
    order: int,
    tag: str,
    check_graph: Callable[[OrientedGraph], _Tally | CharacterizationCheck],
) -> CharacterizationCheck:
    """check_graph over every strongly connected graph of one order.

    swept (graphs) and checked count labelled graphs, and counterexamples
    come in enumerate_oriented_graphs order; see _weighted_sweep.
    """
    classes = [(g, orbit) for g, orbit in _class_levels(order, _any_arcs)[-1]
               if is_strongly_connected(g)]
    tally = _Tally(tag)
    _weighted_sweep((tally,), classes, enumerate_oriented_graphs(order),
                    _graph_class, lambda g: (check_graph(g),))
    return tally.check(swept=sum(orbit for _, orbit in classes))


def duality_sweep(
    order: int,
    *,
    trials: int | None = None,
    seed: int = 0,
) -> CharacterizationCheck:
    """Complement identity over every strongly connected graph of one order.

    swept and checked count labelled graphs, reached by checking one
    graph per isomorphism class and weighting it by its orbit size.
    With trials set, the seeded sample is drawn once per class
    representative, and counts as that sample relabelled on each member.
    """
    require_int("duality sweep order", order, 2, MAX_DUALITY_ORDER)
    if trials is not None:
        require_int("trials", trials, 1, MAX_DUALITY_TRIALS)
    return _class_sweep(
        order, COMPLEMENT_DUALITY,
        lambda g: duality_sweep_graph(g, trials=trials, seed=seed))


def _magic_window_graph(g: OrientedGraph, low: int, high: int) -> _Tally:
    """The magic window on one graph, one check per proper distance set."""
    dm = all_pairs_distances(g)
    tally = _Tally(MAGIC_WINDOW)
    for ds in _proper_subsets(dm.partial_diameter):
        tally.record((tuple(sorted(g.arcs)), ds, labels, lam)
                     for labels, lam in exhaustive_magic_search(g, ds, dm=dm)
                     if not low <= lam <= high)
    return tally


def magic_bound_sweep(order: int) -> CharacterizationCheck:
    """Every magic constant over strongly connected graphs sits in a window.

    For order n at least 3 and proper non-empty distance sets, the
    constant can never dip below 5 nor rise above n(n + 1)/2 - 5.
    checked counts (graph, distance set) pairs whose magic labelings
    were enumerated.  Both counts are over labelled graphs, reached by
    scanning one graph per isomorphism class and weighting it by its
    orbit size.
    """
    require_int("magic window sweep order", order, 3, MAX_GRAPH_HUNT_ORDER)
    low = 5
    high = order * (order + 1) // 2 - 5
    return _class_sweep(order, MAGIC_WINDOW,
                        lambda g: _magic_window_graph(g, low, high))


@dataclass(frozen=True)
class NeighborhoodSurvey:
    """How far distinct neighborhoods sit from implying antimagic."""

    order: int
    pairs: int
    necessary_ok: int
    antimagic: int
    gap: int


def survey_neighborhood_sufficiency(order: int) -> NeighborhoodSurvey:
    """Tabulate the necessary condition against actual existence.

    Over every oriented graph of the order and every valid non-empty
    distance set: pairs counts the combinations, necessary_ok those
    with all neighborhoods distinct, antimagic those where a labeling
    exists, and gap those passing the necessary condition yet failing
    the search.  At small orders the gap is zero; nothing here proves
    it stays zero, hence a survey rather than a theorem sweep.  The
    counts are over labelled graphs, reached by searching one graph per
    isomorphism class and weighting it by its orbit size.
    """
    require_int("survey order", order, 1, MAX_SURVEY_ORDER)
    pairs = necessary_ok = antimagic = gap = 0
    for g, weight in _class_levels(order, _any_arcs)[-1]:
        dm = all_pairs_distances(g)
        for ds in _powerset(range(dm.partial_diameter + 1)):
            if not ds:
                continue
            report = exhaustive_labeling_search(g, ds, dm=dm)
            # the search shortcuts exactly when the necessary condition fails
            necessary = not report.shortcut
            pairs += weight
            if necessary:
                necessary_ok += weight
            if report.found:
                antimagic += weight
            if necessary and not report.found:
                gap += weight
    return NeighborhoodSurvey(order, pairs, necessary_ok, antimagic, gap)


def render_checks_table(checks: Iterable[CharacterizationCheck]) -> str:
    """Plain text summary table, one row per sweep family."""
    rows = [("family", "swept", "checked", "skipped", "counterexamples",
             "status")]
    for check in checks:
        rows.append((check.theorem_tag, str(check.swept), str(check.checked),
                     str(check.skipped), str(len(check.counterexamples)),
                     "ok" if check.agree else "FAIL"))
    widths = [max(len(row[col]) for row in rows) for col in range(6)]
    lines = [
        "  ".join(cell.ljust(widths[col])
                  for col, cell in enumerate(row)).rstrip()
        for row in rows
    ]
    return "\n".join(lines)
