"""Brute-force searches and theorem sweeps against independent oracles."""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from itertools import combinations, islice, permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from antimagic import (
    ABORTED_BUDGET,
    EXHAUSTED_NONE,
    EXPLICIT,
    AntimagicError,
    FOUND,
    InvalidParameterError,
    LinearForestSpec,
    OrientedGraph,
    TheoremPreconditionError,
    all_pairs_distances,
    build_cycle,
    build_forest,
    build_path,
    check_forest_lemmas,
    check_path_characterizations,
    check_tree_characterization,
    check_union_counterexample,
    classify_path_orientation,
    duality_sweep,
    duality_sweep_graph,
    enumerate_oriented_graphs,
    enumerate_trees,
    exhaustive_labeling_search,
    exhaustive_magic_search,
    find_magic_graph,
    is_strongly_connected,
    magic_bound_sweep,
    render_checks_table,
    survey_neighborhood_sufficiency,
    weak_components,
)
from antimagic import labeling, search
from antimagic.cli import main
from antimagic.search import _lex_rank, _split_range
from strategies import graphs_with_distance_sets, oriented_graphs


# ---- the labeling search itself ----


def test_witness_is_the_lex_least_labeling():
    g = build_path(4, 0)
    report = exhaustive_labeling_search(g, (0, 1))
    expected = oracles.all_antimagic_labelings(4, sorted(g.arcs), (0, 1))
    assert report.found
    assert report.witness == expected[0]
    assert report.candidates_examined >= 1


def test_single_vertex_search():
    report = exhaustive_labeling_search(build_path(1, 0), (0,))
    assert report.found
    assert report.witness == (1,)
    assert report.candidates_examined == 1


def test_pruning_shortcut_reports_zero_candidates():
    report = exhaustive_labeling_search(build_cycle(4), (0, 2))
    assert report.outcome == EXHAUSTED_NONE
    assert report.shortcut
    assert report.candidates_examined == 0
    assert report.witness is None
    assert not report.found


def test_full_scan_without_pruning():
    report = exhaustive_labeling_search(build_cycle(4), (0, 2),
                                        use_pruning=False)
    assert report.outcome == EXHAUSTED_NONE
    assert not report.shortcut
    assert report.candidates_examined == 24


def test_budget_abort_and_exact_budget():
    g = build_cycle(4)
    aborted = exhaustive_labeling_search(g, (0, 2), budget=5,
                                         use_pruning=False)
    assert aborted.outcome == ABORTED_BUDGET
    assert aborted.candidates_examined == 5
    exact = exhaustive_labeling_search(g, (0, 2), budget=24,
                                       use_pruning=False)
    assert exact.outcome == EXHAUSTED_NONE
    assert exact.candidates_examined == 24


def test_oversized_budget_is_clamped_to_the_space():
    report = exhaustive_labeling_search(build_cycle(4), (0, 2),
                                        budget=10 ** 9, use_pruning=False)
    assert report.outcome == EXHAUSTED_NONE
    assert report.candidates_examined == 24


def test_parallel_matches_serial_on_a_late_chunk_witness():
    g = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 1)])
    serial = exhaustive_labeling_search(g, (0, 2))
    assert serial.witness == (1, 4, 3, 2)
    assert serial.candidates_examined == 6
    chunks = _split_range(factorial(4), 5)
    assert chunks == [(0, 5), (5, 10), (10, 15), (15, 20), (20, 24)]
    rank = serial.candidates_examined - 1
    assert chunks[1][0] <= rank < chunks[1][1]
    parallel = exhaustive_labeling_search(g, (0, 2), jobs=5)
    assert parallel.witness == serial.witness
    assert parallel.candidates_examined == serial.candidates_examined
    assert parallel.outcome == serial.outcome


def test_parallel_matches_serial_when_nothing_exists():
    g = build_cycle(4)
    serial = exhaustive_labeling_search(g, (0, 2), use_pruning=False)
    parallel = exhaustive_labeling_search(g, (0, 2), jobs=3,
                                          use_pruning=False)
    assert (serial.outcome, serial.candidates_examined) == \
        (parallel.outcome, parallel.candidates_examined)


class _InlinePool:
    """Stand-in for ProcessPoolExecutor: records its size, maps in-process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.chunksize = chunksize
        return map(fn, items)


def test_worker_count_is_capped_by_cpus_and_tasks(monkeypatch):
    sizes = []
    monkeypatch.setattr(search, "ProcessPoolExecutor",
                        lambda max_workers: _InlinePool(sizes, max_workers))
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    g = build_cycle(4)
    serial = exhaustive_labeling_search(g, (0, 2), use_pruning=False)
    huge = exhaustive_labeling_search(g, (0, 2), jobs=10 ** 6,
                                      use_pruning=False)
    assert (huge.outcome, huge.candidates_examined) == \
        (serial.outcome, serial.candidates_examined)
    short = exhaustive_labeling_search(g, (0, 2), jobs=10 ** 6, budget=2,
                                       use_pruning=False)
    assert (short.outcome, short.candidates_examined) == (ABORTED_BUDGET, 2)
    assert check_path_characterizations(3, jobs=10 ** 6) == \
        check_path_characterizations(3)
    assert sizes == [3, 2, 3]


def test_each_worker_gets_one_contiguous_chunk(monkeypatch):
    pools = []

    def make(max_workers):
        pools.append(_InlinePool([], max_workers))
        return pools[-1]

    monkeypatch.setattr(search, "ProcessPoolExecutor", make)
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    # orders 3..5 give 3 + 4 + 10 path orientations up to reading a path
    # from its other end, one task each
    assert check_path_characterizations(5, jobs=2) == \
        check_path_characterizations(5)
    exhaustive_labeling_search(build_cycle(4), (0, 2), jobs=2,
                               use_pruning=False)
    assert [pool.chunksize for pool in pools] == [9, 1]


class _BrokenPool(_InlinePool):
    """Stand-in for a pool whose worker process died."""

    def map(self, fn, items, chunksize=1):
        raise BrokenProcessPool("a child process terminated abruptly")


def test_a_failed_worker_is_a_clean_error(monkeypatch, capsys):
    monkeypatch.setattr(search, "ProcessPoolExecutor",
                        lambda max_workers: _BrokenPool([], max_workers))
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    with pytest.raises(AntimagicError, match="worker process failed"):
        exhaustive_labeling_search(build_cycle(4), (0, 2), jobs=2,
                                   use_pruning=False)
    with pytest.raises(AntimagicError, match="worker process failed"):
        check_path_characterizations(3, jobs=2)
    assert main(["search", "--cycle", "4", "--D", "0,2", "--no-prune",
                 "--jobs", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("g, ds, shortcut", [
    (build_cycle(4), (0, 2), True), (build_path(4, 0), (0, 1), False)])
def test_search_builds_one_neighborhood_table(monkeypatch, g, ds, shortcut):
    built = []
    real = labeling.neighborhood_table

    def counted(*args, **kwargs):
        built.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(labeling, "neighborhood_table", counted)
    monkeypatch.setattr(search, "neighborhood_table", counted)
    report = exhaustive_labeling_search(g, ds)
    assert report.shortcut == shortcut
    assert built == [ds]
    # budget and jobs are still checked before the shortcut
    for bad in ({"budget": 0}, {"jobs": 0}):
        with pytest.raises(InvalidParameterError):
            exhaustive_labeling_search(g, ds, **bad)


def test_search_rejects_bad_limits_before_building_a_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("neighborhood table built")

    monkeypatch.setattr(search, "neighborhood_table", no_table)
    with pytest.raises(InvalidParameterError, match="capped at order"):
        exhaustive_labeling_search(build_path(11, 0), (1,))
    for bad in ({"budget": 0}, {"jobs": 0}):
        with pytest.raises(InvalidParameterError):
            exhaustive_labeling_search(build_path(3, 0), (1,), **bad)


@pytest.mark.parametrize("jobs", [0, -1, True, 2.5])
def test_path_characterizations_reject_bad_jobs(jobs):
    with pytest.raises(InvalidParameterError, match="jobs"):
        check_path_characterizations(3, jobs=jobs)


def test_search_parameter_validation():
    g = build_cycle(3)
    with pytest.raises(InvalidParameterError):
        exhaustive_labeling_search(g, (0,), budget=0)
    with pytest.raises(InvalidParameterError):
        exhaustive_labeling_search(g, (0,), budget=True)
    with pytest.raises(InvalidParameterError):
        exhaustive_labeling_search(g, (0,), jobs=0)
    with pytest.raises(InvalidParameterError, match="capped at order"):
        exhaustive_labeling_search(build_path(11, 0), (1,))
    report = exhaustive_labeling_search(build_path(11, 0), (1,), budget=10)
    assert report.outcome in (FOUND, ABORTED_BUDGET)


@settings(max_examples=40, deadline=None)
@given(graphs_with_distance_sets())
def test_search_agrees_with_the_oracle(pair):
    g, ds = pair
    report = exhaustive_labeling_search(g, ds, use_pruning=False)
    expected = oracles.all_antimagic_labelings(g.n, sorted(g.arcs), ds)
    if expected:
        assert report.found
        assert report.witness == expected[0]
    else:
        assert report.outcome == EXHAUSTED_NONE
        assert report.candidates_examined == factorial(g.n)


@settings(max_examples=40, deadline=None)
@given(graphs_with_distance_sets())
def test_pruning_never_changes_the_outcome(pair):
    g, ds = pair
    pruned = exhaustive_labeling_search(g, ds)
    full = exhaustive_labeling_search(g, ds, use_pruning=False)
    assert pruned.found == full.found
    if pruned.found:
        assert pruned.witness == full.witness


# ---- the pruning walk against the flat scan ----


SCAN_BUDGETS = (None, 1, 2, 5, 7, 13, 24)


def _scan_key(g, ds, **kwargs):
    report = exhaustive_labeling_search(g, ds, use_pruning=False, **kwargs)
    return report.outcome, report.witness, report.candidates_examined


def _valid_distance_sets(dm):
    return [ds for ds in search._powerset(range(dm.partial_diameter + 1))
            if ds]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_scan_matches_the_flat_scan_on_every_small_graph(n):
    for g in enumerate_oriented_graphs(n):
        dm = all_pairs_distances(g)
        for ds in _valid_distance_sets(dm):
            hoods = oracles.neighborhood_table(n, sorted(g.arcs), ds)
            for budget in SCAN_BUDGETS:
                assert _scan_key(g, ds, budget=budget, dm=dm) == \
                    oracles.flat_search(hoods, budget), (g.arcs, ds, budget)


def test_a_walk_down_to_the_leaves_matches_the_flat_scan(monkeypatch):
    # with no flat tail every order-4 table is walked label by label
    monkeypatch.setattr(search, "_FLAT_TAIL", 0)
    for g in enumerate_oriented_graphs(4):
        dm = all_pairs_distances(g)
        for ds in _valid_distance_sets(dm):
            hoods = oracles.neighborhood_table(4, sorted(g.arcs), ds)
            for start, stop in ((0, 13), (7, 24)):
                work = (hoods, 4, start, stop)
                assert search._scan_range(work) == oracles.scan_range(work)


def _sampled_forest(rng, n):
    """A seeded oriented linear forest of total order n, two or more paths."""
    parts = [p for p in search._partitions(n) if len(p) > 1]
    lengths = tuple(sorted(rng.choice(parts)))
    edges = n - len(lengths)
    return build_forest(LinearForestSpec.from_lengths(
        lengths, EXPLICIT, [rng.randrange(2) for _ in range(edges)]))


@pytest.mark.parametrize("n", [5, 6, 7])
def test_scan_matches_the_flat_scan_on_sampled_paths_cycles_and_forests(n):
    rng = random.Random(9000 + n)
    graphs = [build_cycle(n)]
    graphs += [build_path(n, rng.randrange(2 ** (n - 1))) for _ in range(4)]
    graphs += [_sampled_forest(rng, n) for _ in range(3)]
    for g in graphs:
        dm = all_pairs_distances(g)
        sets = _valid_distance_sets(dm)
        for ds in rng.sample(sets, min(4, len(sets))):
            hoods = oracles.neighborhood_table(n, sorted(g.arcs), ds)
            for budget in (None, rng.randrange(1, factorial(n))):
                assert _scan_key(g, ds, budget=budget, dm=dm) == \
                    oracles.flat_search(hoods, budget), (g.arcs, ds, budget)


def _pruned_block(hoods, rank):
    """Length of the shortest prefix of labeling rank whose final weights collide."""
    n = len(hoods)
    labels = next(islice(permutations(range(1, n + 1)), rank, None))
    for k in range(n + 1):
        weights = [sum(labels[u] for u in hood)
                   for hood in hoods if all(u < k for u in hood)]
        if len(set(weights)) < len(weights):
            return k
    return None


def test_chunks_and_budgets_may_cut_through_a_pruned_block(monkeypatch):
    monkeypatch.setattr(search, "ProcessPoolExecutor",
                        lambda max_workers: _InlinePool([], max_workers))
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    g = OrientedGraph(7, [(1, 2), (1, 3), (2, 0), (5, 2)])
    hoods = oracles.neighborhood_table(7, sorted(g.arcs), (0, 2))
    # the witness has rank 482, in the last chunk for jobs 2 and 3; the
    # budget's end 499 and the chunk starts 250 (jobs=2) and 167 (jobs=3)
    # all fall strictly inside runs the walk skips above the flat tail,
    # and with budget 962 the jobs=2 chunk start 481 falls inside the
    # flat tail's block of ranks 480..485, before the witness
    assert oracles.flat_search(hoods)[2] == 482
    assert [a for a, _ in _split_range(499, 2)] == [0, 250]
    assert [a for a, _ in _split_range(499, 3)] == [0, 167, 333]
    assert [a for a, _ in _split_range(962, 2)] == [0, 481]
    for rank in (499, 250, 167):
        k = _pruned_block(hoods, rank)
        assert k <= 7 - search._FLAT_TAIL and rank % factorial(7 - k)
    for budget in (None, 481, 482, 499, 962):
        expected = oracles.flat_search(hoods, budget)
        for jobs in (1, 2, 3):
            assert _scan_key(g, (0, 2), budget=budget, jobs=jobs) == \
                expected, (budget, jobs)


# ---- magic labelings ----


def test_magic_search_on_the_four_cycle():
    hits = exhaustive_magic_search(build_cycle(4), (1, 3))
    assert len(hits) == 8
    assert hits[0] == ((1, 2, 4, 3), 5)
    assert {lam for _, lam in hits} == {5}


def test_magic_search_full_window_on_the_triangle():
    hits = exhaustive_magic_search(build_cycle(3), (0, 1, 2))
    assert len(hits) == 6
    assert {lam for _, lam in hits} == {6}


def test_magic_search_agrees_with_the_oracle():
    for g, ds in [
        (build_cycle(4), (1, 3)),
        (build_cycle(5), (1,)),
        (build_path(4, 0), (0, 1)),
    ]:
        hits = exhaustive_magic_search(g, ds)
        assert list(hits) == oracles.all_magic_labelings(
            g.n, sorted(g.arcs), ds)


def valid_distance_sets(dm):
    return (ds for ds in search._powerset(range(dm.partial_diameter + 1))
            if ds)


@pytest.mark.parametrize("n", range(1, 5))
def test_magic_search_agrees_with_the_oracle_on_every_graph(n):
    for g in enumerate_oriented_graphs(n):
        dm = all_pairs_distances(g)
        for ds in valid_distance_sets(dm):
            assert exhaustive_magic_search(g, ds, dm=dm) == tuple(
                oracles.all_magic_labelings(n, sorted(g.arcs), ds)), \
                (sorted(g.arcs), ds)


def test_magic_search_agrees_with_the_flat_loop_on_order_5_classes():
    # both sides survive relabelling, so the classes cover every graph
    pairs = ruled_out = 0
    for g, _ in search._class_levels(5, search._any_arcs)[-1]:
        dm = all_pairs_distances(g)
        for ds in valid_distance_sets(dm):
            nbhd = labeling.neighborhood_table(g, ds, dm=dm)
            pairs += 1
            ruled_out += search._never_magic(nbhd)
            assert exhaustive_magic_search(g, ds, dm=dm) == \
                oracles.flat_magic_labelings(nbhd), (sorted(g.arcs), ds)
    assert (pairs, ruled_out) == (6812, 6675)


@pytest.mark.parametrize("g, ds", [
    # N(1) = {1, 2} holds N(2) = {2}: exactly one side is empty
    (build_path(3, 0), (0, 1)),
    # N(0) = {1} and N(1) = {2} differ in one vertex each
    (build_cycle(4), (1,)),
])
def test_magic_search_rules_out_never_magic_tables(g, ds):
    nbhd = labeling.neighborhood_table(g, ds)
    assert search._never_magic(nbhd)
    assert oracles.flat_magic_labelings(nbhd) == ()
    assert exhaustive_magic_search(g, ds) == ()


def test_magic_search_order_guard():
    with pytest.raises(InvalidParameterError):
        exhaustive_magic_search(build_path(9, 0), (1,))


# ---- graph enumeration and the magic graph hunt ----


def test_enumeration_counts():
    for n, count in ((1, 1), (2, 3), (3, 27), (4, 729)):
        graphs = list(enumerate_oriented_graphs(n))
        assert len(graphs) == count
        assert len({g.arcs for g in graphs}) == count


def test_strongly_connected_counts():
    counts = [sum(1 for g in enumerate_oriented_graphs(n)
                  if is_strongly_connected(g)) for n in (2, 3, 4)]
    assert counts == [0, 2, 66]


def test_enumeration_rejects_bad_order():
    with pytest.raises(InvalidParameterError):
        list(enumerate_oriented_graphs(0))


# oriented graphs up to isomorphism (OEIS A001174), all and strongly connected
CLASS_COUNTS = {1: (1, 1), 2: (2, 0), 3: (7, 1), 4: (42, 4), 5: (582, 76)}


def code_orbits(n, classes):
    """canonical code -> orbit size of each (representative, orbit size)."""
    return {search._canonical_code(n, g.arcs)[0]: orbit for g, orbit in classes}


@pytest.mark.parametrize("n", sorted(CLASS_COUNTS))
def test_isomorphism_classes_partition_the_enumeration(n):
    levels = search._class_levels(n, search._any_arcs)
    assert [len(level) for level in levels] == \
        [CLASS_COUNTS[k][0] for k in range(1, n + 1)]
    classes = levels[-1]
    assert sum(is_strongly_connected(g) for g, _ in classes) == \
        CLASS_COUNTS[n][1]
    assert sum(orbit for _, orbit in classes) == 3 ** comb(n, 2)
    # the oracle index reads each orbit off the enumeration it partitions
    oracle = list(oracles.isomorphism_classes(n))
    codes = [code for _, orbit in oracle for code in orbit]
    assert sorted(codes) == list(range(3 ** comb(n, 2)))
    for _, orbit in oracle:
        assert factorial(n) % len(orbit) == 0
        assert list(orbit) == sorted(orbit)
    # each oracle representative is its orbit's lowest code, in first-seen
    # order
    reps = {orbit[0]: g for g, orbit in oracle}
    assert list(reps) == sorted(reps)
    for code, g in enumerate(enumerate_oriented_graphs(n)):
        if code in reps:
            assert reps[code] == g
    assert code_orbits(n, classes) == \
        code_orbits(n, ((g, len(orbit)) for g, orbit in oracle))


@pytest.mark.parametrize("n", range(1, 5))
def test_isomorphism_class_orbits_are_the_relabellings(n):
    graphs = list(enumerate_oriented_graphs(n))
    for rep, orbit in oracles.isomorphism_classes(n):
        relabelled = {frozenset((p[u], p[v]) for u, v in rep.arcs)
                      for p in permutations(range(n))}
        assert relabelled == {graphs[code].arcs for code in orbit}


@pytest.mark.parametrize("n", range(1, 5))
def test_canonical_code_names_the_isomorphism_classes(n):
    graphs = list(enumerate_oriented_graphs(n))
    codes = set()
    for _, orbit in oracles.isomorphism_classes(n):
        found = {search._canonical_code(n, graphs[code].arcs)
                 for code in orbit}
        assert len(found) == 1
        code, automorphisms = found.pop()
        assert factorial(n) // automorphisms == len(orbit)
        codes.add(code)
    assert len(codes) == CLASS_COUNTS[n][0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_canonical_code_survives_relabelling(data):
    g = data.draw(oriented_graphs(1, 7))
    p = data.draw(st.permutations(range(g.n)))
    code, automorphisms = search._canonical_code(g.n, g.arcs)
    assert search._canonical_code(
        g.n, [(p[u], p[v]) for u, v in g.arcs]) == (code, automorphisms)
    assert factorial(g.n) % automorphisms == 0


# oriented trees up to isomorphism (OEIS A000238)
TREE_CLASS_COUNTS = {1: 1, 2: 1, 3: 3, 4: 8, 5: 27, 6: 91, 7: 350}


def is_tree(g):
    return g.arc_count == g.n - 1 and len(weak_components(g)) == 1


@pytest.mark.parametrize("n", sorted(TREE_CLASS_COUNTS))
def test_tree_classes_count_every_labelled_tree(n):
    levels = search._class_levels(n, search._leaf_arcs)
    assert [len(level) for level in levels] == \
        [TREE_CLASS_COUNTS[k] for k in range(1, n + 1)]
    classes = levels[-1]
    # n^(n-2) labelled trees (Cayley), each oriented 2^(n-1) ways
    assert sum(orbit for _, orbit in classes) == \
        (n ** (n - 2) * 2 ** (n - 1) if n > 1 else 1)
    for g, orbit in classes:
        assert is_tree(g)
        assert factorial(n) % orbit == 0


@pytest.mark.parametrize("n", range(1, 6))
def test_tree_class_orbits_partition_the_labelled_trees(n):
    orbits = code_orbits(n, search._class_levels(n, search._leaf_arcs)[-1])
    hits = Counter(search._canonical_code(n, g.arcs)[0]
                   for g in enumerate_trees(n))
    assert hits == orbits
    oracle = ((g, len(orbit)) for g, orbit in oracles.isomorphism_classes(n)
              if is_tree(g))
    assert code_orbits(n, oracle) == orbits


@pytest.mark.parametrize("n, new_arcs, calls, cap", [
    # coding every child, with no key check, takes 3612 and 358 calls
    (5, search._any_arcs, 898, 3612 // 3),
    (6, search._leaf_arcs, 234, 358 - 1),
])
def test_class_levels_code_only_children_of_largest_deletion_key(
        monkeypatch, n, new_arcs, calls, cap):
    coded = []
    canonical_code = search._canonical_code

    def counting(k, arcs):
        coded.append(k)
        return canonical_code(k, arcs)

    monkeypatch.setattr(search, "_canonical_code", counting)
    search._class_levels(n, new_arcs)
    assert len(coded) == calls <= cap


def test_magic_graph_hunt_finds_a_frozen_witness():
    report = find_magic_graph(5, (0, 2, 3), 10)
    assert report.found
    assert report.witness == (1, 4, 2, 3, 5)
    assert sorted(report.witness_graph.arcs) == [
        (0, 3), (1, 2), (2, 4), (3, 4), (4, 0), (4, 1)]
    assert report.candidates_examined == 1213
    assert report.magic_constant == 10


def test_magic_graph_hunt_exhausts_small_orders():
    report = find_magic_graph(3, (1,))
    assert report.outcome == EXHAUSTED_NONE
    assert report.candidates_examined == 12
    empty = find_magic_graph(2, (0,))
    assert empty.outcome == EXHAUSTED_NONE
    assert empty.candidates_examined == 0


@pytest.mark.parametrize("ds, target, outcome, examined", [
    ((1,), -1, EXHAUSTED_NONE, 120 * 7998),
    ((0, 4), None, EXHAUSTED_NONE, 571680),
    ((1,), None, FOUND, 43813),
])
def test_magic_graph_hunt_order_5_pins(ds, target, outcome, examined):
    report = find_magic_graph(5, ds, target)
    assert (report.outcome, report.candidates_examined) == (outcome, examined)
    if report.found:
        assert report.witness == (1, 4, 2, 3, 5)
        assert report.magic_constant == 5
        assert sorted(report.witness_graph.arcs) == [
            (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4), (4, 0), (4, 1)]


@pytest.mark.parametrize("n", range(1, 5))
def test_hunt_skips_exactly_the_graphs_with_a_dead_end(n):
    kept = [OrientedGraph(n, arcs) for arcs in search._two_way_arc_sets(n)]
    graphs = list(enumerate_oriented_graphs(n))
    assert kept == [g for g in graphs if n == 1 or (
        all(g.successors) and all(g.predecessors))]
    assert [g for g in kept if is_strongly_connected(g)] == \
        [g for g in graphs if is_strongly_connected(g)]


def test_lex_rank_matches_the_permutation_order():
    for n in range(1, 7):
        for rank, labels in enumerate(permutations(range(1, n + 1))):
            assert _lex_rank(labels) == rank


def _hunt_by_oracle(n, ds):
    """(graph, magic labelings) for each graph the hunt scans, in order."""
    out = []
    for g in enumerate_oriented_graphs(n):
        arcs = sorted(g.arcs)
        dist = oracles.floyd_warshall(n, arcs)
        finite = [d for row in dist for d in row if d is not None]
        if len(finite) == n * n and max(finite) >= ds[-1]:
            out.append((g, oracles.all_magic_labelings(n, arcs, ds)))
    return out


def test_magic_graph_hunt_agrees_with_the_oracle():
    for n in range(1, 5):
        space = list(permutations(range(1, n + 1)))
        for size in range(1, n + 1):
            for ds in combinations(range(n), size):
                graphs = _hunt_by_oracle(n, ds)
                lams = sorted({lam for _, hits in graphs for _, lam in hits})
                for target in (None, -1, *lams):
                    expected = (EXHAUSTED_NONE, None, None, None)
                    examined = 0
                    for g, hits in graphs:
                        hit = next((h for h in hits
                                    if target is None or h[1] == target), None)
                        if hit is not None:
                            expected = (FOUND, hit[0], g, hit[1])
                            examined += space.index(hit[0]) + 1
                            break
                        examined += len(space)
                    report = find_magic_graph(n, ds, target)
                    assert (report.outcome, report.witness,
                            report.witness_graph,
                            report.magic_constant) == expected
                    assert report.candidates_examined == examined


def test_magic_graph_hunt_order_guard():
    with pytest.raises(InvalidParameterError):
        find_magic_graph(6, (1,))


@pytest.mark.parametrize("target", ["5", True, 5.0])
def test_magic_graph_hunt_rejects_a_non_int_target(target):
    with pytest.raises(InvalidParameterError):
        find_magic_graph(4, (0, 2), target)


# ---- theorem sweeps ----


def test_path_characterizations_frozen_counts():
    rows = {c.theorem_tag: c for c in check_path_characterizations(5)}
    assert all(c.agree for c in rows.values())
    assert (rows["path-min-1"].swept,
            rows["path-min-1"].checked,
            rows["path-min-1"].skipped) == (168, 74, 94)
    assert (rows["path-min-2-plus"].swept,
            rows["path-min-2-plus"].checked,
            rows["path-min-2-plus"].skipped) == (140, 46, 94)
    assert (rows["path-top-distance"].swept,
            rows["path-top-distance"].checked,
            rows["path-top-distance"].skipped) == (336, 56, 280)
    assert (rows["path-zero-penultimate"].swept,
            rows["path-zero-penultimate"].checked,
            rows["path-zero-penultimate"].skipped) == (84, 40, 44)
    for c in rows.values():
        assert c.swept == c.checked + c.skipped


def test_path_characterizations_parallel_matches_serial():
    serial = check_path_characterizations(4)
    parallel = check_path_characterizations(4, jobs=2)
    assert serial == parallel


def test_path_characterizations_order_guard():
    with pytest.raises(InvalidParameterError):
        check_path_characterizations(2)
    with pytest.raises(InvalidParameterError):
        check_path_characterizations(8)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("n_max", range(3, 8))
def test_path_characterizations_match_the_labelled_path_sweep(n_max, jobs):
    assert check_path_characterizations(n_max, jobs=jobs) == \
        oracles.check_path_characterizations(n_max, jobs=jobs)


def _read_backwards(n, mask):
    """The orientation mask of the n-path numbered from its other end."""
    width = n - 1
    return int(format(mask, f"0{width}b")[::-1], 2) ^ ((1 << width) - 1)


def _same_partition(items, key_a, key_b):
    pairs = {(key_a(item), key_b(item)) for item in items}
    return len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


@pytest.mark.parametrize("n", range(3, 9))
def test_a_path_read_backwards_keeps_its_class_and_kind(n):
    masks = range(2 ** (n - 1))
    for mask in masks:
        g, h = build_path(n, mask), build_path(n, _read_backwards(n, mask))
        assert search._canonical_code(n, g.arcs) == \
            search._canonical_code(n, h.arcs)
        assert classify_path_orientation(g) == classify_path_orientation(h)
    # the sweep's class key splits the orientations as the code does
    assert _same_partition(
        masks, lambda mask: search._forest_class(
            ((n,), search._mask_to_bits(mask, n - 1))),
        lambda mask: search._canonical_code(n, build_path(n, mask).arcs))


def _labelled_forests(max_total_order):
    """(lengths, bits) of every forest the forest sweep covers, in its order."""
    for total in range(2, max_total_order + 1):
        for parts in search._partitions(total):
            if len(parts) > 1:
                lengths = tuple(sorted(parts))
                edges = total - len(parts)
                for mask in range(2 ** edges):
                    yield lengths, search._mask_to_bits(mask, edges)


def test_forest_classes_are_the_isomorphism_classes():
    keys = list(_labelled_forests(8))

    def code(key):
        g = build_forest(LinearForestSpec.from_lengths(key[0], EXPLICIT, key[1]))
        return search._canonical_code(g.n, g.arcs)

    assert len(keys) == 851
    assert len({search._forest_class(key) for key in keys}) == 309
    assert _same_partition(keys, search._forest_class, code)


def test_tree_characterization_frozen_counts():
    check = check_tree_characterization(4)
    assert check.agree
    assert (check.swept, check.checked, check.skipped) == (142, 142, 0)


def test_tree_characterization_order_six_frozen_counts():
    check = check_tree_characterization(6)
    assert check.agree
    assert (check.swept, check.checked, check.skipped) == (43614, 43614, 0)


@pytest.mark.parametrize("n_max", range(2, 6))
def test_tree_characterization_matches_the_labelled_tree_sweep(n_max):
    assert check_tree_characterization(n_max) == \
        oracles.check_tree_characterization(n_max)


def test_tree_characterization_counterexamples_match_the_labelled_tree_sweep(
        monkeypatch):
    # a flipped search verdict fails every class; the re-check lists every
    # labelled tree in enumerate_trees order
    real = search.exhaustive_labeling_search

    def flipped(*args, **kwargs):
        report = real(*args, **kwargs)
        return replace(report,
                       outcome=EXHAUSTED_NONE if report.found else FOUND)

    monkeypatch.setattr(search, "exhaustive_labeling_search", flipped)
    fast = check_tree_characterization(5)
    slow = oracles.check_tree_characterization(5)
    assert len(fast.counterexamples) == len(slow.counterexamples) == 2142
    for got, expected in zip(fast.counterexamples, slow.counterexamples):
        assert got == expected
    assert fast == slow


def test_sweeps_report_counterexamples_in_work_order(monkeypatch):
    # a wrong prediction for every one-way path turns each into a counterexample
    monkeypatch.setattr(search, "is_unidirectional_path", lambda g: False)
    tree = check_tree_characterization(3)
    assert (tree.swept, tree.checked, tree.skipped) == (14, 14, 0)
    assert [c[0] for c in tree.counterexamples] == [2] * 2 + [3] * 6
    assert all(c[2:] == ((1,), False, True) for c in tree.counterexamples)
    monkeypatch.setattr(search, "classify_path_orientation", lambda g: "other")
    rows = check_path_characterizations(4)
    assert [len(c.counterexamples) for c in rows] == [12, 0, 18, 16]
    for c in rows:
        keys = [(n, mask) for n, mask, _, _, _ in c.counterexamples]
        assert keys == sorted(keys)
        assert all(cex[3:] == (False, True) for cex in c.counterexamples)
    # a flipped search verdict turns every forest case checked into one
    real = search.exhaustive_labeling_search

    def flipped(*args, **kwargs):
        report = real(*args, **kwargs)
        return replace(report,
                       outcome=EXHAUSTED_NONE if report.found else FOUND)

    monkeypatch.setattr(search, "exhaustive_labeling_search", flipped)
    rows = check_forest_lemmas(4)
    assert [(c.swept, c.checked, c.skipped) for c in rows] == [
        (19, 14, 5), (4, 2, 2), (2, 2, 0), (7, 4, 3), (2, 2, 0)]
    assert [c.counterexamples for c in rows] == [
        (((1, 2), (0,), (1,), False, True),
         ((1, 2), (1,), (1,), False, True),
         ((1, 3), (0, 0), (1,), False, True),
         ((1, 3), (0, 0), (1, 2), False, True),
         ((1, 3), (1, 0), (1,), False, True),
         ((1, 3), (0, 1), (1,), False, True),
         ((1, 3), (1, 1), (1,), False, True),
         ((1, 3), (1, 1), (1, 2), False, True),
         ((2, 2), (0, 0), (1,), False, True),
         ((2, 2), (1, 0), (1,), False, True),
         ((2, 2), (0, 1), (1,), False, True),
         ((2, 2), (1, 1), (1,), False, True),
         ((1, 1, 2), (0,), (1,), False, True),
         ((1, 1, 2), (1,), (1,), False, True)),
        (((1, 3), (0, 0), (2,), False, True),
         ((1, 3), (1, 1), (2,), False, True)),
        (((2, 2), "tail-to-head", (0,), True, False),
         ((2, 2), "tail-to-head", (0, 1), True, False)),
        (((1, 2), "tail-to-head", (0, 1), True, False),
         ((1, 3), "tail-to-head", (0, 1), True, False),
         ((2, 2), "tail-to-head", (0, 1), True, False),
         ((1, 1, 2), "tail-to-head", (0, 1), True, False)),
        (((2, 2), (0,), (0, 1), True, False),
         ((2, 2), (1,), (0, 1), True, False)),
    ]


def test_tree_characterization_order_guard():
    with pytest.raises(InvalidParameterError):
        check_tree_characterization(7)
    with pytest.raises(InvalidParameterError):
        check_tree_characterization(1)


def test_forest_lemmas_frozen_counts():
    rows = {c.theorem_tag: c for c in check_forest_lemmas(6)}
    assert all(c.agree for c in rows.values())
    expected = {
        "forest-min-1-multi": (377, 220, 157),
        "forest-min-2-plus": (252, 100, 152),
        "forest-copies-min-zero": (8, 8, 0),
        "forest-mixed-zero-one": (23, 18, 5),
        "forest-uniform-zero-top": (8, 6, 2),
    }
    for tag, (swept, checked, skipped) in expected.items():
        assert (rows[tag].swept, rows[tag].checked,
                rows[tag].skipped) == (swept, checked, skipped)


@pytest.mark.parametrize("total", range(2, 9))
def test_forest_lemmas_match_the_labelled_forest_sweep(total):
    assert check_forest_lemmas(total) == oracles.check_forest_lemmas(total)


def _flip_verdicts_on_odd_arc_heads(monkeypatch):
    # the number of arc heads is a property of the class, and about half
    # the path and forest classes have an odd one
    real = search.exhaustive_labeling_search

    def flipped(g, *args, **kwargs):
        report = real(g, *args, **kwargs)
        if len({v for _, v in g.arcs}) % 2 == 0:
            return report
        return replace(report,
                       outcome=EXHAUSTED_NONE if report.found else FOUND)

    monkeypatch.setattr(search, "exhaustive_labeling_search", flipped)


def _assert_same_records(fast, slow):
    for got, expected in zip(fast, slow):
        assert got.counterexamples == expected.counterexamples
    assert fast == slow


@pytest.mark.parametrize("jobs", [1, 2])
def test_path_counterexamples_match_the_labelled_path_sweep(monkeypatch, jobs):
    # a wrong kind for every path flags the classes of the one-way and
    # theta paths; the one-way pair lies at either end of each order's masks
    monkeypatch.setattr(search, "classify_path_orientation", lambda g: "other")
    fast = check_path_characterizations(6, jobs=jobs)
    assert [len(c.counterexamples) for c in fast] == [60, 0, 90, 88]
    _assert_same_records(fast, oracles.check_path_characterizations(6, jobs=jobs))
    _flip_verdicts_on_odd_arc_heads(monkeypatch)
    _assert_same_records(check_path_characterizations(6, jobs=jobs),
                         oracles.check_path_characterizations(6, jobs=jobs))


def test_forest_counterexamples_match_the_labelled_forest_sweep(monkeypatch):
    _flip_verdicts_on_odd_arc_heads(monkeypatch)
    fast = check_forest_lemmas(7)
    assert all(c.counterexamples for c in fast)
    _assert_same_records(fast, oracles.check_forest_lemmas(7))


def test_forest_lemmas_order_guard():
    with pytest.raises(InvalidParameterError):
        check_forest_lemmas(9)
    with pytest.raises(InvalidParameterError):
        check_forest_lemmas(1)


def test_union_counterexample_breakdown():
    breakdown = check_union_counterexample()
    assert breakdown.ok
    assert breakdown.singleton_zero.found
    assert breakdown.singleton_two.found
    assert breakdown.union_pruned.shortcut
    assert breakdown.union_pruned.candidates_examined == 0
    assert not breakdown.union_full.shortcut
    assert breakdown.union_full.candidates_examined == 24


def test_duality_sweep_frozen_counts():
    check = duality_sweep(3)
    assert check.agree
    assert (check.swept, check.checked) == (2, 72)


def test_duality_sweep_on_one_graph():
    check = duality_sweep_graph(build_cycle(4))
    assert check.agree
    assert (check.swept, check.checked) == (1, 336)


def test_duality_sweep_sampling_is_seeded():
    first = duality_sweep_graph(build_cycle(5), trials=20, seed=7)
    second = duality_sweep_graph(build_cycle(5), trials=20, seed=7)
    assert first == second
    assert first.checked == 30 * 20


@pytest.mark.parametrize("order, trials", [
    (2, None), (3, None), (4, None), (3, 5), (4, 5)])
def test_duality_sweep_matches_the_labelled_graph_sweep(order, trials):
    assert duality_sweep(order, trials=trials, seed=11) == \
        oracles.duality_sweep(order, trials=trials, seed=11)


def test_duality_sweep_work_bound(monkeypatch):
    # one distance matrix per graph and one label check per labeling;
    # the old kernel built two neighborhood tables per distance set and
    # checked every labeling once per distance set (336 times here)
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module, name in ((search, "all_pairs_distances"),
                         (search, "check_labeling"),
                         (search, "neighborhood_table"),
                         (labeling, "neighborhood_table")):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    check = duality_sweep_graph(build_cycle(4))
    assert check.checked == 336
    assert calls == {"all_pairs_distances": 1, "check_labeling": 24}


def _duality_peak(g, trials):
    tracemalloc.start()
    try:
        duality_sweep_graph(g, trials=trials)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_duality_sweep_memory_does_not_grow_with_the_sample():
    g = build_cycle(10)
    duality_sweep_graph(g, trials=2)
    assert _duality_peak(g, 50) <= _duality_peak(g, 2) + 1024


def test_duality_sweep_memory_is_per_half_of_the_levels():
    # the kernel that built two tables per distance set peaked at 2.2 MB
    # here; one subset-sum table over all 14 levels would take about 8 MB
    assert _duality_peak(build_cycle(14), 2) < 500_000


def _strongly_connected(orders):
    return [g for order in orders for g in enumerate_oriented_graphs(order)
            if is_strongly_connected(g)]


@pytest.mark.parametrize("trials", [None, 5])
def test_duality_kernel_matches_the_check_duality_loop(trials):
    graphs = _strongly_connected(range(2, 5))
    assert len(graphs) == 68
    for g in graphs:
        assert duality_sweep_graph(g, trials=trials, seed=3) == \
            oracles.duality_sweep_graph(g, trials=trials, seed=3)


@pytest.mark.parametrize("g, trials", [
    (OrientedGraph(1, []), None),
    *[(build_cycle(n), None) for n in range(3, 7)],
    *[(build_cycle(n), 7) for n in range(7, 10)]])
def test_duality_kernel_matches_the_check_duality_loop_on_cycles(g, trials):
    assert duality_sweep_graph(g, trials=trials, seed=5) == \
        oracles.duality_sweep_graph(g, trials=trials, seed=5)


@pytest.mark.parametrize("g, records", [
    (build_path(4), 336), (build_path(5, 3), 720)])
def test_duality_kernel_records_counterexamples_like_the_loop(
        monkeypatch, g, records):
    # with unreachable pairs the weights under D and its complement miss
    # some labels, so forcing the precondition turns up counterexamples
    monkeypatch.setattr(search, "is_strongly_connected", lambda g: True)
    monkeypatch.setattr(labeling, "is_strongly_connected", lambda g: True)
    check = duality_sweep_graph(g)
    assert len(check.counterexamples) == records
    assert check == oracles.duality_sweep_graph(g)


def test_duality_kernel_matches_the_loop_on_every_forced_small_shape(
        monkeypatch):
    # every class of order <= 4: full rows, short rows, and no arcs at all
    monkeypatch.setattr(search, "is_strongly_connected", lambda g: True)
    monkeypatch.setattr(labeling, "is_strongly_connected", lambda g: True)
    graphs = [g for level in search._class_levels(4, search._any_arcs)
              for g, _ in level]
    assert len(graphs) == 52
    for g in graphs:
        trials = None if g.n <= 3 else 3
        assert duality_sweep_graph(g, trials=trials, seed=4) == \
            oracles.duality_sweep_graph(g, trials=trials, seed=4)


@pytest.mark.parametrize("g", [build_path(4), OrientedGraph(3, [])])
def test_duality_sweep_needs_a_strongly_connected_graph(g):
    with pytest.raises(TheoremPreconditionError):
        duality_sweep_graph(g)


def test_duality_guards():
    with pytest.raises(InvalidParameterError):
        duality_sweep(5)
    with pytest.raises(InvalidParameterError):
        duality_sweep(1)
    with pytest.raises(InvalidParameterError, match="trials"):
        duality_sweep_graph(build_cycle(7))


@pytest.mark.parametrize("trials", [0, -3, 2.5, True])
def test_duality_trials_must_be_a_positive_int(trials):
    with pytest.raises(InvalidParameterError, match="trials"):
        duality_sweep_graph(build_cycle(5), trials=trials)
    with pytest.raises(InvalidParameterError, match="trials"):
        duality_sweep(2, trials=trials)


def test_magic_bound_sweep_frozen_counts():
    three = magic_bound_sweep(3)
    assert three.agree
    assert (three.swept, three.checked) == (2, 12)
    four = magic_bound_sweep(4)
    assert four.agree
    assert (four.swept, four.checked) == (66, 924)


@pytest.mark.parametrize("order", [3, 4])
def test_magic_bound_sweep_matches_the_labelled_graph_sweep(order):
    assert magic_bound_sweep(order) == oracles.magic_bound_sweep(order)


def test_magic_bound_sweep_counterexamples_match_the_labelled_graph_sweep(
        monkeypatch):
    # every magic constant shifted out of the window fails every class
    # holding a magic labeling; the re-check lists them graph by graph
    real = search.exhaustive_magic_search
    monkeypatch.setattr(
        search, "exhaustive_magic_search",
        lambda g, ds, *, dm=None: tuple(
            (labels, lam + 100) for labels, lam in real(g, ds, dm=dm)))
    fast = magic_bound_sweep(4)
    slow = oracles.magic_bound_sweep(4)
    assert (fast.swept, fast.checked) == (66, 924)
    assert len(fast.counterexamples) == len(slow.counterexamples) > 0
    for got, expected in zip(fast.counterexamples, slow.counterexamples):
        assert got == expected
    assert fast == slow


def test_magic_bound_sweep_order_guard():
    with pytest.raises(InvalidParameterError):
        magic_bound_sweep(2)
    with pytest.raises(InvalidParameterError):
        magic_bound_sweep(6)


def test_neighborhood_survey_frozen_counts():
    expected = {1: (1, 1, 1, 0), 2: (7, 7, 7, 0), 3: (111, 91, 91, 0),
                4: (5329, 3797, 3797, 0)}
    for order, (pairs, necessary_ok, antimagic, gap) in expected.items():
        survey = survey_neighborhood_sufficiency(order)
        assert survey.order == order
        assert (survey.pairs, survey.necessary_ok,
                survey.antimagic, survey.gap) == \
            (pairs, necessary_ok, antimagic, gap)


@pytest.mark.parametrize("order", range(1, 5))
def test_neighborhood_survey_matches_the_labelled_graph_sweep(order):
    assert survey_neighborhood_sufficiency(order) == \
        oracles.survey_neighborhood_sufficiency(order)


def test_neighborhood_survey_order_guard():
    with pytest.raises(InvalidParameterError):
        survey_neighborhood_sufficiency(0)
    with pytest.raises(InvalidParameterError):
        survey_neighborhood_sufficiency(5)


def test_render_checks_table():
    text = render_checks_table(check_path_characterizations(3))
    lines = text.splitlines()
    assert lines[0].split() == [
        "family", "swept", "checked", "skipped", "counterexamples", "status"]
    assert len(lines) == 5
    assert all(line.endswith("ok") for line in lines[1:])
    assert "path-min-1" in lines[1]
