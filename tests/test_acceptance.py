"""Acceptance suite: ten criteria, one test and one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` to get the per-criterion
verdict lines; add -s to see the PASS summaries printed below.  Each
test re-derives its expected values through the library's own verifier
or an exhaustive scan, then asserts the frozen outcome and the stated
time ceiling.
"""

from __future__ import annotations

import time

from antimagic import (
    LinearForestSpec,
    build_cycle,
    build_forest,
    build_path,
    check_path_characterizations,
    check_tree_characterization,
    check_union_counterexample,
    duality_sweep,
    duality_sweep_graph,
    enumerate_oriented_graphs,
    enumerate_path_orientations,
    enumerate_trees,
    find_magic_graph,
    is_d_antimagic,
    label_forest,
    label_mpn,
    label_mpn_general,
    label_theta_double_prime,
    label_theta_prime,
    label_unidirectional_path,
    magic_bound_sweep,
    orientation_census,
    weight_profile,
)
from antimagic.search import _partitions, _powerset


def _best_of(fn, repeats: int = 5) -> tuple[object, float]:
    """Return fn() and the fastest of several timed runs."""
    result = fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_c01_in_star_weights_exact():
    g = build_path(3, "theta-double-prime")
    profile, elapsed = _best_of(lambda: weight_profile(g, (1, 2, 3), (0, 1)))
    assert profile.weights == (3, 2, 5)
    assert profile.distinct
    assert elapsed < 0.001
    print(f"PASS criterion 1: in-star order 3 weights (3, 2, 5) "
          f"in {elapsed * 1e6:.0f}us")


def test_c02_out_star_center_weight_exact():
    g = build_path(3, "theta-prime")
    profile, elapsed = _best_of(lambda: weight_profile(g, (1, 3, 2), (0, 1)))
    assert profile.weights[1] == 6
    assert profile.distinct
    assert elapsed < 0.001
    print(f"PASS criterion 2: out-star center weight 6 "
          f"in {elapsed * 1e6:.0f}us")


def test_c03_union_of_good_distance_sets_fails():
    t0 = time.perf_counter()
    breakdown = check_union_counterexample()
    elapsed = time.perf_counter() - t0
    g = build_cycle(4)
    assert breakdown.singleton_zero.found
    assert is_d_antimagic(g, breakdown.singleton_zero.witness, (0,))
    assert breakdown.singleton_two.found
    assert is_d_antimagic(g, breakdown.singleton_two.witness, (2,))
    assert breakdown.union_pruned.outcome == "exhausted-none"
    assert breakdown.union_full.outcome == "exhausted-none"
    assert breakdown.union_full.candidates_examined == 24
    assert breakdown.ok
    assert elapsed < 1.0
    print(f"PASS criterion 3: four-cycle {{0}} and {{2}} antimagic, "
          f"{{0, 2}} empty after all 24 labelings ({elapsed:.3f}s)")


def test_c04_constructions_pass_the_verifier():
    t0 = time.perf_counter()
    count = 0

    for n in range(3, 11):
        for ds in _powerset(range(n)):
            if not ds or ds[0] > 1:
                continue
            result = label_unidirectional_path(n, ds)
            assert is_d_antimagic(result.graph, result.labels, result.d_set)
            count += 1

    for n in range(3, 10):
        for mid in _powerset(range(1, n - 2)):
            ds = (0,) + mid + (n - 2,)
            for build in (label_theta_prime, label_theta_double_prime):
                result = build(n, ds)
                assert is_d_antimagic(result.graph, result.labels,
                                      result.d_set)
                count += 1

    for m in range(1, 9):
        for n in range(2, 9):
            for k in range(1, n):
                result = label_mpn(m, n, k)
                assert is_d_antimagic(result.graph, result.labels,
                                      result.d_set)
                count += 1

    for m in range(2, 7):
        for n in range(2, 7):
            for extra in _powerset(range(1, n)):
                result = label_mpn_general(m, n, (0,) + extra)
                assert is_d_antimagic(result.graph, result.labels,
                                      result.d_set)
                count += 1

    shapes = 0
    for total in range(2, 19):
        for parts in _partitions(total, 7):
            spec = LinearForestSpec.from_lengths(tuple(sorted(parts)))
            result = label_forest(spec)
            assert sorted(result.labels) == list(range(1, total + 1))
            assert is_d_antimagic(result.graph, result.labels, result.d_set)
            if max(parts) >= 2:
                assert result.d_set == (0, 1)
            shapes += 1
            count += 1

    flagship = label_forest(LinearForestSpec(((2, 3), (1, 5), (1, 7))))
    assert sorted(flagship.labels) == list(range(1, 19))
    assert is_d_antimagic(flagship.graph, flagship.labels, flagship.d_set)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"PASS criterion 4: {count} constructions verified collision-free "
          f"({shapes} forest shapes) in {elapsed:.1f}s")


def test_c05_path_characterizations_have_no_counterexamples():
    t0 = time.perf_counter()
    checks = check_path_characterizations(6)
    elapsed = time.perf_counter() - t0
    assert len(checks) == 4
    for check in checks:
        assert check.agree, check.counterexamples
        assert check.checked > 0
    assert elapsed < 300.0
    total = sum(check.checked for check in checks)
    print(f"PASS criterion 5: path families agree on {total} checked cases "
          f"up to order 6 ({elapsed:.1f}s)")


def test_c06_tree_characterization_has_no_counterexamples():
    t0 = time.perf_counter()
    check = check_tree_characterization(5)
    elapsed = time.perf_counter() - t0
    assert check.agree, check.counterexamples
    assert check.checked == 2142
    assert elapsed < 180.0
    print(f"PASS criterion 6: {check.checked} oriented trees match the "
          f"one-way-path rule ({elapsed:.1f}s)")


def test_c07_magic_graph_hunt_attains_the_window_top():
    t0 = time.perf_counter()
    report = find_magic_graph(5, (0, 2, 3), 10)
    elapsed = time.perf_counter() - t0
    assert report.found
    assert report.magic_constant == 10
    assert report.magic_constant == 5 * 6 // 2 - 5
    weights = weight_profile(report.witness_graph, report.witness,
                             (0, 2, 3)).weights
    assert set(weights) == {10}
    assert elapsed < 600.0
    print(f"PASS criterion 7: order-5 magic graph hits the window top 10 "
          f"({elapsed:.1f}s)")


def test_c08_duality_identities_hold():
    t0 = time.perf_counter()
    checked = 0
    for order in (3, 4, 5):
        check = duality_sweep_graph(build_cycle(order))
        assert check.agree, check.counterexamples
        checked += check.checked
    full = duality_sweep(4)
    assert full.agree, full.counterexamples
    assert full.swept == 66
    checked += full.checked
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 8: weight sums, flags, and constants dual on "
          f"{checked} cases ({elapsed:.1f}s)")


def test_c09_magic_constants_stay_in_the_window():
    t0 = time.perf_counter()
    counts = []
    for order in (3, 4, 5):
        check = magic_bound_sweep(order)
        assert check.agree, check.counterexamples
        counts.append(check.checked)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"PASS criterion 9: magic constants within bounds over "
          f"{counts} pairs at orders 3..5 ({elapsed:.1f}s)")


def test_c10_handshake_and_sink_source_lemmas():
    t0 = time.perf_counter()
    handshakes = 0

    def handshake(g) -> None:
        nonlocal handshakes
        outs = sum(g.out_degree(v) for v in range(g.n))
        ins = sum(g.in_degree(v) for v in range(g.n))
        assert outs == ins == g.arc_count
        handshakes += 1

    for n in range(1, 5):
        for g in enumerate_oriented_graphs(n):
            handshake(g)

    acyclic = 0
    for n in range(2, 9):
        for g in enumerate_path_orientations(n):
            handshake(g)
            census = orientation_census(g)
            assert census.sink_count >= 1
            assert census.source_count >= 1
            assert len(census.end_kinds) == 2
            acyclic += 1
    for n in range(1, 6):
        for g in enumerate_trees(n):
            handshake(g)
            if n >= 2:
                assert g.sinks()
                assert g.sources()
                acyclic += 1
    for parts in ((1, 2), (2, 3), (3, 3), (1, 2, 4), (2, 2, 2)):
        g = build_forest(LinearForestSpec.from_lengths(parts))
        handshake(g)
        assert g.sinks()
        assert g.sources()
        acyclic += 1
    for order in (3, 4, 5, 6):
        handshake(build_cycle(order))

    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 10: handshake on {handshakes} graphs, "
          f"sink/source present on {acyclic} acyclic ones ({elapsed:.1f}s)")
