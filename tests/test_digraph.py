"""Graph core: validation, distances, path recognition, census."""

from __future__ import annotations

import re
from collections import Counter

import pytest
from hypothesis import given

import oracles
from antimagic import (
    OTHER,
    THETA_DOUBLE_PRIME,
    THETA_PRIME,
    UNIDIRECTIONAL,
    InvalidDistanceSetError,
    InvalidParameterError,
    NotAPathError,
    OrientedGraph,
    all_pairs_distances,
    build_cycle,
    build_path,
    classify_path_orientation,
    digraph,
    enumerate_oriented_graphs,
    is_strongly_connected,
    is_unidirectional_path,
    normalize_distance_set,
    orientation_census,
    partial_diameter,
    path_vertex_order,
    validate_distance_set,
    weak_components,
)
from antimagic.generators import mpn_spec, build_forest
from strategies import oriented_graphs


# ---- construction and validation ----


def test_order_must_be_a_positive_integer():
    with pytest.raises(InvalidParameterError):
        OrientedGraph(0, [])
    with pytest.raises(InvalidParameterError):
        OrientedGraph(-2, [])
    with pytest.raises(InvalidParameterError):
        OrientedGraph(True, [])
    with pytest.raises(InvalidParameterError):
        OrientedGraph("3", [])


def test_loops_are_rejected():
    with pytest.raises(InvalidParameterError, match="loop"):
        OrientedGraph(3, [(1, 1)])


def test_digons_are_rejected():
    with pytest.raises(InvalidParameterError):
        OrientedGraph(3, [(0, 1), (1, 0)])


def test_arc_endpoints_must_be_in_range():
    with pytest.raises(InvalidParameterError):
        OrientedGraph(3, [(0, 3)])
    with pytest.raises(InvalidParameterError):
        OrientedGraph(3, [(-1, 0)])


@pytest.mark.parametrize("arc", [(0.9, 1.2), (True, 2), ("0", "1")])
def test_arc_endpoints_must_be_integers(arc):
    # int() would have turned each of these into a valid arc
    with pytest.raises(InvalidParameterError, match=re.escape(f"arc {arc!r}")):
        OrientedGraph(3, [arc])


def test_arc_that_is_not_a_pair_is_rejected():
    with pytest.raises(InvalidParameterError,
                       match=re.escape("arc (0, 1, 2) must be a vertex pair")):
        OrientedGraph(3, [(0, 1, 2)])


def test_arc_with_an_unhashable_endpoint_is_rejected():
    with pytest.raises(InvalidParameterError,
                       match=re.escape("arc (0, [1]) must join integer")):
        OrientedGraph(3, [(0, [1])])


def test_float_arc_equal_to_a_valid_arc_is_rejected():
    # checked before hashing, so it cannot merge into the int arc (0, 1)
    with pytest.raises(InvalidParameterError,
                       match=re.escape("arc (0.0, 1) must join integer")):
        OrientedGraph(3, [(0, 1), (0.0, 1)])


def test_duplicate_arcs_collapse():
    g = OrientedGraph(3, [(0, 1), (0, 1), (1, 2)])
    assert g.arc_count == 2


def test_adjacency_is_sorted():
    g = OrientedGraph(4, [(0, 3), (0, 1), (2, 1)])
    assert g.successors[0] == (1, 3)
    assert g.predecessors[1] == (0, 2)
    assert g.out_degree(0) == 2
    assert g.in_degree(1) == 2


def test_sinks_and_sources():
    g = build_path(5, "theta-prime")
    assert g.sinks() == (0, 4)
    assert g.sources() == (1,)
    uni = build_path(4)
    assert uni.sinks() == (3,)
    assert uni.sources() == (0,)


def test_equality_is_structural():
    assert OrientedGraph(3, [(0, 1)]) == OrientedGraph(3, ((0, 1),))
    assert OrientedGraph(3, [(0, 1)]) != OrientedGraph(3, [(1, 0)])


# ---- distances ----


@given(oriented_graphs(max_n=6))
def test_distances_match_floyd_warshall(g):
    dm = all_pairs_distances(g)
    expected = oracles.floyd_warshall(g.n, g.arcs)
    for u in range(g.n):
        for v in range(g.n):
            assert dm.distance(u, v) == expected[u][v]


def test_unreachable_distance_is_none():
    g = build_path(5, "theta-double-prime")
    dm = all_pairs_distances(g)
    assert dm.distance(4, 1) == 3
    assert dm.distance(0, 2) is None


def test_partial_diameter_frozen_values():
    assert partial_diameter(build_path(5)) == 4
    assert partial_diameter(build_path(5, "theta-prime")) == 3
    assert partial_diameter(build_path(5, "theta-double-prime")) == 3
    assert partial_diameter(build_cycle(4)) == 3
    assert partial_diameter(OrientedGraph(1, [])) == 0
    assert partial_diameter(OrientedGraph(3, [])) == 0


@given(oriented_graphs(min_n=1, max_n=6))
def test_partial_diameter_matches_oracle(g):
    assert partial_diameter(g) == oracles.partial_diameter(g.n, g.arcs)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_balls_are_the_distance_rows_cut_off_at_a_depth(n):
    for g in enumerate_oriented_graphs(n):
        fw = oracles.floyd_warshall(g.n, g.arcs)
        assert all_pairs_distances(g) == oracles.dense_distances(g)
        for depth in (*range(n + 1), None):
            limit = n if depth is None else depth
            got = [(list(ball), [dist[u] for u in ball], dist.count(None))
                   for ball, dist in digraph._balls(g, range(n), depth)]
            for s, (ball, dists, unset) in enumerate(got):
                row = fw[s]
                assert ball[0] == s
                assert sorted(ball) == [u for u in range(n)
                                        if row[u] is not None
                                        and row[u] <= limit]
                assert dists == [row[u] for u in ball]
                assert dists == sorted(dists)
                assert unset == n - len(ball)


def test_distance_matrix_size_check():
    dm = all_pairs_distances(build_path(3))
    assert dm.n == 3


# ---- connectivity ----


def test_cycles_are_strongly_connected():
    for n in range(3, 7):
        assert is_strongly_connected(build_cycle(n))


def test_paths_are_not_strongly_connected():
    for n in range(2, 6):
        assert not is_strongly_connected(build_path(n))


def test_single_vertex_is_strongly_connected():
    assert is_strongly_connected(OrientedGraph(1, []))


def test_strongly_connected_count_order_3():
    from antimagic import enumerate_oriented_graphs

    count = sum(1 for g in enumerate_oriented_graphs(3)
                if is_strongly_connected(g))
    assert count == 2


def test_weak_components_of_a_forest():
    g = build_forest(mpn_spec(2, 3))
    assert weak_components(g) == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    assert len(weak_components(build_cycle(4))) == 1


# ---- path recognition ----


def test_path_vertex_order_identity_layout():
    assert path_vertex_order(build_path(5)) == (0, 1, 2, 3, 4)
    assert path_vertex_order(OrientedGraph(1, [])) == (0,)


def test_path_vertex_order_starts_at_smaller_endpoint():
    g = OrientedGraph(3, [(2, 0), (0, 1)])
    assert path_vertex_order(g) == (1, 0, 2)


def test_path_vertex_order_rejects_non_paths():
    with pytest.raises(NotAPathError):
        path_vertex_order(build_cycle(4))
    with pytest.raises(NotAPathError):
        path_vertex_order(OrientedGraph(4, [(0, 1), (0, 2), (0, 3)]))
    with pytest.raises(NotAPathError):
        path_vertex_order(build_forest(mpn_spec(2, 3)))
    with pytest.raises(NotAPathError):
        path_vertex_order(OrientedGraph(2, []))


def test_classification_order_3():
    assert classify_path_orientation(build_path(3, 0b11)) == UNIDIRECTIONAL
    assert classify_path_orientation(build_path(3, 0b00)) == UNIDIRECTIONAL
    assert classify_path_orientation(build_path(3, "theta-prime")) == THETA_PRIME
    assert (classify_path_orientation(build_path(3, "theta-double-prime"))
            == THETA_DOUBLE_PRIME)
    # the out-star and the in-star are different graphs and stay apart
    assert (build_path(3, "theta-prime").sinks()
            != build_path(3, "theta-double-prime").sinks())


def test_classification_mask_census():
    expected = {3: {UNIDIRECTIONAL: 2, THETA_PRIME: 1, THETA_DOUBLE_PRIME: 1}}
    for n in range(4, 8):
        expected[n] = {
            UNIDIRECTIONAL: 2,
            THETA_PRIME: 2,
            THETA_DOUBLE_PRIME: 2,
            OTHER: 2 ** (n - 1) - 6,
        }
    for n, counts in expected.items():
        seen = Counter(
            classify_path_orientation(build_path(n, mask))
            for mask in range(2 ** (n - 1)))
        assert seen == Counter(counts), f"order {n}"


def test_classification_is_mirror_invariant():
    for n in range(3, 7):
        for mask in range(2 ** (n - 1)):
            g = build_path(n, mask)
            relabeled = OrientedGraph(
                n, [(n - 1 - u, n - 1 - v) for u, v in g.arcs])
            assert (classify_path_orientation(g)
                    == classify_path_orientation(relabeled))


@pytest.mark.parametrize("n", range(3, 11))
def test_classifier_recognises_the_named_paths_build_path_makes(n):
    assert classify_path_orientation(build_path(n, "forward")) == UNIDIRECTIONAL
    for name in (THETA_PRIME, THETA_DOUBLE_PRIME):
        assert classify_path_orientation(build_path(n, name)) == name


def test_arc_reversal_swaps_the_theta_classes():
    swap = {THETA_PRIME: THETA_DOUBLE_PRIME, THETA_DOUBLE_PRIME: THETA_PRIME,
            UNIDIRECTIONAL: UNIDIRECTIONAL, OTHER: OTHER}
    for n in range(3, 7):
        for mask in range(2 ** (n - 1)):
            g = build_path(n, mask)
            reversed_g = OrientedGraph(n, [(v, u) for u, v in g.arcs])
            assert (classify_path_orientation(reversed_g)
                    == swap[classify_path_orientation(g)])


def test_orientation_census_values():
    assert orientation_census(build_path(4)) == orientation_census(
        build_path(4, 0b111))
    census = orientation_census(build_path(4))
    assert (census.sink_count, census.source_count) == (1, 1)
    assert census.end_kinds == ("source", "sink")
    census = orientation_census(build_path(5, "theta-prime"))
    assert (census.sink_count, census.source_count) == (2, 1)
    assert census.end_kinds == ("sink", "sink")
    assert orientation_census(OrientedGraph(1, [])).end_kinds == ("isolated",)


def test_census_balance_relation_exhaustive():
    # both ends sinks: one extra sink; both sources: one extra source;
    # mixed ends: equal counts
    for n in range(2, 9):
        for mask in range(2 ** (n - 1)):
            census = orientation_census(build_path(n, mask))
            sinks_at_ends = census.end_kinds.count("sink")
            assert (census.sink_count - census.source_count
                    == sinks_at_ends - 1)


def test_is_unidirectional_path():
    assert is_unidirectional_path(build_path(5))
    assert is_unidirectional_path(build_path(5, 0))
    assert not is_unidirectional_path(build_path(5, "theta-prime"))
    assert not is_unidirectional_path(build_cycle(3))
    assert not is_unidirectional_path(build_forest(mpn_spec(2, 3)))
    assert is_unidirectional_path(OrientedGraph(1, []))


# ---- distance sets ----


def test_normalize_distance_set():
    assert normalize_distance_set([2, 0, 2]) == (0, 2)
    assert normalize_distance_set((1,)) == (1,)
    with pytest.raises(InvalidDistanceSetError):
        normalize_distance_set([])
    with pytest.raises(InvalidDistanceSetError):
        normalize_distance_set([-1])
    for bad in (["x"], (1.5, 2.9), (2.0,), (True, 2), (1, "2")):
        with pytest.raises(InvalidDistanceSetError, match="integers"):
            normalize_distance_set(bad)
    with pytest.raises(InvalidDistanceSetError):
        normalize_distance_set(5)


def test_validate_distance_set_bounds():
    assert validate_distance_set([0, 2], 3) == (0, 2)
    with pytest.raises(InvalidDistanceSetError):
        validate_distance_set([0, 4], 3)
    assert validate_distance_set([0, 4], 3, clamp=True) == (0,)
    with pytest.raises(InvalidDistanceSetError):
        validate_distance_set([4, 5], 3, clamp=True)
