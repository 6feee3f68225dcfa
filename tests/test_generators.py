"""Builders and enumerators for paths, cycles, forests, and trees."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from antimagic import (
    InvalidParameterError,
    LinearForestSpec,
    OrientedGraph,
    build_cycle,
    build_forest,
    build_path,
    enumerate_path_orientations,
    enumerate_trees,
    forest_vertex_index,
    mpn_spec,
    parse_forest_spec,
    weak_components,
)
from antimagic.generators import MAX_ORDER


# ---- paths and cycles ----


def test_forward_path_arcs():
    assert build_path(4).arcs == frozenset({(0, 1), (1, 2), (2, 3)})


def test_named_orientations():
    assert build_path(4, "theta-prime").arcs == frozenset(
        {(1, 0), (1, 2), (2, 3)})
    assert build_path(4, "theta-double-prime").arcs == frozenset(
        {(0, 1), (2, 1), (3, 2)})


def test_named_theta_needs_order_3():
    with pytest.raises(InvalidParameterError):
        build_path(2, "theta-prime")


def test_integer_mask_is_lsb_first():
    # bit i directs the edge between vertices i and i+1
    assert build_path(4, 0b101).arcs == frozenset({(0, 1), (2, 1), (2, 3)})
    assert build_path(4, 0).arcs == frozenset({(1, 0), (2, 1), (3, 2)})


def test_string_mask_is_msb_first():
    assert build_path(4, "0b101") == build_path(4, 0b101)
    assert build_path(5, "0b0011").arcs == frozenset(
        {(0, 1), (1, 2), (3, 2), (4, 3)})


def test_string_mask_must_have_exact_width():
    with pytest.raises(InvalidParameterError):
        build_path(4, "0b01")
    with pytest.raises(InvalidParameterError):
        build_path(4, "0b0101")
    with pytest.raises(InvalidParameterError):
        build_path(4, "0b1x1")


def test_integer_mask_range():
    with pytest.raises(InvalidParameterError):
        build_path(4, 8)
    with pytest.raises(InvalidParameterError):
        build_path(4, -1)
    assert build_path(1, 0).n == 1


def test_path_order_validation():
    with pytest.raises(InvalidParameterError):
        build_path(0)
    with pytest.raises(InvalidParameterError):
        build_path(True)


def test_cycle():
    assert build_cycle(3).arcs == frozenset({(0, 1), (1, 2), (2, 0)})
    with pytest.raises(InvalidParameterError):
        build_cycle(2)


@pytest.mark.parametrize("build", [build_path, build_cycle])
def test_paths_and_cycles_stop_at_the_order_cap(build):
    assert build(MAX_ORDER).n == MAX_ORDER
    for n in (MAX_ORDER + 1, 10 ** 20):
        with pytest.raises(InvalidParameterError, match="from"):
            build(n)


def test_enumerate_path_orientations():
    graphs = list(enumerate_path_orientations(4))
    assert len(graphs) == 8
    assert len({g.arcs for g in graphs}) == 8
    assert graphs[-1] == build_path(4)  # mask 0b111 comes last


# ---- forest specs ----


def test_spec_orders_must_increase():
    with pytest.raises(InvalidParameterError, match="merge equal orders"):
        LinearForestSpec(((1, 3), (1, 3)))
    with pytest.raises(InvalidParameterError):
        LinearForestSpec(((1, 5), (1, 3)))


def test_spec_rejects_bad_components():
    with pytest.raises(InvalidParameterError):
        LinearForestSpec(())
    with pytest.raises(InvalidParameterError):
        LinearForestSpec(((0, 3),))
    with pytest.raises(InvalidParameterError):
        LinearForestSpec(((1, 0),))


def test_theta_orientation_needs_one_plain_path():
    # build_path is the one way to build a theta path
    for spec in (((1, 4),), ((2, 3),)):
        with pytest.raises(InvalidParameterError, match="orientation"):
            LinearForestSpec(spec, "theta-prime")


def test_explicit_orientation_needs_matching_bits():
    with pytest.raises(InvalidParameterError):
        LinearForestSpec(((2, 3),), "explicit")
    with pytest.raises(InvalidParameterError):
        LinearForestSpec(((2, 3),), "explicit", (1, 0))
    with pytest.raises(InvalidParameterError):
        LinearForestSpec(((2, 3),), "phi", (1, 0, 1, 0))
    with pytest.raises(InvalidParameterError):
        LinearForestSpec(((2, 3),), "explicit", (1, 0, 2, 0))


@pytest.mark.parametrize("components", [((2.7, 3),), ((True, 3),),
                                        (("2", "3"),), ((2, 3.0),)])
def test_spec_rejects_non_integer_sizes(components):
    # int() would have truncated each of these to a valid spec
    with pytest.raises(InvalidParameterError):
        LinearForestSpec(components)


def test_from_lengths_rejects_non_integer_lengths():
    for lengths in ([3.9, 2], [True, 2], ["3"]):
        with pytest.raises(InvalidParameterError):
            LinearForestSpec.from_lengths(lengths)


@pytest.mark.parametrize("bits", [(1.0, 0, 1, 1), (1, 0, 1, True),
                                  ("1", "0", "1", "1")])
def test_explicit_bits_must_be_integer_zero_or_one(bits):
    with pytest.raises(InvalidParameterError):
        mpn_spec(2, 3, "explicit", bits)


def test_from_lengths_merges_duplicates():
    spec = LinearForestSpec.from_lengths((3, 5, 3))
    assert spec.components == ((2, 3), (1, 5))
    assert spec.total_order == 11
    assert spec.total_edges == 8
    assert spec.copy_count == 3


def test_parse_forest_spec():
    spec = parse_forest_spec("2x3,1x5,1x7")
    assert spec.components == ((2, 3), (1, 5), (1, 7))
    assert parse_forest_spec("1x4").components == ((1, 4),)
    with pytest.raises(InvalidParameterError):
        parse_forest_spec("")
    with pytest.raises(InvalidParameterError):
        parse_forest_spec("2x")
    with pytest.raises(InvalidParameterError):
        parse_forest_spec("3,5")


def test_vertex_index_and_coords_are_inverse():
    spec = LinearForestSpec(((2, 3), (1, 5), (1, 7)))
    seen = set()
    for j, (m, n) in enumerate(spec.components, start=1):
        for s in range(1, m + 1):
            for i in range(1, n + 1):
                idx = forest_vertex_index(spec, j, s, i)
                seen.add(idx)
    assert seen == set(range(spec.total_order))


def test_vertex_index_bounds():
    spec = mpn_spec(2, 3)
    with pytest.raises(InvalidParameterError):
        forest_vertex_index(spec, 2, 1, 1)
    with pytest.raises(InvalidParameterError):
        forest_vertex_index(spec, 1, 3, 1)


# ---- forest building ----


def test_phi_forest_arcs_point_back():
    g = build_forest(mpn_spec(2, 3))
    assert g.arcs == frozenset({(1, 0), (2, 1), (4, 3), (5, 4)})


def test_forward_forest_arcs():
    g = build_forest(mpn_spec(2, 3, "forward"))
    assert g.arcs == frozenset({(0, 1), (1, 2), (3, 4), (4, 5)})


def test_explicit_forest_consumes_bits_in_layout_order():
    g = build_forest(mpn_spec(2, 3, "explicit", (1, 1, 0, 1)))
    assert g.arcs == frozenset({(0, 1), (1, 2), (4, 3), (4, 5)})


@pytest.mark.parametrize("n", range(1, 9))
def test_one_copy_forest_reads_its_bits_like_the_path_mask(n):
    # both builders direct edge k by bit k of the same mask
    for mask in range(1 << (n - 1)):
        bits = tuple((mask >> k) & 1 for k in range(n - 1))
        forest = build_forest(LinearForestSpec(((1, n),), "explicit", bits))
        assert forest.arcs == build_path(n, mask).arcs


def test_single_copy_phi_is_the_reversed_path():
    assert build_forest(mpn_spec(1, 5)) == build_path(5, 0)


def test_forest_with_isolated_vertices():
    g = build_forest(LinearForestSpec.from_lengths((1, 1, 4)))
    assert g.n == 6
    assert g.arc_count == 3
    assert len(weak_components(g)) == 3


# ---- tree enumeration ----


def test_tree_counts():
    assert sum(1 for _ in enumerate_trees(1)) == 1
    assert sum(1 for _ in enumerate_trees(2)) == 2
    assert sum(1 for _ in enumerate_trees(3)) == 12
    assert sum(1 for _ in enumerate_trees(4)) == 128


def test_trees_are_distinct_oriented_trees():
    seen = set()
    for g in enumerate_trees(4):
        assert g.n == 4
        assert g.arc_count == 3
        assert len(weak_components(g)) == 1
        seen.add(g.arcs)
    assert len(seen) == 128


def test_tree_order_guard():
    with pytest.raises(InvalidParameterError):
        list(enumerate_trees(0))
    with pytest.raises(InvalidParameterError):
        list(enumerate_trees(9))


@given(st.integers(1, 5))
def test_tree_count_formula(n):
    # n ** (n - 2) undirected shapes, each with every arc orientation
    count = sum(1 for _ in enumerate_trees(n))
    if n == 1:
        assert count == 1
    else:
        assert count == n ** (n - 2) * 2 ** (n - 1)
