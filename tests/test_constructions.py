"""Closed-form labelings: frozen values, preconditions, self-verification."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from antimagic import (
    InvalidDistanceSetError,
    InvalidParameterError,
    LinearForestSpec,
    TheoremPreconditionError,
    build_path,
    forest_label_value,
    forest_vertex_index,
    is_d_antimagic,
    label_forest,
    label_mpn,
    label_mpn_general,
    label_theta_double_prime,
    label_theta_prime,
    label_unidirectional_path,
    mpn_spec,
)
from antimagic.search import _partitions


# ---- one-way path ----


def test_unidirectional_path_descending_labels():
    result = label_unidirectional_path(4, (0, 1))
    assert result.labels == (4, 3, 2, 1)
    assert result.profile.weights == (7, 5, 3, 1)
    assert result.theorem_tag == "unidirectional-path"


def test_unidirectional_path_with_a_gap():
    result = label_unidirectional_path(5, (0, 2))
    assert result.profile.weights == (8, 6, 4, 2, 1)


def test_unidirectional_path_preconditions():
    with pytest.raises(TheoremPreconditionError):
        label_unidirectional_path(5, (2, 3))
    with pytest.raises(InvalidDistanceSetError):
        label_unidirectional_path(5, (0, 5))
    with pytest.raises(InvalidParameterError):
        label_unidirectional_path(2, (0, 1))


def test_unidirectional_path_sweep_is_clean():
    for n in range(3, 9):
        for ds in [(0,), (1,), (0, 1), (0, n - 1), (1, n - 1),
                   (0, 1, n - 1)]:
            result = label_unidirectional_path(n, ds)
            assert is_d_antimagic(result.graph, result.labels, result.d_set)


# ---- theta paths ----


def test_theta_prime_frozen_values():
    result = label_theta_prime(3, (0, 1))
    assert result.labels == (1, 3, 2)
    assert result.profile.weights == (1, 6, 2)
    result = label_theta_prime(5, (0, 3))
    assert result.labels == (1, 5, 4, 3, 2)
    assert result.profile.weights == (1, 7, 4, 3, 2)


def test_theta_double_prime_frozen_values():
    result = label_theta_double_prime(3, (0, 1))
    assert result.labels == (1, 2, 3)
    assert result.profile.weights == (3, 2, 5)
    result = label_theta_double_prime(5, (0, 3))
    assert result.labels == (1, 2, 3, 4, 5)
    assert result.profile.weights == (1, 2, 3, 4, 7)


def test_theta_preconditions():
    for build in (label_theta_prime, label_theta_double_prime):
        with pytest.raises(TheoremPreconditionError):
            build(5, (0, 1))  # missing the long distance
        with pytest.raises(TheoremPreconditionError):
            build(5, (3,))  # missing 0
        with pytest.raises(InvalidDistanceSetError):
            build(5, (0, 3, 4))  # beyond the partial diameter
        with pytest.raises(InvalidParameterError):
            build(2, (0,))


def test_theta_sweep_is_clean():
    for n in range(3, 9):
        base = (0, n - 2)
        mids = [(), (1,)] if n >= 4 else [()]
        for mid in mids:
            ds = tuple(sorted(set(base) | set(mid)))
            for build in (label_theta_prime, label_theta_double_prime):
                result = build(n, ds)
                assert is_d_antimagic(result.graph, result.labels,
                                      result.d_set)


# ---- copies of one path ----


def test_mpn_label_formula():
    result = label_mpn(3, 5, 1)
    for j in range(1, 4):
        copy = result.labels[(j - 1) * 5:j * 5]
        assert copy == tuple(3 * (i - 1) + j for i in range(1, 6))


def test_mpn_frozen_weights():
    result = label_mpn(2, 4, 2)
    assert result.profile.weights == (1, 3, 6, 10, 2, 4, 8, 12)
    assert result.d_set == (0, 2)


def test_mpn_single_copy_matches_the_path():
    result = label_mpn(1, 5, 2)
    assert result.graph == build_path(5, 0)
    assert result.labels == (1, 2, 3, 4, 5)


def test_mpn_parameter_checks():
    with pytest.raises(InvalidParameterError):
        label_mpn(0, 4, 1)
    with pytest.raises(InvalidParameterError):
        label_mpn(2, 4, 0)
    with pytest.raises(InvalidParameterError):
        label_mpn(2, 4, 4)


def test_mpn_sweep_is_clean():
    for m in range(1, 9):
        for n in range(2, 9):
            if m * n > 40:
                continue
            for k in range(1, n):
                result = label_mpn(m, n, k)
                assert is_d_antimagic(result.graph, result.labels,
                                      result.d_set)


def test_mpn_general_frozen_weights():
    result = label_mpn_general(2, 3, (0, 1, 2))
    assert result.profile.weights == (1, 4, 9, 2, 6, 12)
    result = label_mpn_general(2, 4, (0, 1, 3))
    assert result.profile.weights == (1, 4, 8, 13, 2, 6, 10, 16)


def test_mpn_general_preconditions():
    with pytest.raises(TheoremPreconditionError):
        label_mpn_general(2, 4, (1, 2))
    with pytest.raises(InvalidDistanceSetError):
        label_mpn_general(2, 4, (0, 4))
    with pytest.raises(InvalidParameterError):
        label_mpn_general(1, 4, (0, 1))
    with pytest.raises(InvalidParameterError):
        label_mpn_general(2, 1, (0,))


@given(st.integers(2, 5), st.integers(2, 5), st.data())
def test_mpn_general_sweep_is_clean(m, n, data):
    extra = data.draw(st.sets(st.integers(1, n - 1)))
    ds = (0,) + tuple(sorted(extra))
    result = label_mpn_general(m, n, ds)
    assert is_d_antimagic(result.graph, result.labels, result.d_set)


# ---- mixed forests ----


def test_forest_label_spot_values():
    comps = ((2, 3), (1, 5), (1, 7))
    assert forest_label_value(comps, 1, 1, 1) == 1
    assert forest_label_value(comps, 3, 1, 1) == 4
    assert forest_label_value(comps, 3, 1, 3) == 12
    assert forest_label_value(comps, 2, 1, 4) == 13
    assert forest_label_value(comps, 3, 1, 7) == 18


def test_forest_label_rejects_missing_positions():
    comps = ((2, 3), (1, 5))
    with pytest.raises(InvalidParameterError):
        forest_label_value(comps, 1, 1, 4)


def test_forest_labels_match_the_layer_sort():
    batteries = [
        ((2, 3), (1, 5), (1, 7)),
        ((1, 1), (2, 2), (1, 4)),
        ((3, 2),),
        ((1, 2), (1, 3), (1, 4), (1, 5)),
    ]
    for comps in batteries:
        expected = oracles.layer_sorted_forest_labels(comps)
        for (j, s, i), rank in expected.items():
            assert forest_label_value(comps, j, s, i) == rank


def test_forest_construction_matches_the_layer_sort_on_every_small_shape():
    shapes = 0
    for total in range(1, 9):
        for parts in _partitions(total):
            spec = LinearForestSpec.from_lengths(parts)
            labels = label_forest(spec).labels
            for (j, s, i), rank in oracles.layer_sorted_forest_labels(
                    spec.components).items():
                assert labels[forest_vertex_index(spec, j, s, i)] == rank
            shapes += 1
    assert shapes == 66


def test_path_copies_get_the_mixed_forest_labels():
    # one component of m copies: both formulas rank layer by layer
    for m in range(1, 5):
        for n in range(2, 7):
            assert (label_mpn(m, n, 1).labels
                    == label_forest(mpn_spec(m, n)).labels)


def test_forest_construction_is_a_clean_bijection():
    spec = LinearForestSpec(((2, 3), (1, 5), (1, 7)))
    result = label_forest(spec)
    assert sorted(result.labels) == list(range(1, 19))
    assert result.d_set == (0, 1)
    assert is_d_antimagic(result.graph, result.labels, result.d_set)


def test_forest_with_single_vertex_components():
    result = label_forest(LinearForestSpec(((2, 1), (1, 3))))
    assert result.d_set == (0, 1)
    assert is_d_antimagic(result.graph, result.labels, result.d_set)
    isolated = label_forest(LinearForestSpec(((3, 1),)))
    assert isolated.d_set == (0,)
    assert is_d_antimagic(isolated.graph, isolated.labels, isolated.d_set)


def test_forest_requires_the_phi_orientation():
    with pytest.raises(TheoremPreconditionError):
        label_forest(mpn_spec(2, 3, "forward"))


def test_forest_sweep_is_clean():
    shapes = [
        (2, 2), (1, 1, 3), (2, 4), (1, 2, 3), (3, 3), (1, 2, 3, 4),
        (2, 2, 5), (1, 7), (1, 1, 1, 2),
    ]
    for shape in shapes:
        result = label_forest(LinearForestSpec.from_lengths(shape))
        assert sorted(result.labels) == list(range(1, sum(shape) + 1))
        assert is_d_antimagic(result.graph, result.labels, result.d_set)
