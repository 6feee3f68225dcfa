"""Neighborhoods, weights, verification, and complement duality."""

from __future__ import annotations

import inspect
import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from antimagic import (
    AntimagicError,
    InvalidDistanceSetError,
    InvalidParameterError,
    LinearForestSpec,
    OrientedGraph,
    TheoremPreconditionError,
    all_pairs_distances,
    build_cycle,
    build_forest,
    build_path,
    check_duality,
    check_labeling,
    complement_distance_set,
    d_neighborhood,
    enumerate_oriented_graphs,
    is_d_antimagic,
    is_d_magic,
    label_forest,
    label_mpn,
    label_mpn_general,
    label_theta_double_prime,
    label_theta_prime,
    label_unidirectional_path,
    labeling,
    mpn_spec,
    necessary_condition_distinct_neighborhoods,
    neighborhood_table,
    search,
    validate_distance_set,
    weight_profile,
)
from strategies import (
    graphs_with_distance_sets,
    labelings,
    linear_forests,
    oriented_graphs,
)


# ---- labeling validation ----


def test_check_labeling_accepts_any_order():
    assert check_labeling([3, 1, 2], 3) == (3, 1, 2)


def test_check_labeling_rejects_non_bijections():
    with pytest.raises(InvalidParameterError):
        check_labeling([1, 2], 3)
    with pytest.raises(InvalidParameterError):
        check_labeling([1, 1, 3], 3)
    with pytest.raises(InvalidParameterError):
        check_labeling([0, 1, 2], 3)
    for bad in ([1, 2, True], [True, 2, 3], [1.0, 2, 3], [1.9, 2, 3],
                ["1", 2, 3]):
        with pytest.raises(InvalidParameterError):
            check_labeling(bad, 3)
    with pytest.raises(InvalidParameterError):
        is_d_antimagic(build_cycle(4), (1.9, 2, 3, 4), (1,))


# ---- neighborhoods ----


def test_neighborhood_examples():
    g = build_path(5)
    assert d_neighborhood(g, 0, (0, 2)) == (0, 2)
    assert d_neighborhood(g, 3, (0, 2)) == (3,)
    assert d_neighborhood(g, 4, (1,)) == ()
    star = build_path(3, "theta-prime")
    assert d_neighborhood(star, 1, (1,)) == (0, 2)


def test_neighborhood_clamp():
    g = build_path(3)
    with pytest.raises(InvalidDistanceSetError):
        d_neighborhood(g, 0, (0, 9))


@given(graphs_with_distance_sets(max_n=6))
def test_neighborhood_table_matches_oracle(case):
    g, ds = case
    table = neighborhood_table(g, ds)
    for v in range(g.n):
        assert list(table[v]) == oracles.neighborhood(g.n, g.arcs, v, ds)


def test_d_neighborhood_is_a_row_of_the_table():
    g = build_path(5, "theta-prime")
    table = neighborhood_table(g, (0, 1))
    assert tuple(d_neighborhood(g, v, (0, 1)) for v in range(5)) == table
    for v in (-1, 5):
        with pytest.raises(InvalidParameterError, match="out of range"):
            d_neighborhood(g, v, (0, 1))


@pytest.mark.parametrize("v", [1.5, True])
def test_d_neighborhood_rejects_a_non_int_vertex(v):
    with pytest.raises(InvalidParameterError):
        d_neighborhood(build_path(4), v, (1,))


def test_verifiers_take_no_distance_matrix():
    for fn in (d_neighborhood, weight_profile, is_d_antimagic, is_d_magic,
               check_duality, necessary_condition_distinct_neighborhoods):
        assert "dm" not in inspect.signature(fn).parameters
    g = build_path(4)
    assert weight_profile(g, (4, 3, 2, 1), (1,)).weights == (3, 2, 1, 0)
    with pytest.raises(TypeError):
        weight_profile(g, (4, 3, 2, 1), (1,),
                       dm=all_pairs_distances(build_cycle(4)))


def test_neighborhood_rejects_mismatched_matrix():
    g = build_path(4)
    dm = all_pairs_distances(build_path(3))
    with pytest.raises(InvalidParameterError):
        neighborhood_table(g, (1,), dm=dm)


# ---- weights ----


def test_weight_profile_frozen_examples():
    profile = weight_profile(build_path(4), (4, 3, 2, 1), (0, 1))
    assert profile.weights == (7, 5, 3, 1)
    assert profile.distinct
    profile = weight_profile(build_path(5), (5, 4, 3, 2, 1), (0, 2))
    assert profile.weights == (8, 6, 4, 2, 1)


def test_empty_neighborhood_weighs_zero():
    profile = weight_profile(build_path(3), (1, 2, 3), (2,))
    assert profile.weights == (3, 0, 0)
    assert not profile.distinct


def test_collisions_are_sorted_pairs():
    g = build_path(5, "theta-prime")
    profile = weight_profile(g, (1, 2, 3, 4, 5), (1,))
    assert profile.collisions == ((0, 4), (1, 2))


@given(graphs_with_distance_sets(max_n=5), st.data())
def test_weights_match_oracle(case, data):
    g, ds = case
    labels = data.draw(labelings(g.n))
    profile = weight_profile(g, labels, ds)
    assert list(profile.weights) == oracles.weights(g.n, g.arcs, labels, ds)


def test_is_d_antimagic_and_magic():
    g = build_cycle(4)
    assert is_d_magic(g, (1, 2, 4, 3), (1, 3)) == 5
    assert not is_d_antimagic(g, (1, 2, 4, 3), (1, 3))
    assert is_d_antimagic(g, (1, 2, 3, 4), (1,))
    assert is_d_magic(g, (1, 2, 3, 4), (1,)) is None
    assert is_d_magic(build_cycle(3), (1, 2, 3), (0, 1, 2)) == 6


# ---- complement duality ----


def test_complement_distance_set():
    assert complement_distance_set((0, 2), 3) == (1, 3)
    assert complement_distance_set((1,), 2) == (0, 2)
    with pytest.raises(InvalidDistanceSetError):
        complement_distance_set((0, 4), 3)
    with pytest.raises(InvalidDistanceSetError):
        complement_distance_set((0, 1, 2), 2)


def test_duality_needs_strong_connectivity():
    with pytest.raises(TheoremPreconditionError):
        check_duality(build_path(4), (1, 2, 3, 4), (1,))


def test_duality_on_a_cycle():
    g = build_cycle(4)
    report = check_duality(g, (2, 4, 1, 3), (1,))
    assert report.complement_set == (0, 2, 3)
    assert report.label_total == 10
    assert report.sums_ok
    assert report.flags_agree
    assert report.magic_ok
    assert report.ok


def test_duality_magic_constants_add_up():
    g = build_cycle(4)
    report = check_duality(g, (1, 2, 4, 3), (1, 3))
    assert report.magic_d == 5
    assert report.magic_complement == 5
    assert report.ok


@given(st.sampled_from([3, 4, 5]), st.data())
def test_duality_identity_on_cycles(n, data):
    g = build_cycle(n)
    pd = n - 1
    ds = data.draw(st.sets(st.integers(0, pd), min_size=1, max_size=pd))
    labels = data.draw(labelings(n))
    report = check_duality(g, labels, tuple(sorted(ds)))
    assert report.ok
    total = n * (n + 1) // 2
    assert report.weight_sums == (total,) * n


# ---- necessary condition ----


def test_necessary_condition_finds_equal_neighborhoods():
    assert necessary_condition_distinct_neighborhoods(
        build_cycle(4), (0, 2)) == (0, 2)
    g = build_path(5, "theta-prime")
    assert necessary_condition_distinct_neighborhoods(g, (1,)) == (0, 4)
    assert necessary_condition_distinct_neighborhoods(
        build_path(4), (0, 1)) is None


def test_necessary_condition_on_forests():
    g = build_forest(mpn_spec(2, 3))
    assert necessary_condition_distinct_neighborhoods(g, (1,)) is not None
    assert necessary_condition_distinct_neighborhoods(g, (0, 1)) is None


@given(graphs_with_distance_sets(max_n=5), st.data())
def test_equal_neighborhoods_force_equal_weights(case, data):
    g, ds = case
    pair = necessary_condition_distinct_neighborhoods(g, ds)
    if pair is None:
        return
    labels = data.draw(labelings(g.n))
    profile = weight_profile(g, labels, ds)
    u, v = pair
    assert profile.weights[u] == profile.weights[v]


# ---- BFS balls against the dense reference ----


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except AntimagicError as exc:
        return type(exc), str(exc)


def _check_against_dense(g, labels, d_sets):
    """weight_profile and neighborhood_table on g against the dense paths.

    Each distance set is checked with and without clamp; the weights of
    a run that succeeds also match Floyd-Warshall, and one fails exactly
    when D reaches past the partial diameter and clamping cannot help.
    """
    pd = oracles.partial_diameter(g.n, g.arcs)
    dm = oracles.dense_distances(g)
    for ds in d_sets:
        fw = oracles.weights(g.n, g.arcs, labels, ds)
        for clamp in (False, True):
            got = _outcome(weight_profile, g, labels, ds, clamp=clamp)
            assert got == _outcome(oracles.dense_weight_profile, g, labels,
                                   ds, clamp=clamp), (g, ds, clamp)
            fails = max(ds) > pd and (not clamp or min(ds) > pd)
            if fails:
                assert got[0] is InvalidDistanceSetError
            else:
                assert list(got.weights) == fw
        assert (_outcome(neighborhood_table, g, ds)
                == _outcome(neighborhood_table, g, ds, dm=dm)), (g, ds)


def _small_graphs(n):
    """Every oriented graph of order n; one per isomorphism class at 5."""
    if n < 5:
        return enumerate_oriented_graphs(n)
    return (rep for rep, _ in search._class_levels(n, search._any_arcs)[-1])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_ball_weights_match_the_dense_reference(n):
    rng = random.Random(n)
    for g in _small_graphs(n):
        labels = tuple(rng.sample(range(1, n + 1), n))
        pd = oracles.partial_diameter(g.n, g.arcs)
        d_sets = [ds for ds in search._powerset(range(pd + 2)) if ds]
        _check_against_dense(g, labels, d_sets)


def test_ball_weights_match_the_dense_reference_on_constructions():
    rng = random.Random(10)
    results = []
    for n in (rng.randint(100, 300), rng.randint(100, 300)):
        high = rng.randint(2, n - 1)
        results += [
            label_unidirectional_path(n, (rng.randint(0, 1), high)),
            label_theta_prime(n, (0, rng.randint(1, n - 3), n - 2)),
            label_theta_double_prime(n, (0, n - 2)),
            label_mpn(n // 10, 10, rng.randint(1, 9)),
            label_mpn_general(n // 10, 10, (0, rng.randint(1, 9))),
            label_forest(LinearForestSpec(
                ((n // 30, 10), (n // 60, 20), (1, n // 3)))),
        ]
    for result in results:
        g = result.graph
        assert result.profile == oracles.dense_weight_profile(
            g, result.labels, result.d_set)
        assert neighborhood_table(g, result.d_set) == neighborhood_table(
            g, result.d_set, dm=oracles.dense_distances(g))


@given(oriented_graphs(max_n=7), st.data())
def test_ball_weights_match_the_dense_reference_on_any_graph(g, data):
    pd = oracles.partial_diameter(g.n, g.arcs)
    ds = data.draw(st.sets(st.integers(0, pd + 2), min_size=1))
    labels = data.draw(labelings(g.n))
    _check_against_dense(g, labels, [tuple(sorted(ds))])


def test_bad_labeling_is_reported_before_a_bad_distance_set():
    g = build_path(4)
    for fn in (weight_profile, oracles.dense_weight_profile):
        with pytest.raises(InvalidParameterError):
            fn(g, (1, 1, 2, 3), (9,))
        with pytest.raises(InvalidDistanceSetError, match="exceeds"):
            fn(g, (1, 2, 3, 4), (9,))
        with pytest.raises(InvalidDistanceSetError, match="empty"):
            fn(g, (1, 2, 3, 4), (4, 9), clamp=True)


def test_balls_stop_at_the_largest_distance(monkeypatch):
    sizes = []
    balls = labeling._balls

    def counted(*args):
        for ball, dist in balls(*args):
            sizes.append(len(ball))
            yield ball, dist

    monkeypatch.setattr(labeling, "_balls", counted)
    n = 1000
    g = build_path(n)
    labels = tuple(range(n, 0, -1))
    assert weight_profile(g, labels, (0, 1)).distinct
    assert sizes == []  # a path is weighed along its runs
    assert weight_profile(build_cycle(n), labels, (0, 1)).weights[-1] == 1 + n
    assert neighborhood_table(g, (1,))[0] == (1,)
    assert d_neighborhood(g, 0, (1,)) == (1,)
    assert max(sizes) == 2
    assert len(sizes) == 2 * n + 1


# ---- directed runs of linear forests ----


def _ball_profile(*args, **kwargs):
    """weight_profile with the run path switched off: BFS balls for every graph."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(labeling, "_linear_forest_runs", lambda g: None)
        return weight_profile(*args, **kwargs)


def _check_runs(g, labels):
    """The run weights of the linear forest g against the dense distances.

    Every D within {0..pd+1} is checked with and without clamp.  The
    dense distances are first checked equal to those of the BFS balls,
    so the weights summed off them are what the ball path computes.
    """
    runs = labeling._linear_forest_runs(g)
    assert runs is not None, g
    dm = oracles.dense_distances(g)
    assert all_pairs_distances(g) == dm
    pd = dm.partial_diameter
    by_d = [tuple(sum(labels[u] for u, duv in enumerate(row) if duv == d)
                  for row in dm.rows) for d in range(pd + 1)]
    too_far = _outcome(validate_distance_set, (pd + 1,), pd)
    none_left = _outcome(validate_distance_set, (pd + 1,), pd, True)
    for ds in filter(None, search._powerset(range(pd + 2))):
        kept = ds[:-1] if ds[-1] > pd else ds
        want = (tuple(map(sum, zip(*(by_d[d] for d in kept)))) if kept
                else none_left)
        for clamp in (False, True):
            got = _outcome(labeling._run_weights, runs, labels, ds, clamp)
            assert got == (want if clamp or kept is ds else too_far), (
                g, ds, clamp)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_runs_are_read_exactly_on_linear_forests(n):
    rng = random.Random(n)
    for g in enumerate_oriented_graphs(n):
        forest = oracles.is_linear_forest(n, g.arcs)
        assert (labeling._linear_forest_runs(g) is not None) == forest, g
        if forest:
            _check_runs(g, tuple(rng.sample(range(1, n + 1), n)))


def test_runs_on_every_labelled_linear_forest_of_order_5():
    rng = random.Random(5)
    for edges in oracles.linear_forest_edges(5):
        for bits in product((0, 1), repeat=len(edges)):
            g = OrientedGraph(5, [(u, v) if bit else (v, u)
                                  for (u, v), bit in zip(edges, bits)])
            _check_runs(g, tuple(rng.sample(range(1, 6), 5)))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_runs_on_every_relabelled_forest_shape(n):
    rng = random.Random(n)
    perm = rng.sample(range(n), n)
    for lengths in search._partitions(n):
        spec = LinearForestSpec.from_lengths(lengths)
        for bits in product((0, 1), repeat=spec.total_edges):
            laid_out = build_forest(
                LinearForestSpec(spec.components, "explicit", bits))
            g = OrientedGraph(n, [(perm[u], perm[v]) for u, v in laid_out.arcs])
            _check_runs(g, tuple(rng.sample(range(1, n + 1), n)))


@pytest.mark.parametrize("g, forest", [
    (build_cycle(5), False),
    # the two runs from source 0 meet at sink 2
    (OrientedGraph(4, [(0, 1), (1, 2), (3, 2), (0, 3)]), False),
    # a cycle of two runs beside a path of two runs
    (OrientedGraph(6, [(0, 1), (1, 2), (0, 2), (4, 3), (4, 5)]), False),
    # vertex 0 has degree 3
    (OrientedGraph(5, [(0, 1), (0, 2), (3, 0), (2, 4)]), False),
    (OrientedGraph(4, []), True),
    # paths 4->0->7, 2->8<-5->1 and 6->3, and the isolated vertex 9
    (OrientedGraph(10, [(4, 0), (0, 7), (2, 8), (5, 8), (5, 1), (6, 3)]),
     True),
])
def test_graphs_beside_the_run_path_match_the_dense_reference(g, forest):
    assert (labeling._linear_forest_runs(g) is not None) == forest
    labels = tuple(range(g.n, 0, -1))
    pd = oracles.partial_diameter(g.n, g.arcs)
    _check_against_dense(g, labels, list(filter(
        None, search._powerset(range(pd + 2)))))
    if forest:
        _check_runs(g, labels)


@settings(max_examples=50, deadline=None)
@given(linear_forests(), st.data())
def test_runs_match_balls_and_dense_on_any_linear_forest(g, data):
    assert labeling._linear_forest_runs(g) is not None
    pd = oracles.partial_diameter(g.n, g.arcs)
    ds = tuple(sorted(data.draw(st.sets(st.integers(0, pd + 2), min_size=1))))
    labels = data.draw(labelings(g.n))
    clamp = data.draw(st.booleans())
    got = _outcome(weight_profile, g, labels, ds, clamp=clamp)
    assert got == _outcome(_ball_profile, g, labels, ds, clamp=clamp)
    assert got == _outcome(oracles.dense_weight_profile, g, labels, ds,
                           clamp=clamp)


def test_weight_profile_memory_is_linear_in_the_order():
    g = OrientedGraph(3000, [])
    tracemalloc.start()
    try:
        profile = weight_profile(g, range(1, 3001), (0,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert profile.weights[-1] == 3000
    assert peak < 4 * 2**20
