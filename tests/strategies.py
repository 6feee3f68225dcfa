"""Shared hypothesis strategies for property tests."""

from __future__ import annotations

from hypothesis import strategies as st

from antimagic import OrientedGraph, all_pairs_distances


@st.composite
def oriented_graphs(draw, min_n: int = 1, max_n: int = 5) -> OrientedGraph:
    """Any loop-free digon-free digraph: each vertex pair independently
    gets no arc or one of the two directions."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    digits = draw(st.lists(st.sampled_from((0, 1, 2)),
                           min_size=len(pairs), max_size=len(pairs)))
    arcs = []
    for (u, v), digit in zip(pairs, digits):
        if digit == 1:
            arcs.append((u, v))
        elif digit == 2:
            arcs.append((v, u))
    return OrientedGraph(n, arcs)


@st.composite
def linear_forests(draw, min_n: int = 1, max_n: int = 12) -> OrientedGraph:
    """Any oriented linear forest: the vertices in a drawn order, each
    consecutive pair joined or not and, when joined, directed either way."""
    n = draw(st.integers(min_n, max_n))
    order = draw(st.permutations(range(n)))
    steps = draw(st.lists(st.sampled_from((0, 1, 2)),
                          min_size=n - 1, max_size=n - 1))
    arcs = []
    for u, v, step in zip(order, order[1:], steps):
        if step == 1:
            arcs.append((u, v))
        elif step == 2:
            arcs.append((v, u))
    return OrientedGraph(n, arcs)


@st.composite
def graphs_with_distance_sets(
    draw, min_n: int = 1, max_n: int = 5,
) -> tuple[OrientedGraph, tuple[int, ...]]:
    g = draw(oriented_graphs(min_n, max_n))
    pd = all_pairs_distances(g).partial_diameter
    ds = draw(st.sets(st.integers(0, pd), min_size=1))
    return g, tuple(sorted(ds))


def labelings(n: int):
    return st.permutations(tuple(range(1, n + 1))).map(tuple)
