"""Closed-form antimagic labelings for oriented paths and linear forests.

Every constructor returns a ConstructionResult whose weight profile was
recomputed by the verifier; a collision in that profile means the label
formula is wrong, so it raises instead of returning.

The constructions:

* one-way path, any D with min(D) <= 1: label i gets n - i + 1
* theta-prime path, {0, n-2} <= D <= {0..n-2}: vertex 1 gets 1, vertex
  i >= 2 gets n - i + 2
* theta-double-prime path, same D condition: the identity labeling
* m copies of the n-path under phi with D = {0, k}: vertex i of copy j
  gets m(i-1) + j
* same forest, any D with min(D) = 0: the same label formula
* mixed linear forest under phi with D = {0, 1}: labels sweep layers of
  constant i in increasing i, inside a layer by component then copy
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .digraph import (
    THETA_DOUBLE_PRIME,
    THETA_PRIME,
    OrientedGraph,
    validate_distance_set,
)
from .errors import (
    AntimagicError,
    InvalidParameterError,
    TheoremPreconditionError,
    require_int,
)
from .generators import (
    MAX_ORDER,
    PHI,
    LinearForestSpec,
    _forest_layout,
    build_forest,
    build_path,
    mpn_spec,
)
from .labeling import WeightProfile, weight_profile

TAG_UNIDIRECTIONAL_PATH = "unidirectional-path"
TAG_THETA_PRIME = "theta-prime-path"
TAG_THETA_DOUBLE_PRIME = "theta-double-prime-path"
TAG_MPN_ZERO_K = "path-copies-zero-k"
TAG_MPN_MIN_ZERO = "path-copies-min-zero"
TAG_MIXED_FOREST = "mixed-forest-zero-one"


@dataclass(frozen=True)
class ConstructionResult:
    """A verified labeling together with the graph and distance set it serves."""

    graph: OrientedGraph
    labels: tuple[int, ...]
    d_set: tuple[int, ...]
    theorem_tag: str
    profile: WeightProfile


def _finish(
    graph: OrientedGraph,
    labels: Sequence[int],
    d_set: tuple[int, ...],
    tag: str,
) -> ConstructionResult:
    profile = weight_profile(graph, labels, d_set)
    if not profile.distinct:
        raise AntimagicError(
            f"internal error: construction {tag} produced colliding weights "
            f"{profile.collisions}")
    return ConstructionResult(graph, tuple(labels), d_set, tag, profile)


def _require_order(order: int) -> None:
    """Refuse, before building it, a graph of more than MAX_ORDER vertices."""
    if order > MAX_ORDER:
        raise InvalidParameterError(
            f"a construction has at most {MAX_ORDER} vertices")


def label_unidirectional_path(n: int, d_set: Iterable[int]) -> ConstructionResult:
    """Antimagic labeling of the forward path for any D reaching depth <= 1."""
    require_int("path order", n, 3, MAX_ORDER)
    ds = validate_distance_set(d_set, n - 1)
    if ds[0] > 1:
        raise TheoremPreconditionError(
            f"the one-way path construction needs min(D) <= 1, got {ds[0]}")
    labels = [n - i for i in range(n)]
    return _finish(build_path(n), labels, ds, TAG_UNIDIRECTIONAL_PATH)


def _check_theta_d_set(n: int, d_set: Iterable[int]) -> tuple[int, ...]:
    ds = validate_distance_set(d_set, n - 2)
    if 0 not in ds or (n - 2) not in ds:
        raise TheoremPreconditionError(
            f"the theta constructions need {{0, {n - 2}}} inside D, got {set(ds)}")
    return ds


def label_theta_prime(n: int, d_set: Iterable[int]) -> ConstructionResult:
    require_int("path order", n, 3, MAX_ORDER)
    ds = _check_theta_d_set(n, d_set)
    labels = [1] + [n - i + 1 for i in range(1, n)]
    return _finish(build_path(n, THETA_PRIME), labels, ds, TAG_THETA_PRIME)


def label_theta_double_prime(n: int, d_set: Iterable[int]) -> ConstructionResult:
    require_int("path order", n, 3, MAX_ORDER)
    ds = _check_theta_d_set(n, d_set)
    labels = list(range(1, n + 1))
    return _finish(build_path(n, THETA_DOUBLE_PRIME), labels, ds,
                   TAG_THETA_DOUBLE_PRIME)


def _mpn_labels(m: int, n: int) -> list[int]:
    # copy s of the layout is the paper's copy j; the formula is layer-major
    return [m * (i - 1) + s for _, s, i in _forest_layout(((m, n),))]


def label_mpn(m: int, n: int, k: int) -> ConstructionResult:
    """{0, k}-antimagic labeling of m phi-oriented copies of the n-path."""
    require_int("copy count", m, lo=1)
    require_int("path order", n, lo=2)
    _require_order(m * n)
    require_int("k", k, 1, n - 1)
    graph = build_forest(mpn_spec(m, n))
    return _finish(graph, _mpn_labels(m, n), (0, k), TAG_MPN_ZERO_K)


def label_mpn_general(m: int, n: int, d_set: Iterable[int]) -> ConstructionResult:
    """D-antimagic labeling of m phi-oriented copies of the n-path, min(D) = 0."""
    require_int("copy count", m, lo=2)
    require_int("path order", n, lo=2)
    _require_order(m * n)
    ds = validate_distance_set(d_set, n - 1)
    if ds[0] != 0:
        raise TheoremPreconditionError(
            f"the copies-of-a-path construction needs min(D) = 0, got {ds[0]}")
    graph = build_forest(mpn_spec(m, n))
    return _finish(graph, _mpn_labels(m, n), ds, TAG_MPN_MIN_ZERO)


def forest_label_value(
    components: Sequence[tuple[int, int]], j: int, s: int, i: int
) -> int:
    """Label of vertex i of copy s of component j in the mixed forest scheme.

    Counts every vertex that comes earlier in the layer sweep: whole
    layers below i (grouped into bands between consecutive component
    orders), then the copies preceding (j, s) inside layer i, then s
    itself.  Component orders must be strictly increasing.
    """
    ms = [m for m, _ in components]
    ns = [n for _, n in components]
    t = len(components)
    band = next(q for q in range(t) if i <= ns[q])  # 0-based j0 - 1
    if j - 1 < band:
        raise InvalidParameterError(
            f"component {j} has no vertex at position {i}")
    below = 0
    for q in range(band):
        rows = ns[q] - (ns[q - 1] if q else 0)
        below += rows * sum(ms[q:])
    start_of_band = ns[band - 1] if band else 0
    same_layer_before = sum(ms[band:j - 1])
    return below + (i - start_of_band - 1) * sum(ms[band:]) + same_layer_before + s


def label_forest(spec: LinearForestSpec) -> ConstructionResult:
    """{0, 1}-antimagic labeling of any phi-oriented linear forest."""
    if spec.orientation != PHI:
        raise TheoremPreconditionError(
            "the mixed forest construction needs the phi orientation")
    _require_order(spec.total_order)
    labels = [forest_label_value(spec.components, j, s, i)
              for j, s, i in _forest_layout(spec.components)]
    d_set = (0,) if spec.total_order == 1 or max(
        n for _, n in spec.components) == 1 else (0, 1)
    return _finish(build_forest(spec), labels, d_set, TAG_MIXED_FOREST)
