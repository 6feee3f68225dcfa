"""Builders and enumerators for oriented paths, cycles, linear forests, trees.

Every builder lists its undirected edges as pairs (u, v) and turns them
into arcs by one rule, owned by _orient: edge bit 1 keeps the listed
direction u -> v and bit 0 reverses it.  An integer bitmask gives edge k
the bit (mask >> k) & 1, least significant bit first, and a binary
string is read most significant bit first; _mask_to_bits owns both
decodings.

A path lists edge i as (i, i+1) for its vertices 0..n-1 in path order.
The theta orientations take their bits from digraph._THETA_BITS, next to
the classifier that recognises them.  A tree lists its edges sorted.

A linear forest spec lists components as (multiplicity, order) pairs with
strictly increasing orders.  Its vertices are laid out copy-major:
component blocks in spec order, copies s = 1..m_j inside a block, and
vertices i = 1..n_j inside a copy, so the global index of vertex
(j, s, i) is block_offset(j) + (s - 1) * n_j + (i - 1).  _forest_layout
walks this layout and forest_vertex_index is its closed form.  Each copy
lists its edges (i, i+1) in layout order, and the phi orientation gives
every edge bit 0, so every arc runs from vertex i+1 to vertex i of its
copy.
"""

from __future__ import annotations

import heapq
import itertools
import reprlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .digraph import _THETA_BITS, OrientedGraph
from .errors import InvalidParameterError, is_int, require_int

FORWARD = "forward"
PHI = "phi"
EXPLICIT = "explicit"

MAX_TREE_ORDER = 8
# the most vertices build_path, build_cycle or a construction builds, or
# a graph or labeling file holds, checked before anything is built:
# verify weighs every vertex off its BFS ball, or off its directed runs
# in a linear forest, and export writes it a DOT line
MAX_ORDER = 10_000

_FOREST_ORIENTATIONS = (FORWARD, PHI, EXPLICIT)


def _mask_to_bits(orientation: int | str, width: int) -> tuple[int, ...]:
    if isinstance(orientation, str):
        text = orientation[2:] if orientation.startswith("0b") else orientation
        if len(text) != width or set(text) - {"0", "1"}:
            raise InvalidParameterError(
                f"orientation bitmask {reprlib.repr(orientation)} must be "
                f"{width} binary digits")
        # text reads most significant bit first
        return tuple(int(c) for c in reversed(text))
    require_int(f"orientation bitmask for {width} edges", orientation,
                0, (1 << width) - 1)
    return tuple((orientation >> i) & 1 for i in range(width))


def _orient(edges: Iterable[tuple[int, int]],
            bits: Iterable[int]) -> list[tuple[int, int]]:
    """Arcs of the listed edges: bit 1 keeps u -> v, bit 0 reverses it."""
    return [(u, v) if b else (v, u) for (u, v), b in zip(edges, bits)]


def build_path(n: int, orientation: int | str = FORWARD) -> OrientedGraph:
    """Oriented path on n vertices.

    orientation is "forward" (all arcs i -> i+1), "theta-prime",
    "theta-double-prime" (both need n >= 3), or an edge-direction bitmask
    given as an int or a binary string of exactly n-1 digits.
    """
    require_int("path order", n, 1, MAX_ORDER)
    if orientation == FORWARD:
        bits: tuple[int, ...] = (1,) * (n - 1)
    elif isinstance(orientation, str) and orientation in _THETA_BITS:
        if n < 3:
            raise InvalidParameterError(f"{orientation} needs n >= 3")
        bits = _THETA_BITS[orientation](n - 1)
    else:
        bits = _mask_to_bits(orientation, n - 1)
    return OrientedGraph(n, _orient(((i, i + 1) for i in range(n - 1)), bits))


def build_cycle(n: int) -> OrientedGraph:
    """One-way cycle 0 -> 1 -> ... -> n-1 -> 0; needs n >= 3 to stay oriented."""
    require_int("cycle order", n, 3, MAX_ORDER)
    return OrientedGraph(n, [(i, (i + 1) % n) for i in range(n)])


def enumerate_path_orientations(n: int) -> Iterator[OrientedGraph]:
    """All 2^(n-1) orientations of the n-path, in bitmask order."""
    require_int("path order", n, lo=1)
    for mask in range(1 << (n - 1)):
        yield build_path(n, mask)


# ---- linear forests ----


@dataclass(frozen=True)
class LinearForestSpec:
    """Disjoint union of path copies: components are (multiplicity, order) pairs.

    Orders must be strictly increasing; merge equal orders into one
    multiplicity first (from_lengths does this).  orientation "explicit"
    takes one direction bit per path edge, in layout order, via edge_bits.
    """

    components: tuple[tuple[int, int], ...]
    orientation: str = PHI
    edge_bits: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        comps = tuple((require_int("component multiplicity", m),
                       require_int("component order", n))
                      for m, n in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise InvalidParameterError("forest spec needs at least one component")
        for m, n in comps:
            if m < 1 or n < 1:
                raise InvalidParameterError(
                    f"component ({m}, {n}) must have multiplicity and order >= 1")
        orders = [n for _, n in comps]
        if any(a >= b for a, b in zip(orders, orders[1:])):
            raise InvalidParameterError(
                "component orders must be strictly increasing; merge equal "
                "orders into one multiplicity")
        if self.orientation not in _FOREST_ORIENTATIONS:
            raise InvalidParameterError(
                f"unknown forest orientation {self.orientation!r}")
        if self.orientation == EXPLICIT:
            if self.edge_bits is None:
                raise InvalidParameterError("explicit orientation needs edge_bits")
            bits = tuple(self.edge_bits)
            if len(bits) != self.total_edges or not all(
                    is_int(b) and b in (0, 1) for b in bits):
                raise InvalidParameterError(
                    f"edge_bits must be {self.total_edges} bits of 0 or 1")
            object.__setattr__(self, "edge_bits", bits)
        elif self.edge_bits is not None:
            raise InvalidParameterError(
                "edge_bits only apply to the explicit orientation")

    @classmethod
    def from_lengths(cls, lengths: Iterable[int], orientation: str = PHI,
                     edge_bits: Iterable[int] | None = None) -> "LinearForestSpec":
        """Build a spec from a plain list of path orders, merging duplicates."""
        counts: dict[int, int] = {}
        for n in lengths:
            require_int("path order", n)
            counts[n] = counts.get(n, 0) + 1
        comps = tuple((m, n) for n, m in sorted(counts.items()))
        return cls(comps, orientation,
                   None if edge_bits is None else tuple(edge_bits))

    @property
    def total_order(self) -> int:
        return sum(m * n for m, n in self.components)

    @property
    def total_edges(self) -> int:
        return sum(m * (n - 1) for m, n in self.components)

    @property
    def copy_count(self) -> int:
        return sum(m for m, _ in self.components)


def mpn_spec(m: int, n: int, orientation: str = PHI,
             edge_bits: Iterable[int] | None = None) -> LinearForestSpec:
    """Spec for m disjoint copies of the n-path."""
    return LinearForestSpec(((m, n),), orientation,
                            None if edge_bits is None else tuple(edge_bits))


def forest_vertex_index(spec: LinearForestSpec, j: int, s: int, i: int) -> int:
    """Global 0-based index of vertex i of copy s of component j (all 1-based)."""
    if not 1 <= j <= len(spec.components):
        raise InvalidParameterError(f"component index {j} out of range")
    m, n = spec.components[j - 1]
    if not 1 <= s <= m or not 1 <= i <= n:
        raise InvalidParameterError(f"vertex (j={j}, s={s}, i={i}) out of range")
    offset = sum(mm * nn for mm, nn in spec.components[:j - 1])
    return offset + (s - 1) * n + (i - 1)


def _forest_layout(
    components: Sequence[tuple[int, int]],
) -> Iterator[tuple[int, int, int]]:
    """(j, s, i), all 1-based, of every forest vertex in index order."""
    for j, (m, n) in enumerate(components, start=1):
        for s in range(1, m + 1):
            for i in range(1, n + 1):
                yield j, s, i


def build_forest(spec: LinearForestSpec) -> OrientedGraph:
    """Oriented linear forest laid out as documented on the module."""
    # vertex v at position i > 1 closes the edge from its predecessor v - 1
    edges = [(v - 1, v) for v, (_, _, i)
             in enumerate(_forest_layout(spec.components)) if i > 1]
    bits = spec.edge_bits
    if bits is None:  # forward keeps every edge, phi reverses every edge
        bits = (int(spec.orientation == FORWARD),) * spec.total_edges
    return OrientedGraph(spec.total_order, _orient(edges, bits))


def parse_forest_spec(text: str, orientation: str = PHI) -> LinearForestSpec:
    """Parse a spec like "2x3,1x5,1x7" (multiplicity x order per component)."""
    lengths: list[int] = []
    total = 0
    for part in text.split(","):
        part = part.strip()
        try:
            m_text, n_text = part.lower().split("x")
            m, n = int(m_text), int(n_text)
        except ValueError:
            raise InvalidParameterError(
                f"bad forest component {reprlib.repr(part)}, expected MxN") from None
        if m < 1 or n < 1:
            raise InvalidParameterError(f"bad forest component {reprlib.repr(part)}")
        total += m * n
        if total > MAX_ORDER:
            raise InvalidParameterError(
                f"forest spec {reprlib.repr(text)} has more than {MAX_ORDER} vertices")
        lengths.extend([n] * m)
    if not lengths:
        raise InvalidParameterError("empty forest spec")
    return LinearForestSpec.from_lengths(lengths, orientation)


# ---- labeled trees ----


def _prufer_edges(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def enumerate_trees(n: int) -> Iterator[OrientedGraph]:
    """All oriented labeled trees on n vertices.

    Iterates the n^(n-2) Prufer sequences in lexicographic order and, for
    each tree, all 2^(n-1) edge orientations in bitmask order over the
    lexicographically sorted edge list.  Each labeled tree appears exactly
    once.  Guarded to n <= 8; the space explodes past that.
    """
    require_int("tree order", n, 1, MAX_TREE_ORDER)
    if n == 1:
        yield OrientedGraph(1, [])
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        edges = sorted(_prufer_edges(seq, n))
        for mask in range(1 << (n - 1)):
            yield OrientedGraph(n, _orient(edges, _mask_to_bits(mask, n - 1)))
