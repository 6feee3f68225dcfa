"""JSON and DOT views of graphs, labelings, and reports.

Vertices are 0-based inside the library but 1-based in every file this
module reads or writes, matching the v1..vn naming used throughout the
docs.  canonical_json is byte-stable: sorted keys, two-space indent, a
single trailing newline, so round-tripping a file reproduces it
exactly.
"""

from __future__ import annotations

import json
import reprlib
from typing import Any, Sequence

from .constructions import ConstructionResult
from .digraph import OrientedGraph
from .errors import InvalidParameterError, is_int, require_int
from .generators import MAX_ORDER as MAX_FILE_ORDER
from .labeling import check_labeling, weight_profile
from .search import CharacterizationCheck, SearchReport


def graph_to_dict(g: OrientedGraph) -> dict[str, Any]:
    return {
        "n": g.n,
        "arcs": [[u + 1, v + 1] for u, v in sorted(g.arcs)],
    }


def graph_from_dict(obj: Any) -> OrientedGraph:
    if not isinstance(obj, dict) or "n" not in obj or "arcs" not in obj:
        raise InvalidParameterError(
            'a graph document needs the keys "n" and "arcs"')
    n = require_int('"n"', obj["n"], 1, MAX_FILE_ORDER)
    if not isinstance(obj["arcs"], list):
        raise InvalidParameterError('"arcs" must be a list of arcs')
    if len(obj["arcs"]) > n * (n - 1) // 2:
        raise InvalidParameterError(f'"arcs" lists {len(obj["arcs"])} arcs, '
                                    f"more than {n} vertices can hold")
    arcs = []
    for entry in obj["arcs"]:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not all(is_int(x) for x in entry)):
            raise InvalidParameterError(
                f"each arc must be a pair of integers, got {reprlib.repr(entry)}")
        u, v = entry
        if not 1 <= u <= n or not 1 <= v <= n:
            raise InvalidParameterError(
                f"arc {reprlib.repr(entry)} leaves the vertex range 1..{n}")
        arcs.append((u - 1, v - 1))
    return OrientedGraph(n, arcs)


def labels_to_dict(labels: Sequence[int]) -> dict[str, Any]:
    return {"labels": list(labels)}


def labels_from_dict(obj: Any) -> tuple[int, ...]:
    if not isinstance(obj, dict) or "labels" not in obj:
        raise InvalidParameterError('a labeling document needs the key "labels"')
    values = obj["labels"]
    if not isinstance(values, list) or not all(is_int(x) for x in values):
        raise InvalidParameterError('"labels" must be a list of integers')
    if len(values) > MAX_FILE_ORDER:
        raise InvalidParameterError(
            f'"labels" lists {len(values)} labels, more than {MAX_FILE_ORDER}')
    return tuple(values)


def construction_to_dict(result: ConstructionResult) -> dict[str, Any]:
    return {
        "graph": graph_to_dict(result.graph),
        "labels": list(result.labels),
        "d_set": list(result.d_set),
        "theorem_tag": result.theorem_tag,
        "weights": list(result.profile.weights),
    }


def search_report_to_dict(report: SearchReport) -> dict[str, Any]:
    return {
        "outcome": report.outcome,
        "witness": None if report.witness is None else list(report.witness),
        "candidates_examined": report.candidates_examined,
        "elapsed": report.elapsed,
        "shortcut": report.shortcut,
        "witness_graph": (None if report.witness_graph is None
                          else graph_to_dict(report.witness_graph)),
        "magic_constant": report.magic_constant,
    }


def check_to_dict(check: CharacterizationCheck) -> dict[str, Any]:
    return {
        "family": check.theorem_tag,
        "swept": check.swept,
        "checked": check.checked,
        "skipped": check.skipped,
        "counterexamples": [list(entry) for entry in check.counterexamples],
        "agree": check.agree,
    }


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def graph_to_dot(
    g: OrientedGraph,
    labels: Sequence[int] | None = None,
    d_set: Sequence[int] | None = None,
) -> str:
    """Graphviz source; labels add f= annotations, a distance set adds w=."""
    if labels is None and d_set is not None:
        raise InvalidParameterError("weight annotations need labels as well")
    notes: dict[int, str] = {}
    if labels is not None:
        values = check_labeling(labels, g.n)
        if d_set is not None:
            weights = weight_profile(g, values, d_set).weights
            for v in range(g.n):
                notes[v] = f' [label="v{v + 1} f={values[v]} w={weights[v]}"]'
        else:
            for v in range(g.n):
                notes[v] = f' [label="v{v + 1} f={values[v]}"]'
    lines = ["digraph {"]
    for v in range(g.n):
        lines.append(f"  v{v + 1}{notes.get(v, '')};")
    for u, v in sorted(g.arcs):
        lines.append(f"  v{u + 1} -> v{v + 1};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise InvalidParameterError(f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise InvalidParameterError(f"{path} is not valid JSON: {exc}") from None


def load_graph(path: str) -> OrientedGraph:
    return graph_from_dict(_load_json(path))


def load_labels(path: str) -> tuple[int, ...]:
    return labels_from_dict(_load_json(path))


def write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write {path}: {exc}") from None
