"""Round trips through JSON and DOT, with the 1-based file boundary."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from antimagic import (
    InvalidParameterError,
    OrientedGraph,
    build_cycle,
    build_path,
    canonical_json,
    check_path_characterizations,
    check_to_dict,
    construction_to_dict,
    exhaustive_labeling_search,
    find_magic_graph,
    graph_from_dict,
    graph_to_dict,
    graph_to_dot,
    label_theta_double_prime,
    labels_from_dict,
    labels_to_dict,
    load_graph,
    load_labels,
    search_report_to_dict,
    write_text,
)
from strategies import oriented_graphs


def test_graph_dict_uses_one_based_vertices():
    g = build_path(3, 2)
    assert graph_to_dict(g) == {"n": 3, "arcs": [[2, 1], [2, 3]]}


def test_graph_round_trip():
    g = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert graph_from_dict(graph_to_dict(g)) == g


@settings(max_examples=50, deadline=None)
@given(oriented_graphs(max_n=6))
def test_graph_round_trip_everywhere(g):
    assert graph_from_dict(graph_to_dict(g)) == g


def test_graph_from_dict_rejects_bad_documents():
    with pytest.raises(InvalidParameterError, match='"n" and "arcs"'):
        graph_from_dict({"n": 3})
    with pytest.raises(InvalidParameterError, match='"n" and "arcs"'):
        graph_from_dict([1, 2])
    with pytest.raises(InvalidParameterError, match="integer"):
        graph_from_dict({"n": "3", "arcs": []})
    with pytest.raises(InvalidParameterError, match="pair of integers"):
        graph_from_dict({"n": 3, "arcs": [[1]]})
    with pytest.raises(InvalidParameterError, match="vertex range"):
        graph_from_dict({"n": 3, "arcs": [[0, 1]]})
    with pytest.raises(InvalidParameterError, match="vertex range"):
        graph_from_dict({"n": 3, "arcs": [[1, 4]]})
    with pytest.raises(InvalidParameterError, match="from 1 to 10000"):
        graph_from_dict({"n": 10_001, "arcs": []})
    assert graph_from_dict({"n": 10_000, "arcs": []}).n == 10_000


def test_labels_round_trip_and_validation():
    assert labels_from_dict(labels_to_dict((3, 1, 2))) == (3, 1, 2)
    with pytest.raises(InvalidParameterError, match='"labels"'):
        labels_from_dict({})
    with pytest.raises(InvalidParameterError, match="list of integers"):
        labels_from_dict({"labels": [1, "2"]})
    with pytest.raises(InvalidParameterError, match="list of integers"):
        labels_from_dict({"labels": [True, 2]})


def test_construction_dict_shape():
    doc = construction_to_dict(label_theta_double_prime(3, (0, 1)))
    assert doc == {
        "graph": {"n": 3, "arcs": [[1, 2], [3, 2]]},
        "labels": [1, 2, 3],
        "d_set": [0, 1],
        "theorem_tag": "theta-double-prime-path",
        "weights": [3, 2, 5],
    }


def test_search_report_dict_with_and_without_a_graph():
    plain = search_report_to_dict(
        exhaustive_labeling_search(build_path(3, 0), (0, 1)))
    assert plain["outcome"] == "found"
    assert plain["witness_graph"] is None
    assert plain["magic_constant"] is None
    hunt = search_report_to_dict(find_magic_graph(3, (0, 1, 2)))
    assert hunt["witness_graph"]["n"] == 3
    assert hunt["magic_constant"] is not None
    assert isinstance(hunt["elapsed"], float)


def test_check_dict_shape():
    doc = check_to_dict(check_path_characterizations(3)[0])
    assert doc["family"] == "path-min-1"
    assert doc["swept"] == doc["checked"] + doc["skipped"]
    assert doc["counterexamples"] == []
    assert doc["agree"] is True


def test_canonical_json_is_byte_stable():
    doc = {"b": [2, 1], "a": {"y": 1, "x": 2}}
    first = canonical_json(doc)
    assert first == canonical_json({"a": {"x": 2, "y": 1}, "b": [2, 1]})
    assert first.endswith("\n")
    assert first == '{\n  "a": {\n    "x": 2,\n    "y": 1\n  },\n  "b": [\n    2,\n    1\n  ]\n}\n'


def test_dot_output_frozen():
    g = build_path(3, 1)
    assert graph_to_dot(g) == (
        "digraph {\n"
        "  v1;\n"
        "  v2;\n"
        "  v3;\n"
        "  v1 -> v2;\n"
        "  v3 -> v2;\n"
        "}\n")
    annotated = graph_to_dot(g, (1, 2, 3), (0, 1))
    assert annotated == (
        "digraph {\n"
        '  v1 [label="v1 f=1 w=3"];\n'
        '  v2 [label="v2 f=2 w=2"];\n'
        '  v3 [label="v3 f=3 w=5"];\n'
        "  v1 -> v2;\n"
        "  v3 -> v2;\n"
        "}\n")


def test_dot_labels_only():
    text = graph_to_dot(build_path(2, 0), (2, 1))
    assert '  v1 [label="v1 f=2"];' in text
    assert "w=" not in text


def test_dot_weights_need_labels():
    with pytest.raises(InvalidParameterError, match="need labels"):
        graph_to_dot(build_path(3, 0), None, (0,))


def test_file_round_trip(tmp_path):
    g = build_cycle(4)
    gpath = tmp_path / "graph.json"
    write_text(str(gpath), canonical_json(graph_to_dict(g)))
    assert load_graph(str(gpath)) == g
    lpath = tmp_path / "labels.json"
    write_text(str(lpath), canonical_json(labels_to_dict((1, 2, 4, 3))))
    assert load_labels(str(lpath)) == (1, 2, 4, 3)
    assert gpath.read_text() == canonical_json(graph_to_dict(g))


def test_load_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(InvalidParameterError, match="cannot read"):
        load_graph(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InvalidParameterError, match="not valid JSON"):
        load_graph(str(bad))
