"""End-to-end runs of the command line, exit codes included."""

from __future__ import annotations

import json

import pytest

from antimagic import (
    OrientedGraph,
    build_cycle,
    generators,
    serialize,
    canonical_json,
    graph_to_dict,
    labels_to_dict,
)
from antimagic.cli import main


def write_graph(tmp_path, g, name="graph.json"):
    path = tmp_path / name
    path.write_text(canonical_json(graph_to_dict(g)))
    return str(path)


def write_labels(tmp_path, labels, name="labels.json"):
    path = tmp_path / name
    path.write_text(canonical_json(labels_to_dict(labels)))
    return str(path)


def test_construct_then_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main(["construct", "--family", "theta-double-prime",
                 "--n", "3", "--D", "0,1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["labels"] == [1, 2, 3]
    assert doc["weights"] == [3, 2, 5]
    gpath = tmp_path / "graph.json"
    gpath.write_text(canonical_json(doc["graph"]))
    lpath = write_labels(tmp_path, tuple(doc["labels"]))
    capsys.readouterr()
    code = main(["verify", "--graph", str(gpath), "--labeling", lpath,
                 "--D", "0,1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "weights: 3 2 5" in captured.out
    assert "antimagic: yes" in captured.out


def test_construct_writes_canonical_json(capsys):
    code = main(["construct", "--family", "uni-path", "--n", "4",
                 "--D", "0,1"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert set(doc) == {"graph", "labels", "d_set", "theorem_tag", "weights"}
    assert captured.out == canonical_json(doc)


def test_construct_mpn_and_forest(capsys):
    assert main(["construct", "--family", "mpn", "--m", "2", "--n", "4",
                 "--k", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["d_set"] == [0, 2]
    assert main(["construct", "--family", "forest",
                 "--spec", "2x3,1x5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(doc["labels"]) == list(range(1, 12))


def test_construct_dot_output(capsys):
    code = main(["construct", "--family", "theta-double-prime", "--n", "3",
                 "--D", "0,1", "--dot"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("digraph {")
    assert 'f=1 w=3' in captured.out


def test_construct_rejects_conflicting_mpn_flags(capsys):
    code = main(["construct", "--family", "mpn", "--m", "2", "--n", "4",
                 "--k", "2", "--D", "0,2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "either --k or --D" in captured.err


def test_construct_reports_bad_k(capsys):
    code = main(["construct", "--family", "mpn", "--m", "2", "--n", "3",
                 "--k", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")


def test_verify_failure_lists_collisions(tmp_path, capsys):
    gpath = write_graph(tmp_path, build_cycle(3))
    lpath = write_labels(tmp_path, (1, 2, 3))
    code = main(["verify", "--graph", gpath, "--labeling", lpath,
                 "--D", "0,1,2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "antimagic: no" in captured.out
    assert "collisions: v1=v2 v1=v3 v2=v3" in captured.out


@pytest.mark.parametrize("labels, problem", [
    (tuple(range(1, 10001)), "got 10000 labels"),
    ((1, 1, 3), "vertex 1 has label 1 again")])
def test_verify_rejects_a_bad_labeling_in_one_short_line(
        tmp_path, capsys, labels, problem):
    gpath = write_graph(tmp_path, build_cycle(3))
    lpath = write_labels(tmp_path, labels)
    code = main(["verify", "--graph", gpath, "--labeling", lpath,
                 "--D", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.count("\n") == 1 and len(err) < 200
    assert err.startswith("error: labeling must be a bijection onto 1..3")
    assert problem in err


def test_verify_magic_mode(tmp_path, capsys):
    gpath = write_graph(tmp_path, build_cycle(4))
    lpath = write_labels(tmp_path, (1, 2, 4, 3))
    code = main(["verify", "--graph", gpath, "--labeling", lpath,
                 "--D", "1,3", "--magic"])
    captured = capsys.readouterr()
    assert code == 0
    assert "magic constant: 5" in captured.out
    code = main(["verify", "--graph", gpath, "--labeling", lpath,
                 "--D", "1", "--magic"])
    captured = capsys.readouterr()
    assert code == 1
    assert "not magic" in captured.out


def test_verify_clamp_allows_large_distances(tmp_path, capsys):
    gpath = write_graph(tmp_path, build_cycle(3))
    lpath = write_labels(tmp_path, (1, 2, 3))
    code = main(["verify", "--graph", gpath, "--labeling", lpath,
                 "--D", "0,9", "--clamp"])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert captured.out.startswith("weights:")
    assert main(["verify", "--graph", gpath, "--labeling", lpath,
                 "--D", "0,9"]) == 2


def test_verify_at_the_file_order_cap(tmp_path, capsys):
    n = serialize.MAX_FILE_ORDER
    gpath = write_graph(tmp_path, OrientedGraph(n, []))
    lpath = write_labels(tmp_path, tuple(range(1, n + 1)))
    code = main(["verify", "--graph", gpath, "--labeling", lpath,
                 "--D", "0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "antimagic: yes" in captured.out.splitlines()


def test_search_found_on_a_path(capsys):
    code = main(["search", "--path", "4", "--D", "0,1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "outcome: found" in captured.out
    assert "witness:" in captured.out
    assert "candidates examined:" in captured.out


def test_search_mask_orientation(capsys):
    code = main(["search", "--path", "4", "--orientation", "0b101",
                 "--D", "1"])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert "outcome:" in captured.out


def test_search_shortcut_and_full_scan(capsys):
    code = main(["search", "--cycle", "4", "--D", "0,2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "shortcut: two vertices share a distance neighborhood" in captured.out
    assert "candidates examined: 0" in captured.out
    code = main(["search", "--cycle", "4", "--D", "0,2", "--no-prune"])
    captured = capsys.readouterr()
    assert code == 1
    assert "candidates examined: 24" in captured.out


def test_search_scans_all_of_ten_factorial(capsys):
    # the walk prunes the whole space at its root: two vertices of the
    # one-way 10-path have no vertex at distance 2, so both weigh 0
    code = main(["search", "--path", "10", "--D", "2", "--no-prune"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[:-1] == ["outcome: exhausted-none",
                          "candidates examined: 3628800"]
    assert lines[-1].startswith("elapsed: ")


def test_search_budget_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("ANTIMAGIC_BUDGET", "5")
    code = main(["search", "--cycle", "4", "--D", "0,2", "--no-prune"])
    captured = capsys.readouterr()
    assert code == 1
    assert "outcome: aborted-budget" in captured.out
    assert "candidates examined: 5" in captured.out
    monkeypatch.setenv("ANTIMAGIC_BUDGET", "soon")
    assert main(["search", "--cycle", "4", "--D", "0,2",
                 "--no-prune"]) == 2


def test_search_explicit_budget_beats_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("ANTIMAGIC_BUDGET", "5")
    code = main(["search", "--cycle", "4", "--D", "0,2", "--no-prune",
                 "--budget", "24"])
    captured = capsys.readouterr()
    assert code == 1
    assert "outcome: exhausted-none" in captured.out


def test_search_magic_hunt(capsys):
    code = main(["search", "--magic", "--order", "5", "--D", "0,2,3",
                 "--lambda", "10"])
    captured = capsys.readouterr()
    assert code == 0
    assert "witness graph: 1->4 2->3 3->5 4->5 5->1 5->2" in captured.out
    assert "magic constant: 10" in captured.out
    assert main(["search", "--magic", "--order", "3", "--D", "1"]) == 1
    capsys.readouterr()


def test_search_magic_needs_an_order(capsys):
    code = main(["search", "--magic", "--D", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--magic needs --order" in captured.err


def test_search_needs_a_target(capsys):
    code = main(["search", "--D", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "search needs" in captured.err


def test_sweep_paths(capsys):
    code = main(["sweep", "path-characterizations", "--n-max", "3"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0].split()[0] == "family"
    assert len(lines) == 5
    assert all(line.endswith("ok") for line in lines[1:])


def test_sweep_union_counterexample(capsys):
    code = main(["sweep", "union-counterexample"])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "singleton {0}: found"
    assert lines[1] == "singleton {2}: found"
    assert lines[2] == "union {0, 2} with pruning: exhausted-none (shortcut=True)"
    assert lines[3] == "union {0, 2} full scan: exhausted-none after 24 candidates"
    assert lines[4] == "ok"


def test_sweep_duality_on_a_cycle(capsys):
    code = main(["sweep", "duality", "--cycle", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert "complement-duality" in captured.out


def test_sweep_neighborhood_survey(capsys):
    code = main(["sweep", "neighborhood-survey", "--order", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == (
        "order 3: 111 graph/distance-set pairs, "
        "91 pass the necessary condition, 91 antimagic, gap 0")


def test_sweep_magic_bounds(capsys):
    code = main(["sweep", "magic-bounds", "--order", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "magic-constant-window" in captured.out


# what a sweep over every labelled graph prints; the sweeps over one graph
# per isomorphism class must print it byte for byte
@pytest.mark.parametrize("family, expected", [
    ("magic-bounds",
     "family                 swept  checked  skipped  counterexamples  status\n"
     "magic-constant-window  66     924      0        0                ok\n"),
    ("duality",
     "family              swept  checked  skipped  counterexamples  status\n"
     "complement-duality  66     22176    0        0                ok\n"),
    ("neighborhood-survey",
     "order 4: 5329 graph/distance-set pairs, 3797 pass the necessary "
     "condition, 3797 antimagic, gap 0\n"),
])
def test_order_four_sweep_output_is_pinned(family, expected, capsys):
    code = main(["sweep", family, "--order", "4"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == expected
    assert captured.err == ""


def test_order_six_tree_sweep_output_is_pinned(capsys):
    # what the sweep over every labelled tree prints
    code = main(["sweep", "tree-characterization", "--n-max", "6"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (
        "family        swept  checked  skipped  counterexamples  status\n"
        "tree-depth-1  43614  43614    0        0                ok\n")
    assert captured.err == ""


def test_sweep_rejects_out_of_range_orders(capsys):
    code = main(["sweep", "neighborhood-survey", "--order", "9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["sweep", "path-characterizations", "--n-max", "0"],
    ["sweep", "tree-characterization", "--n-max", "0"],
    ["sweep", "duality", "--cycle", "5", "--trials", "0"],
])
def test_sweep_rejects_zero_sizes(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_export_json_and_dot(tmp_path, capsys):
    gpath = write_graph(tmp_path, build_cycle(3))
    code = main(["export", "--graph", gpath, "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out) == {"n": 3,
                                        "arcs": [[1, 2], [2, 3], [3, 1]]}
    lpath = write_labels(tmp_path, (2, 3, 1))
    out = tmp_path / "graph.dot"
    code = main(["export", "--graph", gpath, "--format", "dot",
                 "--labeling", lpath, "--D", "1", "--out", str(out)])
    assert code == 0
    assert 'v1 [label="v1 f=2 w=3"];' in out.read_text()


def test_export_json_rejects_annotations(tmp_path, capsys):
    gpath = write_graph(tmp_path, build_cycle(3))
    lpath = write_labels(tmp_path, (1, 2, 3))
    code = main(["export", "--graph", gpath, "--format", "json",
                 "--labeling", lpath])
    captured = capsys.readouterr()
    assert code == 2
    assert "graph alone" in captured.err


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    code = main(["verify", "--graph", str(tmp_path / "nope.json"),
                 "--labeling", str(tmp_path / "nope2.json"), "--D", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "cannot read" in captured.err


@pytest.mark.parametrize("graph_bytes, label_bytes", [
    (b'{"n": 3, "arcs": 5}', b'{"labels": [1, 2, 3]}'),
    (b'{"n": 3, "arcs": [], "note": "caf\xe9"}', b'{"labels": [1, 2, 3]}'),
    (b'{"n": 3, "arcs": []}', b'{"labels": [1, 2, 3], "note": "\xff"}'),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, b'{"labels": [1, 2, 3]}',
                 id="deep-graph"),
    pytest.param(b'{"n": 3, "arcs": []}', b"[" * 100_000 + b"]" * 100_000,
                 id="deep-labeling"),
    pytest.param(b'{"n": ' + b"1" * 5000 + b', "arcs": []}',
                 b'{"labels": [1, 2, 3]}', id="n-5000-digits"),
])
def test_malformed_files_are_usage_errors(tmp_path, capsys, graph_bytes,
                                          label_bytes):
    gpath = tmp_path / "graph.json"
    gpath.write_bytes(graph_bytes)
    lpath = tmp_path / "labels.json"
    lpath.write_bytes(label_bytes)
    code = main(["verify", "--graph", str(gpath), "--labeling", str(lpath),
                 "--D", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def _assert_one_short_error_line(code, captured):
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert len(captured.err) <= 200


@pytest.mark.parametrize("argv", [
    ["search", "--cycle", "3", "--D", "1" + "0" * 3999],
    ["search", "--cycle", "3", "--D", "1" + "0" * 4999],
    ["sweep", "magic-bounds", "--order", "1" + "0" * 3999],
    ["search", "--path", "4", "--D", "1", "--orientation", "1" + "0" * 3999],
    ["search", "--path", "4", "--D", "1", "--orientation", "0b" + "1" * 5000],
    ["search", "--path", "4", "--D", "1", "--orientation", "x" * 5000],
    ["construct", "--family", "forest", "--spec", "1x" + "9" * 5000],
], ids=["D-4000-digits", "D-5000-digits", "order-4000-digits",
        "orientation-int", "orientation-mask", "orientation-name",
        "forest-spec"])
def test_long_inputs_echo_a_bounded_error_line(argv, capsys):
    _assert_one_short_error_line(main(argv), capsys.readouterr())


@pytest.mark.parametrize("argv", [
    ["--family", "uni-path", "--n", "10001", "--D", "1"],
    ["--family", "theta-prime", "--n", "10001", "--D", "0,9999"],
    ["--family", "theta-double-prime", "--n", "10001", "--D", "0,9999"],
    ["--family", "mpn", "--m", "1", "--n", "10001", "--k", "1"],
    ["--family", "mpn", "--m", "2", "--n", "5001", "--D", "0"],
    ["--family", "forest", "--spec", "1x10001"],
    ["--family", "forest", "--spec", "2x3,1x9995"],
    ["--family", "uni-path", "--n", "9" * 20, "--D", "1"],
    ["--family", "mpn", "--m", "9" * 20, "--n", "2", "--k", "1"],
    ["--family", "forest", "--spec", "9" * 20 + "x1"],
    ["--family", "forest", "--spec", "1x" + "9" * 20],
], ids=["uni-path", "theta-prime", "theta-double-prime", "mpn-k", "mpn-D",
        "forest", "forest-mixed", "uni-path-20-digits", "mpn-20-digits",
        "forest-copies-20-digits", "forest-order-20-digits"])
def test_construct_refuses_more_than_the_order_cap(argv, capsys):
    _assert_one_short_error_line(main(["construct", *argv]),
                                 capsys.readouterr())


@pytest.mark.parametrize("argv", [
    ["search", "--path", "10001", "--D", "1"],
    ["search", "--cycle", "10001", "--D", "1"],
    ["sweep", "duality", "--cycle", "10001"],
    ["search", "--cycle", "3000000", "--D", "1", "--budget", "5"],
    ["search", "--path", "9" * 20, "--D", "1"],
    ["search", "--cycle", "9" * 20, "--D", "1"],
    ["sweep", "duality", "--cycle", "9" * 20],
], ids=["path", "cycle", "duality-cycle", "cycle-budget", "path-20-digits",
        "cycle-20-digits", "duality-cycle-20-digits"])
def test_search_and_duality_refuse_more_than_the_order_cap(argv, capsys):
    # refused before the graph is built, so none of these runs a search
    _assert_one_short_error_line(main(argv), capsys.readouterr())


def test_construct_and_verify_share_one_order_cap():
    assert serialize.MAX_FILE_ORDER is generators.MAX_ORDER == 10_000


@pytest.mark.parametrize("arc", [[1, "x" * 5000], [1, 10 ** 3999]])
def test_long_arc_entries_echo_a_bounded_error_line(tmp_path, capsys, arc):
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps({"n": 3, "arcs": [arc]}))
    lpath = write_labels(tmp_path, (1, 2, 3))
    code = main(["verify", "--graph", str(gpath), "--labeling", lpath,
                 "--D", "1"])
    _assert_one_short_error_line(code, capsys.readouterr())


def test_long_budget_variable_echoes_a_bounded_error_line(monkeypatch,
                                                          capsys):
    monkeypatch.setenv("ANTIMAGIC_BUDGET", "x" * 5000)
    code = main(["search", "--cycle", "3", "--D", "1"])
    _assert_one_short_error_line(code, capsys.readouterr())


@pytest.mark.parametrize("graph_doc, label_doc, message", [
    ({"n": 30_000_000, "arcs": []}, {"labels": [1, 2, 3]}, '"n" must be'),
    ({"n": 3, "arcs": [[1, 2], [2, 3], [1, 3], [3, 1]]},
     {"labels": [1, 2, 3]}, "4 arcs, more than 3 vertices"),
    ({"n": 3, "arcs": []}, {"labels": list(range(1, 10_002))},
     "10001 labels, more than 10000"),
], ids=["order", "arcs", "labels"])
@pytest.mark.parametrize("command", ["verify", "export"])
def test_oversized_files_are_usage_errors(tmp_path, capsys, monkeypatch,
                                          command, graph_doc, label_doc,
                                          message):
    real = serialize.OrientedGraph

    def small_only(n, arcs):
        assert n <= 3, f"built a graph on {n} vertices"
        return real(n, arcs)

    monkeypatch.setattr(serialize, "OrientedGraph", small_only)
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(graph_doc))
    lpath = tmp_path / "labels.json"
    lpath.write_text(json.dumps(label_doc))
    argv = [command, "--graph", str(gpath), "--labeling", str(lpath),
            "--D", "1"]
    if command == "export":
        argv += ["--format", "dot"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err


def test_bad_distance_set_text(tmp_path, capsys):
    gpath = write_graph(tmp_path, build_cycle(3))
    lpath = write_labels(tmp_path, (1, 2, 3))
    code = main(["verify", "--graph", gpath, "--labeling", lpath,
                 "--D", "one"])
    captured = capsys.readouterr()
    assert code == 2
    assert "comma-separated integers" in captured.err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["construct", "--help"]) == 0
    capsys.readouterr()


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()
