"""Mutants of the fast paths, each of which its named tests must kill.

Run from the repository root, with pytest and hypothesis installed:

    python tests/mutants.py

It copies src/, tests/ and pyproject.toml to a temporary directory and
runs every named test there once on the unmutated copy, which must pass.
It then applies each mutant in turn (one exact source text replaced in
one file under src/antimagic) and runs that mutant's tests in a fresh
pytest process; they must fail.  Each source text must occur exactly
once in its file, so a fast path that is moved or rewritten fails here
loudly instead of leaving its mutant unguarded.  Exit status 0 means
every mutant was killed.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SEARCH = "tests/test_search.py::"
LABELING = "tests/test_labeling.py::"
CLI = "tests/test_cli.py::"

# (file under src/antimagic, exact source text, replacement, pytest node ids)
MUTANTS = [
    # _scan_range prune: a weight checked one vertex before its last label
    ("search.py",
     "depths = [max(hood) + 1 if hood else 0 for hood in nbhd]",
     "depths = [max(hood) if hood else 0 for hood in nbhd]",
     [SEARCH + "test_scan_matches_the_flat_scan_on_every_small_graph"]),
    # _scan_range rank arithmetic: a budget or chunk end rounded down
    ("search.py",
     "end = min(n - k, -(-(stop - base) // run[k]))",
     "end = min(n - k, (stop - base) // run[k])",
     [SEARCH + "test_scan_matches_the_flat_scan_on_every_small_graph",
      SEARCH + "test_chunks_and_budgets_may_cut_through_a_pruned_block"]),
    # _never_magic also firing when both sides are empty
    ("search.py",
     "if (only_x == 0) != (only_y == 0) or only_x == only_y == 1:",
     "if (only_x == 0) or (only_y == 0) or only_x == only_y == 1:",
     [SEARCH + "test_magic_search_agrees_with_the_oracle_on_every_graph",
      SEARCH + "test_magic_search_agrees_with_the_flat_loop_on_order_5_classes"]),
    # _two_way_arc_sets checking a vertex one pair too early
    ("search.py",
     "if v < n - 1 or (out[u] and inc[u]):",
     "if v < n - 2 or (out[u] and inc[u]):",
     [SEARCH + "test_hunt_skips_exactly_the_graphs_with_a_dead_end"]),
    # the deletion key check of _class_levels reverted: every child coded
    ("search.py",
     "if keys[-1] < max(keys):",
     "if keys[-1] < min(keys):",
     [SEARCH + "test_class_levels_code_only_children_of_largest_deletion_key"]),
    # _linear_forest_runs' cycle test counting each run once
    ("labeling.py",
     "if reached < 2 * len(runs) or",
     "if reached < len(runs) or",
     [LABELING + "test_runs_are_read_exactly_on_linear_forests",
      LABELING + "test_graphs_beside_the_run_path_match_the_dense_reference"]),
    # _run_weights reading each run backwards
    ("labeling.py",
     "for v, u in zip(run, run[d:]):",
     "for v, u in zip(run[d:], run):",
     [LABELING + "test_runs_are_read_exactly_on_linear_forests",
      LABELING + "test_runs_on_every_labelled_linear_forest_of_order_5"]),
    # the duality ball rule ignoring the ball of vertex 0
    ("search.py",
     "full = min(sizes) == g.n",
     "full = min(sizes[1:], default=g.n) == g.n",
     [SEARCH + "test_duality_kernel_matches_the_loop_on_every_forced_small_shape"]),
    # _forest_class reading a path from its other end without flipping
    # its arcs: two non-isomorphic forests share a class
    ("search.py",
     "min(part, tuple(1 - b for b in part[::-1]))",
     "min(part, tuple(b for b in part[::-1]))",
     [SEARCH + "test_a_path_read_backwards_keeps_its_class_and_kind",
      SEARCH + "test_forest_classes_are_the_isomorphism_classes"]),
    # _path_class dropping the last edge: paths of two shapes share a class
    ("search.py",
     "return _forest_class(((n,), _mask_to_bits(mask, n - 1)))",
     "return _forest_class(((n,), _mask_to_bits(mask, n - 2)))",
     [SEARCH + "test_path_characterizations_frozen_counts",
      SEARCH + "test_path_characterizations_match_the_labelled_path_sweep"]),
    # _path_class putting every path in a class of its own: the same
    # counts from about twice the searches, which the task count shows
    ("search.py",
     "return _forest_class(((n,), _mask_to_bits(mask, n - 1)))",
     "return key",
     [SEARCH + "test_each_worker_gets_one_contiguous_chunk"]),
    # _Tally.merge dropping the class-size weight
    ("search.py",
     "self.checked += times * other.checked",
     "self.checked += other.checked",
     [SEARCH + "test_path_characterizations_frozen_counts",
      SEARCH + "test_forest_lemmas_frozen_counts"]),
    # check_duality weighing D* with D's set
    ("labeling.py",
     "profile_c = _weigh(g, values, comp)",
     "profile_c = _weigh(g, values, ds)",
     [LABELING + "test_duality_matches_the_dense_reference"]),
    # one integer flag's type reverted to argparse's int
    ("cli.py",
     'swp.add_argument("--seed", type=_int_flag, default=0)',
     'swp.add_argument("--seed", type=int, default=0)',
     [CLI + "test_numbers_past_the_int_limit_echo_a_bounded_error_line"]),
]

# (file, exact source text, replacement, why no test can kill it)
EQUIVALENT = [
    ("labeling.py",
     "return self.sums_ok and self.flags_agree and self.magic_ok",
     "return self.sums_ok and self.magic_ok",
     "equal weight sums make the D* weights n(n+1)/2 less the D weights, "
     "so sums_ok implies flags_agree for integer weights"),
    ("labeling.py",
     "return self.sums_ok and self.flags_agree and self.magic_ok",
     "return self.sums_ok and self.flags_agree",
     "with equal weight sums D is magic exactly when D* is, with "
     "constants adding up to n(n+1)/2, so sums_ok implies magic_ok"),
    ("search.py",
     "return _forest_class(((n,), _mask_to_bits(mask, n - 1)))",
     "return _forest_class(((n,), _mask_to_bits(mask, n - 1)[::-1]))",
     "min(reversed bits, flipped bits) is one key for a path and its reading "
     "from the other end, the flipped reversal, and for no other path"),
    ("search.py",
     "if sum(depth <= top for depth in depths) < 2:",
     "if True:",
     "the walk only skips runs the flat loop would reject one by one, so "
     "the flat loop alone gives the same witness and rank, slower"),
    ("search.py",
     "seen = {0} if final[0] else set()",
     "seen = set()",
     "a lone empty neighborhood weighs 0 and every other weight is a "
     "positive label sum, so 0 never collides; two empty ones return at once"),
]


def _pytest(root: Path, node_ids: list[str]) -> subprocess.CompletedProcess:
    # no bytecode: a restored file of the same size and mtime second as
    # its mutant would otherwise run from the mutant's cached .pyc
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *node_ids],
        cwd=root, env=env, capture_output=True, text=True)


def main() -> int:
    for name, old, *_ in MUTANTS + EQUIVALENT:
        count = (ROOT / "src" / "antimagic" / name).read_text().count(old)
        assert count == 1, f"{name}: {old!r} occurs {count} times"
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", root)
        every = sorted({node for *_, nodes in MUTANTS for node in nodes})
        run = _pytest(root, every)
        if run.returncode != 0:
            print(run.stdout[-3000:], run.stderr[-3000:])
            print("the unmutated copy fails its tests")
            return 1
        print(f"unmutated copy passes all {len(every)} named tests "
              f"({time.perf_counter() - started:.1f} s)")
        survivors = 0
        for name, old, new, nodes in MUTANTS:
            path = root / "src" / "antimagic" / name
            source = path.read_text()
            path.write_text(source.replace(old, new))
            began = time.perf_counter()
            try:
                killed = _pytest(root, nodes).returncode != 0
            finally:
                path.write_text(source)
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED':8} {name}: {new} "
                  f"({time.perf_counter() - began:.1f} s)")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed, "
          f"{len(EQUIVALENT)} equivalent listed, "
          f"{time.perf_counter() - started:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
