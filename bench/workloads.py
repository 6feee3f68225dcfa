"""The four benchmark workloads: seeded inputs, one round of work, checks.

Each workload draws the inputs of a round from a seeded random stream and
runs them against the public API of ``antimagic``, timing every call into
the library as one operation and checking its result against the value
the theory or a frozen count predicts.  A failed check or a raised
exception marks the operation failed; the round carries on.

Sizes come in two sets: ``full`` is what the benchmark measures, ``tiny``
is the warm-up before timing and the smoke test's input.  Both carry the
expected counts they are checked against, so a wrong expectation shows up
as a failed operation rather than a silent pass.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from dataclasses import dataclass
from itertools import islice, permutations
from math import factorial
from pathlib import Path
from statistics import median


@dataclass
class Op:
    """One call into the library: its span, verdict and work units.

    raw_s and ref_s start as the plain duration; Recorder.convert turns
    them into raw and reference seconds, see speed.py.
    """

    kind: str
    start: float
    end: float
    ok: bool = True
    work: int = 0
    raw_s: float = 0.0
    ref_s: float = 0.0

    def __post_init__(self) -> None:
        self.raw_s = self.ref_s = self.end - self.start


class Recorder:
    """The operations of one run and the failures among them."""

    def __init__(self, pause=contextlib.nullcontext) -> None:
        self.ops: list[Op] = []
        self.failures: list[str] = []
        self.pause = pause  # wraps operations that run worker processes

    def timed(self, kind: str, fn, *args, parallel: bool = False, **kwargs):
        """Call fn once as one operation; None when it raised."""
        with self.pause() if parallel else contextlib.nullcontext():
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:  # a failed operation, not fatal
                self.ops.append(Op(kind, started, time.perf_counter(),
                                   ok=False))
                self.failures.append(
                    f"{kind}: raised {type(exc).__name__}: {exc}")
                return None
            self.ops.append(Op(kind, started, time.perf_counter()))
        return result

    def credit(self, units: int) -> None:
        self.ops[-1].work += units

    def expect(self, ok: bool, message: str) -> None:
        """Attach one check to the latest operation."""
        op = self.ops[-1]
        if not ok and op.ok:
            op.ok = False
            self.failures.append(f"{op.kind}: {message}")

    def convert(self, sampler) -> None:
        """Turn every span into raw and reference seconds."""
        for op in self.ops:
            op.ref_s, op.raw_s = sampler.reference_seconds(op.start, op.end)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def seconds(self, kinds=None, raw: bool = False) -> list[float]:
        return [op.raw_s if raw else op.ref_s for op in self.ops
                if kinds is None or op.kind in kinds]

    def work(self, kinds=None) -> int:
        return sum(op.work for op in self.ops
                   if kinds is None or op.kind in kinds)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail_percentile(count: int) -> int | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if count * (100 - p) / 100 >= 10:
            return p
    return None


def latency_metrics(prefix: str, seconds: list[float]) -> dict:
    """Median and the reportable tail of a latency sample, in ms."""
    out = {f"{prefix}_p50_ms": (median(seconds) * 1e3, "ms", len(seconds))}
    p = tail_percentile(len(seconds))
    if p is not None:
        out[f"{prefix}_p{p}_ms"] = (
            percentile(seconds, p) * 1e3, "ms", len(seconds))
    return out


def _rate(work: int, seconds: list[float]) -> float:
    total = sum(seconds)
    return work / total if total > 0 else 0.0


class Workload:
    """Shared shape: inputs(rng) -> round inputs, run_round(inputs, rec)."""

    name = ""
    why = ""
    SIZES: dict[str, dict] = {}
    # the metrics() entry reported as throughput_per_s, and the one kind
    # of operation whose median latency is op_p50_ms
    headline = ""
    latency_kinds: set[str] = set()

    def __init__(self, am, size: str = "full", workdir: Path | None = None,
                 jobs: int = 2) -> None:
        self.am = am
        self.size = dict(self.SIZES[size])
        self.workdir = workdir
        self.jobs = jobs

    def inputs(self, rng: random.Random):
        raise NotImplementedError

    def run_round(self, inputs, rec: Recorder) -> None:
        raise NotImplementedError

    def metrics(self, rec: Recorder) -> dict:
        """The workload's named end-to-end metrics: name -> (value, unit, samples)."""
        raise NotImplementedError


# ---- magic-window ----


class MagicWindow(Workload):
    """The order-5 magic-constant window sweep and the graph hunt.

    The theorem domain is fixed, so the seed changes nothing here.  The
    hunt (about 65 ms) runs several times a round, so that its median
    latency rests on more than one sample.
    """

    name = "magic-window"
    headline = "pairs_per_s"
    latency_kinds = {"hunt"}
    why = ("order-5 magic window sweep and graph hunt: enumeration plus the "
           "inlined magic loop, about 60% of Tier-1 time; the seed changes "
           "nothing")
    SIZES = {
        "full": {"order": 5, "swept": 7998, "checked": 187684,
                 "hunts": 15, "hunt_d": (0, 2, 3), "hunt_lambda": 10,
                 "hunt_rank": 1213},
        "tiny": {"order": 4, "swept": 66, "checked": 924,
                 "hunts": 1, "hunt_d": (0, 2), "hunt_lambda": 5,
                 "hunt_rank": 29},
    }

    def inputs(self, rng):
        return None

    def run_round(self, inputs, rec):
        self._sweep(rec)
        for _ in range(self.size["hunts"]):
            self._hunt(rec)

    def _sweep(self, rec):
        s = self.size
        check = rec.timed("sweep", self.am.magic_bound_sweep, s["order"])
        if check is not None:
            rec.credit(check.checked)
            rec.expect(check.swept == s["swept"],
                       f"swept {check.swept}, expected {s['swept']}")
            rec.expect(check.checked == s["checked"],
                       f"checked {check.checked}, expected {s['checked']}")
            rec.expect(check.agree,
                       f"{len(check.counterexamples)} counterexamples")

    def _hunt(self, rec):
        am, s = self.am, self.size
        report = rec.timed("hunt", am.find_magic_graph, s["order"],
                           s["hunt_d"], s["hunt_lambda"])
        if report is None:
            return
        rec.credit(1)
        rec.expect(report.found and report.magic_constant == s["hunt_lambda"],
                   f"hunt gave {report.outcome} {report.magic_constant}")
        rec.expect(report.candidates_examined == s["hunt_rank"],
                   f"hunt rank {report.candidates_examined}, "
                   f"expected {s['hunt_rank']}")
        if report.found:
            weights = am.weight_profile(report.witness_graph, report.witness,
                                        s["hunt_d"]).weights
            rec.expect(set(weights) == {s["hunt_lambda"]},
                       f"witness weights {weights}")

    def metrics(self, rec):
        sweeps = rec.seconds({"sweep"})
        return {"pairs_per_s": (_rate(rec.work({"sweep"}), sweeps), "1/s",
                                len(sweeps))}


# ---- search-scan ----


def _scan_work(table) -> int:
    """Predicted cost per candidate of a no-prune scan, in loop steps.

    The scan of one labeling stops, at the latest, at the first vertex
    whose neighborhood repeats an earlier one, since every labeling gives
    the two the same weight.  Summing neighborhood sizes (plus two steps
    per vertex) up to that vertex predicts the time per candidate.
    """
    seen = set()
    work = 0
    for hood in table:
        work += len(hood) + 2
        if hood in seen:
            break
        seen.add(hood)
    return work


def _lex_rank(labels) -> int:
    """1-based rank of a permutation of 1..n in lexicographic order."""
    rest = sorted(labels)
    rank = 1
    for i, label in enumerate(labels):
        idx = rest.index(label)
        rank += idx * factorial(len(labels) - 1 - i)
        rest.pop(idx)
    return rank


# Witnesses up to this rank are checked against every earlier labeling.
LEX_LEAST_CHECK = 1000

# Bands of _scan_work.  One no-prune scan per band and round, and budget
# scans from a single band, keep the cost of a round and the median search
# nearly independent of the seed.
WORK_STRATA = ((4, 4), (7, 7), (10, 15), (16, 24))
BUDGET_STRATUM = (7, 7)


class SearchScan(Workload):
    """Batches of exhaustive_labeling_search whose work is known beforehand.

    No-prune scans of never-antimagic (min D >= 2) paths end exhausted-none
    after n! candidates; budget scans end aborted-budget after the budget;
    theta-path searches with {0, n-2} in D find the lex-least witness.
    Each batch runs once with jobs=1 and once with jobs=2.
    """

    name = "search-scan"
    headline = "labelings_per_s_j1"
    latency_kinds = {"j1"}
    why = ("seeded no-prune, budget-capped and witness searches, once with "
           "jobs=1 and once with jobs=2: the scan kernel and the pool")
    SIZES = {
        "full": {"scan_order": 9, "strata": WORK_STRATA,
                 "budget_orders": (11, 12), "budget_scans": 4,
                 "budget": 50_000,
                 "witness_orders": (7, 10), "witnesses": 4},
        "tiny": {"scan_order": 6, "strata": WORK_STRATA[:2],
                 "budget_orders": (7, 8), "budget_scans": 2,
                 "budget": 500,
                 "witness_orders": (5, 6), "witnesses": 2},
    }

    def _never_antimagic(self, rng, n, stratum):
        """A seeded path orientation and min-2 distance set in a work band."""
        am = self.am
        lo, hi = stratum
        for _ in range(20000):
            mask = rng.randrange(1 << (n - 1))
            g = am.build_path(n, mask)
            dm = am.all_pairs_distances(g)
            pd = dm.partial_diameter
            ds = tuple(d for d in range(2, pd + 1) if rng.random() < 0.5)
            if not ds:
                continue
            if lo <= _scan_work(am.neighborhood_table(g, ds, dm=dm)) <= hi:
                return g, ds
        raise RuntimeError(f"no order-{n} path found in stratum {stratum}")

    def inputs(self, rng):
        s = self.size
        cases = []
        for stratum in s["strata"]:
            g, ds = self._never_antimagic(rng, s["scan_order"], stratum)
            cases.append(("exhaustive", g, ds, None, False))
        for i in range(s["budget_scans"]):
            order = s["budget_orders"][i % len(s["budget_orders"])]
            g, ds = self._never_antimagic(rng, order, BUDGET_STRATUM)
            cases.append(("budget", g, ds, s["budget"], False))
        lo, hi = s["witness_orders"]
        for i in range(s["witnesses"]):
            n = rng.randint(lo, hi)
            kind = ("theta-prime", "theta-double-prime")[i % 2]
            ds = (0,) + tuple(d for d in range(1, n - 2)
                              if rng.random() < 0.3) + (n - 2,)
            cases.append(("witness", self.am.build_path(n, kind), ds, None,
                          True))
        return cases

    def _check_witness(self, rec, g, ds, report, lex_least: bool) -> None:
        """Distinct weights, rank = lex rank, and (when cheap) lex-least."""
        am, witness, rank = self.am, report.witness, report.candidates_examined
        rec.expect(am.weight_profile(g, witness, ds).distinct,
                   f"witness {witness} collides")
        rec.expect(rank == _lex_rank(witness),
                   f"rank {rank}, but {witness} is number {_lex_rank(witness)}")
        if lex_least and rank <= LEX_LEAST_CHECK:
            earlier = islice(permutations(range(1, g.n + 1)), rank - 1)
            rec.expect(not any(am.weight_profile(g, labels, ds).distinct
                               for labels in earlier),
                       f"an antimagic labeling precedes {witness}")

    def run_round(self, cases, rec):
        am = self.am
        first: dict[int, object] = {}
        for jobs, kind in ((1, "j1"), (self.jobs, "j2")):
            for idx, (family, g, ds, budget, prune) in enumerate(cases):
                report = rec.timed(kind, am.exhaustive_labeling_search, g, ds,
                                   budget=budget, jobs=jobs, use_pruning=prune,
                                   parallel=jobs > 1)
                if report is None:
                    continue
                rec.credit(report.candidates_examined)
                if family == "exhaustive":
                    rec.expect(report.outcome == am.EXHAUSTED_NONE
                               and not report.shortcut
                               and report.candidates_examined == factorial(g.n),
                               f"{g.n}-path {ds}: {report.outcome} after "
                               f"{report.candidates_examined}")
                elif family == "budget":
                    rec.expect(report.outcome == am.ABORTED_BUDGET
                               and report.candidates_examined == budget,
                               f"{g.n}-path {ds}: {report.outcome} after "
                               f"{report.candidates_examined}")
                else:
                    rec.expect(report.found, f"theta {g.n}-path {ds}: "
                                             f"{report.outcome}")
                    if report.found:
                        self._check_witness(rec, g, ds, report, kind == "j1")
                key = (report.outcome, report.witness,
                       report.candidates_examined)
                if kind == "j1":
                    first[idx] = key
                elif idx in first:
                    rec.expect(key == first[idx],
                               f"jobs={jobs} gave {key}, jobs=1 {first[idx]}")

    def metrics(self, rec):
        j1, j2 = rec.seconds({"j1"}), rec.seconds({"j2"})
        out = {
            "labelings_per_s_j1": (_rate(rec.work({"j1"}), j1), "1/s", len(j1)),
            "labelings_per_s_j2": (_rate(rec.work({"j2"}), j2), "1/s", len(j2)),
        }
        out.update(latency_metrics("search", j1))
        return out


# ---- small-sweeps ----


class SmallSweeps(Workload):
    """Theorem sweeps made of ~10^5 searches that nearly all end at once."""

    name = "small-sweeps"
    headline = "cases_per_s"
    # the tree sweep: 43 614 searches whose cost is all per-call set-up; the
    # median over all seven calls would be the short survey call's, which
    # the speed probes convert less steadily
    latency_kinds = {"check_tree_characterization"}
    why = ("every small theorem sweep: ~10^5 searches that end at once, so "
           "per-call set-up dominates and the scan kernel does not")
    SIZES = {
        "full": {
            "tree_order": 6, "tree": 43614,
            "duality_order": 4, "duality": (66, 22176),
            "cycle": 8, "trials": 20, "cycle_checked": 254 * 20,
            "survey_order": 4, "survey": (5329, 3797, 3797, 0),
            "forest_total": 8,
            "forest": (("forest-min-1-multi", 6871, 2358, 4513),
                       ("forest-min-2-plus", 6020, 1514, 4506),
                       ("forest-copies-min-zero", 18, 18, 0),
                       ("forest-mixed-zero-one", 58, 51, 7),
                       ("forest-uniform-zero-top", 18, 10, 8)),
            "path_order": 7,
            "path": (("path-min-1", 2728, 554, 2174),
                     ("path-min-2-plus", 2604, 430, 2174),
                     ("path-top-distance", 5456, 248, 5208),
                     ("path-zero-penultimate", 1364, 184, 1180)),
        },
        "tiny": {
            "tree_order": 4, "tree": 142,
            "duality_order": 3, "duality": (2, 72),
            "cycle": 4, "trials": 2, "cycle_checked": 14 * 2,
            "survey_order": 3, "survey": (111, 91, 91, 0),
            "forest_total": 4,
            "forest": (("forest-min-1-multi", 19, 14, 5),
                       ("forest-min-2-plus", 4, 2, 2),
                       ("forest-copies-min-zero", 2, 2, 0),
                       ("forest-mixed-zero-one", 7, 4, 3),
                       ("forest-uniform-zero-top", 2, 2, 0)),
            "path_order": 4,
            "path": (("path-min-1", 40, 24, 16),
                     ("path-min-2-plus", 28, 12, 16),
                     ("path-top-distance", 80, 24, 56),
                     ("path-zero-penultimate", 20, 16, 4)),
        },
    }

    def inputs(self, rng):
        return {"cycle": self.am.build_cycle(self.size["cycle"]),
                "trial_seed": rng.randrange(1 << 31)}

    def _checks(self, rec, checks, expected_rows=None):
        rec.credit(sum(c.checked for c in checks))
        for c in checks:
            rec.expect(c.agree, f"{c.theorem_tag}: "
                                f"{len(c.counterexamples)} counterexamples")
        if expected_rows is not None:
            rows = tuple((c.theorem_tag, c.swept, c.checked, c.skipped)
                         for c in checks)
            rec.expect(rows == tuple(expected_rows),
                       f"counts {rows}, expected {tuple(expected_rows)}")

    def run_round(self, inputs, rec):
        am, s = self.am, self.size
        c = rec.timed("check_tree_characterization",
                      am.check_tree_characterization, s["tree_order"])
        if c is not None:
            self._checks(rec, (c,), ((c.theorem_tag, s["tree"], s["tree"], 0),))
        c = rec.timed("duality_sweep", am.duality_sweep, s["duality_order"])
        if c is not None:
            self._checks(rec, (c,))
            rec.expect((c.swept, c.checked) == tuple(s["duality"]),
                       f"swept/checked {(c.swept, c.checked)}, "
                       f"expected {s['duality']}")
        c = rec.timed("duality_sweep_graph", am.duality_sweep_graph,
                      inputs["cycle"], trials=s["trials"],
                      seed=inputs["trial_seed"])
        if c is not None:
            self._checks(rec, (c,))
            rec.expect(c.checked == s["cycle_checked"],
                       f"checked {c.checked}, expected {s['cycle_checked']}")
        sv = rec.timed("survey_neighborhood_sufficiency",
                       am.survey_neighborhood_sufficiency, s["survey_order"])
        if sv is not None:
            rec.credit(sv.pairs)
            got = (sv.pairs, sv.necessary_ok, sv.antimagic, sv.gap)
            rec.expect(got == tuple(s["survey"]),
                       f"survey {got}, expected {s['survey']}")
        cs = rec.timed("check_forest_lemmas", am.check_forest_lemmas,
                       s["forest_total"])
        if cs is not None:
            self._checks(rec, cs, s["forest"])
        cs = rec.timed("check_path_characterizations",
                       am.check_path_characterizations, s["path_order"],
                       jobs=self.jobs, parallel=self.jobs > 1)
        if cs is not None:
            self._checks(rec, cs, s["path"])
        u = rec.timed("check_union_counterexample",
                      am.check_union_counterexample)
        if u is not None:
            rec.credit(4)
            rec.expect(u.ok, "the four-cycle union breakdown does not hold")

    def metrics(self, rec):
        return {"cases_per_s": (_rate(rec.work(), rec.seconds()), "1/s",
                                rec.attempted)}


# ---- construct-verify ----


# Orders per family and round; the seed jitters each by up to 3%, little
# enough that the cost of a round, dominated by the largest orders, stays
# nearly independent of the seed.
ORDER_GRID = (100, 250, 400, 550, 700, 800)


class ConstructVerify(Workload):
    """Closed-form constructions written as JSON and replayed by the CLI."""

    name = "construct-verify"
    headline = "items_per_s"
    latency_kinds = {"item"}
    why = ("all six closed-form constructions at orders 100-800, written as "
           "JSON and replayed through the CLI verify: large-n BFS and tables")
    SIZES = {
        "full": {"orders": ORDER_GRID, "verdict": "antimagic: yes"},
        "tiny": {"orders": (12, 24), "verdict": "antimagic: yes"},
    }
    FAMILIES = ("uni-path", "theta-prime", "theta-double-prime", "mpn",
                "mpn-general", "forest")

    def _item(self, rng, family, total):
        """(constructor name, args) for one seeded item of about total vertices."""
        if family == "uni-path":
            low = rng.choice((0, 1))
            ds = {low, *rng.sample(range(low + 1, total), rng.randint(0, 3))}
            return "label_unidirectional_path", (total, tuple(sorted(ds)))
        if family in ("theta-prime", "theta-double-prime"):
            ds = {0, total - 2, *rng.sample(range(1, total - 2),
                                            rng.randint(0, 3))}
            name = ("label_theta_prime" if family == "theta-prime"
                    else "label_theta_double_prime")
            return name, (total, tuple(sorted(ds)))
        p = rng.randint(max(2, min(5, total // 2)), max(2, min(40, total // 2)))
        if family == "mpn":
            return "label_mpn", (max(1, round(total / p)), p,
                                 rng.randint(1, p - 1))
        if family == "mpn-general":
            ds = {0, *rng.sample(range(1, p), rng.randint(1, min(3, p - 1)))}
            return "label_mpn_general", (max(2, round(total / p)), p,
                                         tuple(sorted(ds)))
        orders = sorted(rng.sample(range(2, max(4, min(40, total // 2))),
                                   rng.randint(2, 3)))
        comps = tuple((max(1, round(total / (len(orders) * n))), n)
                      for n in orders)
        return "label_forest", (self.am.LinearForestSpec(comps),)

    def inputs(self, rng):
        items = []
        for base in self.size["orders"]:
            for family in self.FAMILIES:
                total = max(6, round(base * rng.uniform(0.97, 1.03)))
                items.append(self._item(rng, family, total))
        return items

    def _construct_and_verify(self, name, args):
        """construct -> write graph and labeling JSON -> antimagic verify."""
        am = self.am
        result = getattr(am, name)(*args)
        graph_path = str(self.workdir / "graph.json")
        labels_path = str(self.workdir / "labels.json")
        am.write_text(graph_path, am.canonical_json(am.graph_to_dict(result.graph)))
        am.write_text(labels_path, am.canonical_json(am.labels_to_dict(result.labels)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = am.cli.main([
                "verify", "--graph", graph_path, "--labeling", labels_path,
                "--D", ",".join(str(d) for d in result.d_set)])
        return result, code, out.getvalue(), err.getvalue()

    def run_round(self, items, rec):
        for name, args in items:
            got = rec.timed("item", self._construct_and_verify, name, args)
            if got is None:
                continue
            result, code, out, err = got
            rec.credit(1)
            lines = out.splitlines()
            expected = "weights: " + " ".join(str(w)
                                              for w in result.profile.weights)
            rec.expect(code == 0, f"{name} n={result.graph.n}: exit {code} "
                                  f"{err.strip()}")
            rec.expect(self.size["verdict"] in lines,
                       f"{name} n={result.graph.n}: verdict missing")
            rec.expect(expected in lines,
                       f"{name} n={result.graph.n}: printed weights differ")

    def metrics(self, rec):
        items = rec.seconds({"item"})
        out = {"items_per_s": (_rate(rec.work({"item"}), items), "1/s",
                               len(items))}
        out.update(latency_metrics("item", items))
        return out


WORKLOADS = {w.name: w for w in (MagicWindow, SearchScan, SmallSweeps,
                                 ConstructVerify)}
