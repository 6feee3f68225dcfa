"""Reproduce the ROADMAP baseline rows with this benchmark's timing.

    python3 bench/baseline.py

Times each row REPEATS times as single calls, checks its result,
and prints raw wall seconds and reference seconds (see speed.py) next to
the figure the ROADMAP recorded.  The record goes to bench/out/baseline.json.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import nullcontext
from math import factorial
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import OUT, import_library, machine  # noqa: E402
from speed import SpeedSampler  # noqa: E402

REPEATS = 3


def rows(am, jobs: int):
    """(label, ROADMAP figure, call, check, parallel) for every baseline row.

    parallel marks a call whose work runs in worker processes; the speed
    probes pause around it, as in bench/run.py.
    """
    path10 = am.build_path(10)
    scan_ok = (lambda r: r.outcome == am.EXHAUSTED_NONE
               and r.candidates_examined == factorial(10))
    return (
        ("magic_bound_sweep(5)", "14.1 s",
         lambda: am.magic_bound_sweep(5),
         lambda c: (c.swept, c.checked, c.agree) == (7998, 187684, True),
         False),
        ("duality_sweep(4)", "1.3 s",
         lambda: am.duality_sweep(4),
         lambda c: (c.swept, c.checked, c.agree) == (66, 22176, True),
         False),
        ("check_tree_characterization(6)", "1.4 s",
         lambda: am.check_tree_characterization(6),
         lambda c: (c.checked, c.agree) == (43614, True), False),
        ("10! no-prune build_path(10), D={2}, jobs=1", "5.8 s",
         lambda: am.exhaustive_labeling_search(path10, (2,), jobs=1,
                                               use_pruning=False),
         scan_ok, False),
        (f"10! no-prune build_path(10), D={{2}}, jobs={jobs}", "3.7 s",
         lambda: am.exhaustive_labeling_search(path10, (2,), jobs=jobs,
                                               use_pruning=False),
         scan_ok, jobs > 1),
    )


def main() -> int:
    am = import_library()
    jobs = min(2, len(os.sched_getaffinity(0)))
    sampler = SpeedSampler()
    results = []
    sampler.start()
    try:
        for label, roadmap, call, check, parallel in rows(am, jobs):
            spans = []
            ok = True
            for _ in range(REPEATS):
                with sampler.paused() if parallel else nullcontext():
                    t0 = time.perf_counter()
                    result = call()
                    spans.append((t0, time.perf_counter()))
                ok = ok and check(result)
            results.append((label, roadmap, spans, ok))
    finally:
        sampler.stop()

    record = {"machine": machine(), "repeats": REPEATS, "rows": []}
    print(f"{'row':<46} {'ROADMAP':>8} {'raw s (each)':>24} {'ref s':>7}  ok")
    for label, roadmap, spans, ok in results:
        timed = [sampler.reference_seconds(*span) for span in spans]
        raw = [r for _, r in timed]
        ref = median(f for f, _ in timed)
        record["rows"].append({"row": label, "roadmap": roadmap, "raw_s": raw,
                               "ref_s_median": ref, "ok": ok})
        print(f"{label:<46} {roadmap:>8} "
              f"{' '.join(f'{r:.2f}' for r in raw):>24} {ref:>7.2f}  "
              f"{'yes' if ok else 'NO'}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "baseline.json").write_text(json.dumps(record, indent=2) + "\n")
    return 0 if all(ok for *_, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
