#!/usr/bin/env python3
"""Paired parent/change benchmark runs, summarized and written to BENCH_<n>.json.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --id 10 \\
        --workload sweep_odd_q --pairs 10 --seed-base 1000

Each directory is a checkout with its own ``bench/run.py``.  A workload may
be named only once, as its runs form one entry of the JSON.  Pair i runs
``bench/run.py --trace 0`` on both checkouts at seed ``seed-base + i``, the
parent first on even i and the change first on odd i, one process at a
time, each as long as ``run_seconds`` in the change's ``BENCHMARK.json``.
For every end-to-end metric there it prints each side's median and
quartiles, how many pairs the change won (ties count for neither side),
whether the change stays within the metric's bound, and whether it is a
gain; beside them it prints each side's median number of untraced passes
per run, since peak RSS grows with it.  Every run, with its metadata, goes
to ``BENCH_<id>.json`` at the root of this checkout, with both git revs and
the Python version.  A run that exits non-zero or prints no result is kept
in its pair as failed, the summary covers only the pairs whose two runs
both finished, and the file is written in any case.  The exit code is 1
when any run failed or failed its gates (``correct: false``), else 0.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10  # fewer pairs never establish a gain


def quartiles(values: list[float]) -> dict:
    """Median and inclusive quartiles; a single value is its own quartiles."""
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric comparison of paired runs, plus the failed-operation totals.

    Each run pair is ``{"parent": run, "change": run}`` with the ``metrics``
    and ``failed`` of :func:`run_bench`, and ``passes`` when the run
    reported its untraced passes; when every run did, ``passes`` holds each
    side's median pass count.  ``metrics`` holds BENCHMARK.json's
    end-to-end entries (name, better, bound).  ``worse_by`` is the change's
    median relative to the parent's, signed so that a positive value is a
    regression.  ``verdict`` is "over" when that exceeds the bound,
    "unresolved" when the parent's interquartile range is wider than the
    bound relative to its median (unless every change run beats every
    parent run), else "within".  ``gain`` needs at least MIN_PAIRS pairs,
    no more failed operations than the parent, a change win in nine tenths
    of the pairs, and a median better than the parent's by more than the
    parent's interquartile range.
    """
    sides = ("parent", "change")
    failed = {side: sum(r[side]["failed"] for r in runs) for side in sides}
    out = {}
    for spec in metrics:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        ties = sum(c == p for p, c in zip(parent, change))
        ps, cs = quartiles(parent), quartiles(change)
        iqr = ps["q3"] - ps["q1"]
        gap = sign * (ps["median"] - cs["median"])
        worse_by = -gap / ps["median"] if ps["median"] else 0.0
        spread = iqr / ps["median"] if ps["median"] else (float("inf") if iqr else 0.0)
        always_better = max(sign * c for c in change) < min(sign * p for p in parent)
        if worse_by > spec["bound"]:
            verdict = "over"
        elif spread > spec["bound"] and not always_better:
            verdict = "unresolved"
        else:
            verdict = "within"
        out[name] = {
            "parent": ps,
            "change": cs,
            "change_wins": wins,
            "ties": ties,
            "pairs": len(runs),
            "worse_by": worse_by,
            "verdict": verdict,
            "gain": (len(runs) >= MIN_PAIRS and failed["change"] <= failed["parent"]
                     and wins >= 0.9 * len(runs) and gap > iqr),
        }
    summary = {"failed": failed, "metrics": out}
    if all("passes" in r[side] for r in runs for side in sides):
        summary["passes"] = {side: statistics.median(r[side]["passes"] for r in runs)
                             for side in sides}
    return summary


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run; its metadata, result, metric values
    and, when the meta lists its untraced pass walls, its pass count.

    A run that exits non-zero or whose last two stdout lines are not its
    meta and result JSON is returned as ``{"correct": False, "error": ...}``
    with its exit code and the tail of its stderr, and no metrics.
    """
    out = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    try:
        if out.returncode:
            raise ValueError(f"exit code {out.returncode}")
        meta_line, result_line = out.stdout.strip().splitlines()[-2:]
        result = json.loads(result_line)
        meta = json.loads(meta_line)["meta"]
        run = {
            "meta": meta,
            "correct": result["correct"],
            "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        }
        if "untraced" in meta.get("pass_walls_s", {}):
            run["passes"] = len(meta["pass_walls_s"]["untraced"])
        return run
    except (ValueError, KeyError, TypeError) as exc:  # json.JSONDecodeError is a ValueError
        return {"correct": False, "error": f"{exc}; stderr: {out.stderr[-2000:]}"}


def print_summary(workload: str, summary: dict) -> None:
    failed = summary["failed"]
    print(f"{workload}: failed operations parent {failed['parent']}, change {failed['change']}")
    if "passes" in summary:
        passes = summary["passes"]
        print(f"{workload}: untraced passes per run, median parent {passes['parent']:g}, "
              f"change {passes['change']:g}")
    print(f"{workload}: metric  parent q1/median/q3  ->  change q1/median/q3  "
          f"wins  worse_by  verdict  gain")
    for name, s in summary["metrics"].items():
        p, c = s["parent"], s["change"]
        print(f"  {name:13s} {p['q1']:.4g}/{p['median']:.4g}/{p['q3']:.4g}  ->  "
              f"{c['q1']:.4g}/{c['median']:.4g}/{c['q3']:.4g}  "
              f"{s['change_wins']}/{s['pairs']}  {s['worse_by']:+.3f}  "
              f"{s['verdict']}  {s['gain']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--id", type=int, required=True, help="writes BENCH_<id>.json")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    if len(set(args.workload)) < len(args.workload):
        ap.error("each --workload may be given once")
    parent, change = args.parent.resolve(), args.change.resolve()
    bench = json.loads((change / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    doc = {
        "protocol": (f"{args.pairs} pairs per workload of {seconds} s bench/run.py "
                     f"--trace 0 runs at seeds seed_base + i; parent first on even i"),
        "python": platform.python_version(),
        "seed_base": args.seed_base,
        "workloads": {},
    }
    all_correct, path = True, ROOT / f"BENCH_{args.id}.json"
    try:
        for workload in args.workload:
            runs = []  # filled in place, so an interrupted run still writes its pairs
            entry = doc["workloads"][workload] = {"all_correct": False, "summary": None,
                                                  "runs": runs}
            for i in range(args.pairs):
                seed = args.seed_base + i
                order = [("parent", parent), ("change", change)]
                if i % 2:
                    order.reverse()
                pair = {"seed": seed, "first": order[0][0]}
                runs.append(pair)
                for side, checkout in order:
                    run = pair[side] = run_bench(checkout, workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: "
                          f"{run.get('metrics', run.get('error'))}", flush=True)
                    if "meta" in run:  # the revs come from the first run that finished
                        for key in ("git_rev", "src_sha256"):
                            doc.setdefault(f"{side}_{key}", run["meta"][key])
            finished = [r for r in runs if "metrics" in r["parent"] and "metrics" in r["change"]]
            if finished:
                entry["summary"] = summarize(finished, bench["end_to_end"])
                print_summary(workload, entry["summary"])
            entry["all_correct"] = all(r[side]["correct"]
                                       for r in runs for side in ("parent", "change"))
            if not entry["all_correct"]:
                print(f"{workload}: some runs failed or failed their gates; see the JSON")
            all_correct &= entry["all_correct"]
    finally:
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
