"""The benchmark harness on its smallest configuration, so it does not rot."""

import dataclasses
import json

import run as bench  # puts this checkout's src/ on sys.path first
from tgoppa import ParamSet

SMOKE = bench.SweepWorkload(
    "smoke",
    ((2, 2), (2, 3)),
    lambda s: [([ParamSet(2, 2, 2, 0, 1), ParamSet(2, 3, 3, 1, 2), ParamSet(2, 3, 2, 0, 7)], 3, 101 + s)],
    None,
)


def test_exact_counters_repeat():
    counts = []
    for _ in range(2):
        tr = bench.Tracer()
        SMOKE.run_traced(0, tr)
        counts.append(tr.counts)
    assert counts[0] == counts[1]
    assert all(counts[0].values()), counts[0]


def test_runs_pass_their_gates_and_print_every_listed_metric():
    with open(bench.ROOT / "BENCHMARK.json") as f:
        listed = json.load(f)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, meta = bench.run_workload(SMOKE, 0, 0.0, trace, setup_repeats=1)
        assert result["correct"] and result["failed"] == 0, meta["failures"]
        assert result["attempted"] == 9 * (2 if trace else 1)
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in listed[key]}


def test_gates_catch_a_wrong_dimension():
    untraced_runs, traced_runs = bench.run_passes(SMOKE, 0, 0.0, True)
    assert not bench.check(SMOKE, 0, untraced_runs, traced_runs).messages
    traced_ks = traced_runs[0][1].ks
    traced_ks[0] -= 1
    v = bench.check(SMOKE, 0, untraced_runs, traced_runs)
    assert v.failed == 1 and "traced k differs" in v.messages[0]
    traced_ks[0] += 1
    records = untraced_runs[0][1].records
    records[0] = dataclasses.replace(records[0], k=records[0].k - 1)
    v = bench.check(SMOKE, 0, untraced_runs, traced_runs)
    assert v.failed >= 1 and "brute force" in v.messages[0]
