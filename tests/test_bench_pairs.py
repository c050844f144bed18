import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "code_p50_ms", "better": "lower", "bound": 0.24},
    {"name": "ok_ratio", "better": "higher", "bound": 0.001},
]


def _runs(parent, change, ok=(1.0, 1.0), failed=(0, 0)):
    def run(p50, ok_ratio, n_failed):
        return {"failed": n_failed, "metrics": {"code_p50_ms": p50, "ok_ratio": ok_ratio}}
    return [{"parent": run(p, ok[0], failed[0]), "change": run(c, ok[1], failed[1])}
            for p, c in zip(parent, change)]


PARENT = [90.0, 80.0, 100.0, 85.0, 95.0, 88.0, 92.0, 84.0, 96.0, 91.0]
CLEAR_GAIN = [60.0, 55.0, 62.0, 58.0, 61.0, 59.0, 57.0, 56.0, 63.0, 95.0]


def test_summarize_claims_a_clear_gain():
    s = bench_pairs.summarize(_runs(PARENT, CLEAR_GAIN), METRICS)
    assert s["failed"] == {"parent": 0, "change": 0}
    p50 = s["metrics"]["code_p50_ms"]
    assert p50["parent"] == {"q1": 85.75, "median": 90.5, "q3": 94.25}
    assert p50["change"]["median"] == 59.5
    assert (p50["change_wins"], p50["ties"], p50["pairs"]) == (9, 0, 10)
    assert p50["worse_by"] == pytest.approx(59.5 / 90.5 - 1)
    assert p50["verdict"] == "within" and p50["gain"]
    ok = s["metrics"]["ok_ratio"]
    assert (ok["change_wins"], ok["ties"], ok["worse_by"]) == (0, 10, 0.0)
    assert ok["verdict"] == "within" and not ok["gain"]


def test_summarize_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr():
    eight_wins = [60.0] * 8 + [120.0, 120.0]
    s = bench_pairs.summarize(_runs(PARENT, eight_wins), METRICS)["metrics"]["code_p50_ms"]
    assert not s["gain"]
    inside_iqr = [p - 1.0 for p in PARENT]  # wins every pair, moves 1 ms against an 8.5 ms IQR
    s = bench_pairs.summarize(_runs(PARENT, inside_iqr), METRICS)["metrics"]["code_p50_ms"]
    assert s["change_wins"] == 10 and not s["gain"]


def test_summarize_needs_ten_pairs_for_a_gain():
    s = bench_pairs.summarize(_runs([90.0, 80.0], [40.0, 40.0]), METRICS)["metrics"]
    assert s["code_p50_ms"]["change_wins"] == 2 and not s["code_p50_ms"]["gain"]
    s = bench_pairs.summarize(_runs(PARENT[:9], CLEAR_GAIN[:9]), METRICS)["metrics"]
    assert s["code_p50_ms"]["change_wins"] == 9 and not s["code_p50_ms"]["gain"]


def test_summarize_voids_a_gain_when_the_change_fails_more_operations():
    s = bench_pairs.summarize(_runs(PARENT, CLEAR_GAIN, failed=(0, 1)), METRICS)
    assert s["failed"] == {"parent": 0, "change": 10}
    assert not s["metrics"]["code_p50_ms"]["gain"]
    s = bench_pairs.summarize(_runs(PARENT, CLEAR_GAIN, failed=(2, 1)), METRICS)
    assert s["metrics"]["code_p50_ms"]["gain"]


def test_summarize_flags_a_regression_beyond_the_bound():
    s = bench_pairs.summarize(_runs([10.0, 10.0], [13.0, 12.0], ok=(1.0, 0.99)), METRICS)["metrics"]
    assert s["code_p50_ms"]["worse_by"] == pytest.approx(0.25)
    assert s["code_p50_ms"]["verdict"] == "over"
    assert s["ok_ratio"]["worse_by"] == pytest.approx(0.01)
    assert s["ok_ratio"]["verdict"] == "over"


def test_summarize_leaves_a_spread_wider_than_the_bound_unresolved():
    # parent IQR 1.5 around a median of 2.5: 60%, wider than the 0.24 bound
    parent = [1.5, 1.8, 2.5, 3.3, 3.5, 1.9, 2.6, 3.4, 2.4, 3.0]
    better_mostly = [p - 0.5 for p in parent[:8]] + [3.6, 3.7]
    s = bench_pairs.summarize(_runs(parent, better_mostly), METRICS)["metrics"]["code_p50_ms"]
    assert s["worse_by"] < 0 and s["verdict"] == "unresolved"
    worse_a_little = [p + 0.1 for p in parent]
    s = bench_pairs.summarize(_runs(parent, worse_a_little), METRICS)["metrics"]["code_p50_ms"]
    assert 0 < s["worse_by"] < 0.24 and s["verdict"] == "unresolved"
    every_run_better = [1.0] * 10  # below the parent's fastest run: resolved despite the spread
    s = bench_pairs.summarize(_runs(parent, every_run_better), METRICS)["metrics"]["code_p50_ms"]
    assert s["verdict"] == "within"
    far_worse = [p * 2 for p in parent]
    s = bench_pairs.summarize(_runs(parent, far_worse), METRICS)["metrics"]["code_p50_ms"]
    assert s["verdict"] == "over"


def test_summarize_resolves_a_higher_is_better_metric_by_its_own_direction():
    metrics = [{"name": "ok_ratio", "better": "higher", "bound": 0.001}]
    runs = _runs([1.0] * 10, [1.0] * 10, ok=(0.5, 0.9))
    for r, p in zip(runs, [0.4, 0.5, 0.6] * 3 + [0.5]):
        r["parent"]["metrics"]["ok_ratio"] = p
    s = bench_pairs.summarize(runs, metrics)["metrics"]["ok_ratio"]
    assert s["worse_by"] < 0 and s["verdict"] == "within" and s["change_wins"] == 10
    s = bench_pairs.summarize([{"parent": r["change"], "change": r["parent"]} for r in runs],
                              metrics)["metrics"]["ok_ratio"]
    assert s["verdict"] == "over"


def test_quartiles_of_one_run():
    assert bench_pairs.quartiles([3.0]) == {"q1": 3.0, "median": 3.0, "q3": 3.0}


def _bench_run(p50, correct=True):
    return {"meta": {"git_rev": "rev", "src_sha256": "sha"}, "correct": correct, "failed": 0,
            "attempted": 1, "metrics": {"code_p50_ms": p50, "ok_ratio": 1.0}}


def _main(tmp_path, monkeypatch, runs):
    """main() over two pairs, with run_bench answering from ``runs`` in call order."""
    change = tmp_path / "change"
    change.mkdir(parents=True)
    (change / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 1, "end_to_end": METRICS}))
    answers = iter(runs)
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: next(answers))
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    code = bench_pairs.main([str(tmp_path), str(change), "--id", "7",
                             "--workload", "grid_sweep", "--pairs", "2", "--seed-base", "5"])
    return code, json.loads((tmp_path / "BENCH_7.json").read_text())


def test_main_keeps_a_failed_run_and_exits_1(tmp_path, monkeypatch):
    failed = {"correct": False, "error": "exit code 1; stderr: boom"}
    code, doc = _main(tmp_path, monkeypatch, [_bench_run(10.0), _bench_run(9.0), failed,
                                              _bench_run(8.0)])
    assert code == 1
    wl = doc["workloads"]["grid_sweep"]
    assert not wl["all_correct"]
    assert wl["runs"][1]["change"] == failed  # pair 1 runs the change first
    assert wl["summary"]["metrics"]["code_p50_ms"]["pairs"] == 1  # only the finished pair
    assert (doc["parent_git_rev"], doc["change_src_sha256"]) == ("rev", "sha")


def test_main_exits_1_when_a_run_fails_its_gates(tmp_path, monkeypatch):
    code, doc = _main(tmp_path, monkeypatch, [_bench_run(10.0), _bench_run(9.0, correct=False),
                                              _bench_run(8.0), _bench_run(10.0)])
    assert code == 1 and not doc["workloads"]["grid_sweep"]["all_correct"]
    code, doc = _main(tmp_path / "ok", monkeypatch, [_bench_run(10.0)] * 4)
    assert code == 0 and doc["workloads"]["grid_sweep"]["all_correct"]


def test_main_writes_the_pairs_run_before_an_interruption(tmp_path, monkeypatch):
    def interrupted():
        yield _bench_run(10.0)
        yield _bench_run(9.0)
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        _main(tmp_path, monkeypatch, interrupted())
    runs = json.loads((tmp_path / "BENCH_7.json").read_text())["workloads"]["grid_sweep"]["runs"]
    assert runs[0]["parent"]["metrics"]["code_p50_ms"] == 10.0
    assert runs[0]["change"]["metrics"]["code_p50_ms"] == 9.0


def test_main_rejects_a_repeated_workload_before_any_run(tmp_path, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_pairs, "run_bench", never)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(tmp_path), str(tmp_path), "--id", "7", "--workload", "grid_sweep",
                          "--workload", "grid_sweep", "--pairs", "1", "--seed-base", "5"])
    assert exc.value.code == 2
    assert "each --workload may be given once" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_7.json").exists()


def test_run_bench_records_a_run_that_exits_non_zero(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import sys\nprint('half a line')\nprint('boom', file=sys.stderr)\nsys.exit(3)\n")
    run = bench_pairs.run_bench(tmp_path, "grid_sweep", 0, 1)
    assert run["correct"] is False and "metrics" not in run
    assert "exit code 3" in run["error"] and "boom" in run["error"]


def test_summarize_reports_the_median_pass_count_when_every_run_has_one(capsys):
    runs = _runs(PARENT, CLEAR_GAIN)
    assert "passes" not in bench_pairs.summarize(runs, METRICS)  # as before
    for i, r in enumerate(runs):
        r["parent"]["passes"], r["change"]["passes"] = 17 + i % 3, 28
    s = bench_pairs.summarize(runs, METRICS)
    assert s["passes"] == {"parent": 18, "change": 28}
    bench_pairs.print_summary("grid_sweep", s)
    assert "untraced passes per run, median parent 18, change 28" in capsys.readouterr().out
    del runs[0]["change"]["passes"]
    assert "passes" not in bench_pairs.summarize(runs, METRICS)


@pytest.mark.parametrize("walls, passes", [({"untraced": [1.0, 1.1, 0.9], "traced": []}, 3),
                                           (None, None)])
def test_run_bench_counts_the_untraced_passes(tmp_path, walls, passes):
    meta = {"git_rev": "rev"} if walls is None else {"git_rev": "rev", "pass_walls_s": walls}
    result = {"correct": True, "failed": 0, "attempted": 3,
              "metrics": {"ok_ratio": {"value": 1.0, "unit": "ratio"}}}
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        f"print({json.dumps(json.dumps({'meta': meta}))})\nprint({json.dumps(json.dumps(result))})\n")
    run = bench_pairs.run_bench(tmp_path, "grid_sweep", 0, 1)
    assert run["correct"] and run["metrics"] == {"ok_ratio": 1.0}
    assert run.get("passes") == passes
