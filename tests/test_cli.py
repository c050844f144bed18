import json

import pytest

from tgoppa import InternalConsistencyError, experiment
from tgoppa.cli import main

from conftest import sampler_failing_at_degree

DIM_ARGS = ["dim", "--q", "2", "--m", "2", "--t", "2", "--g", "2,1,1",
            "--eta", "1", "--support", "all"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_command(capsys):
    code, out, _ = run(capsys, ["field", "--q", "2", "--m", "4"])
    assert code == 0
    assert out == '{"q":2,"m":4,"modulus":[1,1,0,0,1]}\n'


def test_dim_worked_example(capsys):
    code, out, _ = run(capsys, DIM_ARGS)
    assert code == 0
    assert out == '{"n":4,"mt":4,"rank":2,"k":2}\n'


def test_stdout_byte_identical_across_runs(capsys):
    _, out1, _ = run(capsys, DIM_ARGS)
    _, out2, _ = run(capsys, DIM_ARGS)
    assert out1 == out2


def test_usage_error_on_non_prime_q(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--q", "4", "--m", "2", "--t", "2", "--g", "2,1,1", "--eta", "1"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_usage_error_on_t_mismatch(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--q", "2", "--m", "2", "--t", "3", "--g", "2,1,1", "--eta", "1"])
    assert exc.value.code == 2


def test_usage_error_orbit_without_b_u(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--q", "2", "--m", "2", "--g", "2,1,1", "--eta", "1",
              "--support", "orbit"])
    assert exc.value.code == 2


def test_usage_error_bad_u(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["support", "--q", "2", "--m", "2", "--g", "2,1,1",
              "--support", "orbit", "--b", "0", "--u", "5"])
    assert exc.value.code == 2


def test_usage_error_u_equals_q_with_zero_translation(capsys):
    # x -> x + 0 is the identity, so no orbit has size q
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--q", "2", "--m", "2", "--g", "2,1,1", "--eta", "1",
              "--support", "orbit", "--b", "0", "--u", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["determinism", "--q", "3", "--m", "5", "--t", "3", "--b", "0",
              "--u", "3", "--trials", "2", "--seed", "1"])
    assert exc.value.code == 2


def test_usage_errors_before_any_computation(capsys, monkeypatch):
    def random_root_free_poly(field, t, rng):
        raise AssertionError("sampling started")

    monkeypatch.setattr(experiment, "random_root_free_poly", random_root_free_poly)
    trial = ["--b", "0", "--u", "1", "--seed", "1", "--trials", "1"]
    for argv in (
        ["field", "--q", "3", "--m", "100000000"],
        ["field", "--q", str(10**30 + 57), "--m", "1"],
        ["determinism", "--q", "2", "--m", "30", "--t", "3", *trial],
        ["determinism", "--q", "2", "--m", "8", "--t", "1", *trial],
        ["determinism", "--q", "2", "--m", "3", "--t", "2", *trial, "--trials", "0"],
        ["dim", "--q", "2", "--m", "2", "--g", "2,1,1", "--eta", "7"],
        ["dim", "--q", "2", "--m", "2", "--g", "2,1,1", "--eta", "1", "--orbits", "0"],
        ["dim", "--q", "2", "--m", "2", "--g", "1", "--eta", "1"],
        ["support", "--q", "2", "--m", "2", "--g", "2,1,1", "--support", "orbit",
         "--b", "9", "--u", "2"],
        ["support", "--q", "2", "--m", "2", "--g", "0"],
        ["support", "--q", "2", "--m", "2", "--g", "2,1", "--support", "orbit",
         "--b", "0", "--u", "3"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_unknown_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_support_orbit_grouping(capsys):
    code, out, _ = run(capsys, ["support", "--q", "2", "--m", "2", "--g", "2,1,1",
                                "--support", "orbit", "--b", "1", "--u", "2"])
    assert code == 0
    assert out == '{"orbits":[[0,1],[2,3]]}\n'


def test_support_all_lists_singletons(capsys):
    code, out, _ = run(capsys, ["support", "--q", "2", "--m", "2", "--g", "2,1,1"])
    assert code == 0
    assert out == '{"orbits":[[0],[1],[2],[3]]}\n'


def test_support_orbits_filter(capsys):
    code, out, _ = run(capsys, ["support", "--q", "2", "--m", "2", "--g", "2,1,1",
                                "--support", "orbit", "--b", "1", "--u", "2",
                                "--orbits", "1"])
    assert code == 0
    assert out == '{"orbits":[[0,1]]}\n'


def test_dim_orbit_support(capsys):
    code, out, _ = run(capsys, ["dim", "--q", "2", "--m", "2", "--g", "2,1,1",
                                "--eta", "1", "--support", "orbit",
                                "--b", "1", "--u", "2"])
    assert code == 0
    assert json.loads(out) == {"n": 4, "mt": 4, "rank": 2, "k": 2}


def test_dim_out_file(capsys, tmp_path):
    out_path = tmp_path / "dim.json"
    code, out, _ = run(capsys, DIM_ARGS + ["--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["k"] == 2
    assert doc["spec"]["g"] == "2,1,1"
    assert doc["matrix"]["ext_rows"] == [[3, 3, 0, 0], [3, 3, 2, 2]]


def test_member_true_and_false(capsys):
    base = ["member", "--q", "2", "--m", "2", "--g", "2,1,1", "--eta", "1",
            "--support", "all"]
    code, out, _ = run(capsys, base + ["--word", "1,1,0,0"])
    assert code == 0
    assert json.loads(out) == {"n": 4, "is_codeword": True}
    code, out, _ = run(capsys, base + ["--word", "1,0,0,0"])
    assert code == 0
    assert json.loads(out) == {"n": 4, "is_codeword": False}


def test_member_wrong_length_is_operational_error(capsys):
    code, _, err = run(capsys, ["member", "--q", "2", "--m", "2", "--g", "2,1,1",
                                "--eta", "1", "--word", "1,0"])
    assert code == 1
    assert "error" in err


def test_oracle_dim_agreement(capsys):
    code, out, _ = run(capsys, ["oracle-dim", "--q", "2", "--m", "2", "--g", "2,1,1",
                                "--eta", "1", "--support", "all"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 4, "k_rank": 2, "k_bruteforce": 2, "match": True}


def test_oracle_dim_cap_exceeded(capsys):
    code, _, err = run(capsys, ["oracle-dim", "--q", "2", "--m", "4", "--g", "2,1,1",
                                "--eta", "1", "--support", "all", "--cap", "64"])
    assert code == 1
    assert "cap" in err


def test_determinism_single_trial(capsys):
    code, out, _ = run(capsys, ["determinism", "--q", "2", "--m", "3", "--t", "2",
                                "--b", "1", "--u", "2", "--trials", "1",
                                "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["invariant"] is True
    assert doc["trials"] == 1
    assert doc["params"] == {"q": 2, "m": 3, "t": 2, "b": 1, "u": 2}


def test_determinism_exit_code_tracks_invariant(capsys):
    code, out, _ = run(capsys, ["determinism", "--q", "2", "--m", "2", "--t", "2",
                                "--b", "1", "--u", "2", "--trials", "20",
                                "--seed", "12345"])
    doc = json.loads(out)
    assert code == (0 if doc["invariant"] else 3)
    assert sum(doc["k_histogram"].values()) == 20


def test_determinism_usage_error_on_bad_u(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["determinism", "--q", "2", "--m", "2", "--t", "2", "--b", "1",
              "--u", "5", "--trials", "2", "--seed", "1"])
    assert exc.value.code == 2


def test_internal_consistency_error_exits_4(capsys, monkeypatch, tmp_path):
    def dimension(spec):
        raise InternalConsistencyError("injected")

    monkeypatch.setattr(experiment, "dimension", dimension)
    code, out, err = run(capsys, ["determinism", "--q", "2", "--m", "3", "--t", "2",
                                  "--b", "1", "--u", "2", "--trials", "2", "--seed", "1"])
    assert (code, out) == (4, "")
    assert "internal error: injected" in err
    grid = _write_grid(tmp_path, [{"q": 2, "m": 3, "t": 2, "b": 1, "u": 2}], trials=2)
    code, out, _ = run(capsys, ["sweep", "--grid", grid])
    assert (code, out) == (4, "")


def test_determinism_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["determinism", "--q", "2", "--m", "3", "--t", "2",
                                "--b", "1", "--u", "2", "--trials", "1",
                                "--seed", "7", "--out", str(out_path)])
    assert code == 0
    assert json.loads(out) == json.loads(out_path.read_text())


def _write_grid(tmp_path, entries, trials=4, seed=9):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"grid": entries, "trials": trials, "seed": seed}))
    return str(path)


def test_sweep_csv_byte_identical(capsys, tmp_path):
    grid = _write_grid(tmp_path, [
        {"q": 2, "m": 3, "t": 2, "b": 1, "u": 2},
        {"q": 2, "m": 3, "t": 3, "b": 0, "u": 7},
    ])
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code1, _, _ = run(capsys, ["sweep", "--grid", grid, "--out", str(out1)])
    code2, _, _ = run(capsys, ["sweep", "--grid", grid, "--out", str(out2)])
    assert code1 == code2
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert data.splitlines()[0] == b"q,m,t,b,u,a,n,g,eta,k,seed"
    assert len(data.splitlines()) == 1 + 2 * 4


def test_sweep_stdout_csv(capsys, tmp_path):
    grid = _write_grid(tmp_path, [{"q": 2, "m": 3, "t": 2, "b": 1, "u": 2}],
                       trials=2)
    code, out, _ = run(capsys, ["sweep", "--grid", grid])
    assert code in (0, 3)
    assert out.splitlines()[0] == "q,m,t,b,u,a,n,g,eta,k,seed"


def test_sweep_json_output(capsys, tmp_path):
    grid = _write_grid(tmp_path, [{"q": 2, "m": 3, "t": 2, "b": 1, "u": 2}],
                       trials=2)
    code, out, _ = run(capsys, ["sweep", "--grid", grid, "--format", "json"])
    doc = json.loads(out)
    assert list(doc)[0] == "counterexamples"
    assert len(doc["records"]) == 2
    assert code == (3 if doc["counterexamples"] else 0)


def test_sweep_reports_per_entry_errors(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "random_root_free_poly", sampler_failing_at_degree(3))
    grid = _write_grid(tmp_path, [
        {"q": 2, "m": 3, "t": 3, "b": 1, "u": 2},   # sampling always fails
        {"q": 2, "m": 3, "t": 2, "b": 1, "u": 2},
    ], trials=2)
    code, out, err = run(capsys, ["sweep", "--grid", grid, "--format", "json"])
    doc = json.loads(out)
    errors = [r for r in doc["reports"] if r["error"]]
    assert len(errors) == 1
    assert code in (1, 3)
    assert "failed" in err


def test_sweep_rejects_malformed_entry_but_continues(capsys, tmp_path):
    grid = _write_grid(tmp_path, [
        {"q": 2, "m": 3, "t": 2, "b": 1, "u": 5},   # u invalid for GF(8)
        {"q": 2.9, "m": 3, "t": 2, "b": 1, "u": 2},  # not truncated to q = 2
        {"q": 2, "m": 3, "t": 2, "b": 1, "u": 2},
    ], trials=2)
    code, out, err = run(capsys, ["sweep", "--grid", grid, "--format", "json"])
    doc = json.loads(out)
    assert [r["params"]["u"] for r in doc["reports"] if r["error"]] == [5, 2]
    assert len(doc["records"]) == 2
    assert "rejected" in err
    assert code in (1, 3)


def test_sweep_rejects_non_integer_trials_and_seed(capsys, tmp_path, monkeypatch):
    def random_root_free_poly(field, t, rng):
        raise AssertionError("sampling started")

    monkeypatch.setattr(experiment, "random_root_free_poly", random_root_free_poly)
    entries = [{"q": 2, "m": 3, "t": 2, "b": 1, "u": 2}]
    for trials, seed in ((2.9, 1), (2, 1.7), (True, 1)):
        grid = _write_grid(tmp_path, entries, trials=trials, seed=seed)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--grid", grid])
        assert exc.value.code == 2, (trials, seed)


def test_sweep_grid_file_usage_errors(capsys, tmp_path, monkeypatch):
    def random_root_free_poly(field, t, rng):
        raise AssertionError("sampling started")

    monkeypatch.setattr(experiment, "random_root_free_poly", random_root_free_poly)
    path = tmp_path / "grid.json"
    for doc in ([1], "x", 3):
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--grid", str(path)])
        assert exc.value.code == 2, doc
        assert 'nonempty "grid" array' in capsys.readouterr().err
    # trials and seed are JSON ints; the library rejects text as it does 2.9
    grid = _write_grid(tmp_path, [{"q": 2, "m": 3, "t": 2, "b": 1, "u": 2}], trials="2")
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--grid", grid])
    assert exc.value.code == 2


def test_sweep_missing_grid_file(capsys):
    code, _, err = run(capsys, ["sweep", "--grid", "/nonexistent/grid.json"])
    assert code == 1
    assert "cannot read" in err


def test_sweep_seed_flag_overrides_file(capsys, tmp_path):
    grid = _write_grid(tmp_path, [{"q": 2, "m": 3, "t": 2, "b": 1, "u": 2}],
                       trials=2, seed=9)
    _, out_file_seed, _ = run(capsys, ["sweep", "--grid", grid])
    _, out_override, _ = run(capsys, ["sweep", "--grid", grid, "--seed", "10"])
    assert out_file_seed != out_override
