import json
import shlex
from pathlib import Path

import pytest

from tgoppa import (
    CodeSpec,
    InternalConsistencyError,
    InvalidSpecError,
    Poly,
    cli,
    dimension,
    experiment,
    goppa,
    make_field,
    spec_from_json,
    spec_to_json,
)
from tgoppa.cli import main

from conftest import sampler_failing_at_degree

DIM_ARGS = ["dim", "--q", "2", "--m", "2", "--t", "2", "--g", "2,1,1",
            "--eta", "1"]


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
    """--t and a spec JSON's "t" meet one check, so they report one message."""
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--q", "2", "--m", "2", "--t", "3", "--g", "2,1,1", "--eta", "1"])
    assert exc.value.code == 2
    field = make_field(2, 2)
    with pytest.raises(InvalidSpecError) as lib:
        spec_from_json({**spec_to_json(CodeSpec(field, (0, 1, 2, 3), Poly(field, (2, 1, 1)), 1)),
                        "t": 3})
    assert str(lib.value) == "g has degree 2, expected t=3"
    assert capsys.readouterr().err.endswith(f"tgoppa: error: {lib.value}\n")


def test_usage_error_translation_order_rule(capsys, tmp_path, monkeypatch):
    """x -> x + b has order 1 iff b = 0; --b and --u default to 0 and 1."""
    def random_root_free_poly(field, t, rng):
        raise AssertionError("sampling started")

    monkeypatch.setattr(experiment, "random_root_free_poly", random_root_free_poly)
    for argv in (
        ["dim", "--q", "2", "--m", "4", "--g", "1,1,0,1", "--eta", "3", "--b", "5"],  # alone
        ["support", "--q", "2", "--m", "4", "--g", "1,1,0,1", "--u", "2"],
        ["determinism", "--q", "2", "--m", "4", "--t", "3", "--b", "5", "--u", "1",
         "--trials", "2", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "identity" in capsys.readouterr().err, argv
    monkeypatch.undo()
    grid = _write_grid(tmp_path, [
        {"q": 2, "m": 4, "t": 3, "b": 5, "u": 1},   # x -> x + 5 has order 2
        {"q": 2, "m": 3, "t": 2, "b": 1, "u": 2},
    ], trials=2)
    code, out, err = run(capsys, ["sweep", "--grid", grid, "--format", "json"])
    doc = json.loads(out)
    rejected = [r for r in doc["reports"] if r["error"]]
    assert [r["params"] for r in rejected] == [{"q": 2, "m": 4, "t": 3, "b": 5, "u": 1}]
    assert "identity" in rejected[0]["error"]
    assert len(doc["records"]) == 2
    assert "grid entry 0 rejected" in err
    assert code in (1, 3)


def test_usage_error_bad_u(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["support", "--q", "2", "--m", "2", "--g", "2,1,1", "--b", "0", "--u", "5"])
    assert exc.value.code == 2


def test_usage_error_u_equals_q_with_zero_translation(capsys):
    # x -> x + 0 is the identity, so no orbit has size q
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--q", "2", "--m", "2", "--g", "2,1,1", "--eta", "1",
              "--b", "0", "--u", "2"])
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
        ["support", "--q", "2", "--m", "2", "--g", "2,1,1", "--b", "9", "--u", "2"],
        ["support", "--q", "2", "--m", "2", "--g", "0"],
        ["support", "--q", "2", "--m", "2", "--g", "2,1", "--b", "0", "--u", "3"],
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
                                "--b", "1", "--u", "2"])
    assert code == 0
    assert out == '{"orbits":[[0,1],[2,3]]}\n'


def test_support_all_lists_singletons(capsys):
    code, out, _ = run(capsys, ["support", "--q", "2", "--m", "2", "--g", "2,1,1"])
    assert code == 0
    assert out == '{"orbits":[[0],[1],[2],[3]]}\n'


def test_support_orbits_filter(capsys):
    code, out, _ = run(capsys, ["support", "--q", "2", "--m", "2", "--g", "2,1,1",
                                "--b", "1", "--u", "2", "--orbits", "1"])
    assert code == 0
    assert out == '{"orbits":[[0,1]]}\n'


def test_dim_orbit_support(capsys):
    code, out, _ = run(capsys, ["dim", "--q", "2", "--m", "2", "--g", "2,1,1",
                                "--eta", "1", "--b", "1", "--u", "2"])
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


GF16_DIM_ARGS = ["dim", "--q", "2", "--m", "4", "--t", "3", "--g", "15,14,7,3", "--eta", "1"]


def test_dim_out_spec_reads_back_over_the_cached_field(capsys, tmp_path, monkeypatch):
    """A `dim --out` spec reads back over make_field(q, m) itself.  A GF(16) document
    stating any other modulus is rejected before a code is built."""
    out_path = tmp_path / "dim.json"
    code, out, _ = run(capsys, GF16_DIM_ARGS + ["--out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())["spec"]
    spec = spec_from_json(doc)
    assert spec.field is make_field(2, 4)
    assert dimension(spec) == json.loads(out)["k"]

    def no_code(*args):
        raise AssertionError("a code was built")

    monkeypatch.setattr(goppa, "CodeSpec", no_code)
    for modulus, error in [
        ([1, 1, 1, 1, 1], "not the canonical"),  # irreducible
        ([1, 0, 1, 0, 1], "not the canonical"),  # (x^2 + x + 1)^2
        ([1, 1, 0, 1], "not the canonical"),  # degree 3
        ([1, 1, 0, 0, True], "modulus coefficient must be an int"),
    ]:
        with pytest.raises(ValueError, match=error):
            spec_from_json({**doc, "modulus": modulus})


def test_rank_above_mt_exits_4(capsys, monkeypatch):
    """dimension owns the range [max(0, n - mt), n] of k, so a rank above mt is an
    internal error: dimension raises it and `dim` and `oracle-dim` exit 4.  The rank is
    forced where dimension takes it, the q = 2 elimination of its columns."""
    field = make_field(2, 4)
    monkeypatch.setattr(goppa, "rank_gf2", lambda columns, bound: 13)  # mt = 12
    with pytest.raises(InternalConsistencyError, match="dimension 3 escapes"):
        dimension(CodeSpec(field, field.elements(), Poly.from_string(field, "15,14,7,3"), 1))
    for mt, argv in ((4, DIM_ARGS), (12, GF16_DIM_ARGS), (12, ["oracle-dim", *GF16_DIM_ARGS[1:]])):
        monkeypatch.setattr(goppa, "rank_gf2", lambda columns, bound, mt=mt: mt + 1)
        code, out, err = run(capsys, argv)
        assert (code, out) == (4, ""), argv
        assert "internal error: dimension" in err


def test_member_true_and_false(capsys):
    base = ["member", "--q", "2", "--m", "2", "--g", "2,1,1", "--eta", "1"]
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
                                "--eta", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 4, "k_rank": 2, "k_bruteforce": 2, "match": True}


def test_oracle_dim_cap_exceeded(capsys):
    code, _, err = run(capsys, ["oracle-dim", "--q", "2", "--m", "4", "--g", "2,1,1",
                                "--eta", "1", "--cap", "64"])
    assert code == 1
    assert "cap" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_oracle_dim_rejects_bad_cap_before_computing(capsys, monkeypatch, cap):
    def fail(spec):
        raise AssertionError("dimension ran before --cap was checked")

    monkeypatch.setattr(cli, "dimension", fail)
    with pytest.raises(SystemExit) as exc:
        main(["oracle-dim", "--q", "2", "--m", "2", "--g", "2,1,1", "--eta", "1",
              "--cap", cap])
    assert exc.value.code == 2
    assert "enumeration cap" in capsys.readouterr().err


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


def test_sweep_reports_entries_that_are_no_parameter_document(capsys, tmp_path):
    """A grid entry without a key, or that is no JSON object, is reported with the document
    rule's message naming it; the good entry still runs and the sweep exits 1."""
    bad = [{"q": 2, "m": 3, "t": 2, "b": 1}, [1], 7]
    grid = _write_grid(tmp_path, bad + [{"q": 2, "m": 4, "t": 2, "b": 0, "u": 1}], trials=2)
    code, out, err = run(capsys, ["sweep", "--grid", grid, "--format", "json"])
    doc = json.loads(out)
    assert [r["params"] for r in doc["reports"] if r["error"]] == bad
    assert doc["counterexamples"] == [] and doc["f_table"][0]["k"] == 8
    assert len(doc["records"]) == 2
    assert err.splitlines() == [
        "tgoppa: grid entry 0 rejected: params document has no 'u'",
        "tgoppa: grid entry 1 rejected: a params document is a JSON object, got [1]",
        "tgoppa: grid entry 2 rejected: a params document is a JSON object, got 7",
    ]
    assert code == 1


def test_sweep_reports_rejected_entries_in_grid_order(capsys, tmp_path):
    """A rejected entry takes its grid position in the JSON reports, and its stderr line
    names that position, as for an entry whose trials fail."""
    good = {"q": 2, "m": 4, "t": 2, "b": 0, "u": 1}
    grid = _write_grid(tmp_path, [good, {"q": 2, "m": 3, "t": 2, "b": 1}, 7, good], trials=2)
    code, out, err = run(capsys, ["sweep", "--grid", grid, "--format", "json"])
    reports = json.loads(out)["reports"]
    assert [r["params"] for r in reports] == [good, {"q": 2, "m": 3, "t": 2, "b": 1}, 7, good]
    assert [r["error"] is not None for r in reports] == [False, True, True, False]
    assert err.splitlines() == [
        "tgoppa: grid entry 1 rejected: params document has no 'u'",
        "tgoppa: grid entry 2 rejected: a params document is a JSON object, got 7",
    ]
    assert code == 1


def test_sweep_of_rejected_entries_only_writes_its_report(capsys, tmp_path):
    """A grid whose every entry is rejected writes its report and exits 1, as a grid whose
    every entry fails its trials does: the JSON lists the entry, the CSV is the header."""
    grid = _write_grid(tmp_path, [7], trials=2)
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, ["sweep", "--grid", grid, "--format", "json",
                                  "--out", str(out_path)])
    assert (code, out) == (1, "")
    assert json.loads(out_path.read_text()) == {
        "counterexamples": [], "f_table": [], "records": [],
        "reports": [{"params": 7, "report": None,
                     "error": "a params document is a JSON object, got 7"}]}
    assert err == "tgoppa: grid entry 0 rejected: a params document is a JSON object, got 7\n"
    code, out, _ = run(capsys, ["sweep", "--grid", grid])
    assert (code, out) == (1, "q,m,t,b,u,a,n,g,eta,k,seed\n")


def test_sweep_rejects_non_integer_trials_and_seed(capsys, tmp_path, monkeypatch):
    """A bad trial count or seed exits 2 before any draw, also when the first grid entry
    is rejected."""
    def random_root_free_poly(field, t, rng):
        raise AssertionError("sampling started")

    monkeypatch.setattr(experiment, "random_root_free_poly", random_root_free_poly)
    good = {"q": 2, "m": 3, "t": 2, "b": 1, "u": 2}
    for entries in ([good], [7, good]):
        for trials, seed in ((2.9, 1), (2, 1.7), (True, 1), (0, 1)):
            grid = _write_grid(tmp_path, entries, trials=trials, seed=seed)
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--grid", grid])
            assert exc.value.code == 2, (entries, trials, seed)


def test_sweep_grid_file_usage_errors(capsys, tmp_path, monkeypatch):
    def random_root_free_poly(field, t, rng):
        raise AssertionError("sampling started")

    monkeypatch.setattr(experiment, "random_root_free_poly", random_root_free_poly)
    path = tmp_path / "grid.json"
    for doc, message in (([1], "a grid file document is a JSON object, got [1]"),
                         ("x", "a grid file document is a JSON object, got 'x'"),
                         (3, "a grid file document is a JSON object, got 3"),
                         ({"trials": 2}, "grid file document has no 'grid'"),
                         ({"grid": 3}, "grid file 'grid' must be an array, got 3"),
                         ({"grid": []}, 'grid file must contain a nonempty "grid" array')):
        path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--grid", str(path)])
        assert exc.value.code == 2, doc
        assert capsys.readouterr().err.endswith(f"error: {message}\n"), doc
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


def test_allow_zero_eta_reaches_the_sampler(capsys, tmp_path, monkeypatch):
    calls = []
    sample = experiment.random_eta

    def random_eta(field, rng, allow_zero=False):
        calls.append(allow_zero)
        return sample(field, rng, allow_zero)

    monkeypatch.setattr(experiment, "random_eta", random_eta)
    run(capsys, ["determinism", "--q", "2", "--m", "3", "--t", "2", "--b", "1", "--u", "2",
                 "--trials", "3", "--seed", "1", "--allow-zero-eta"])
    grid = _write_grid(tmp_path, [{"q": 2, "m": 3, "t": 2, "b": 1, "u": 2}], trials=2)
    run(capsys, ["sweep", "--grid", grid, "--allow-zero-eta"])
    assert calls == [True] * 5
    calls.clear()
    run(capsys, ["sweep", "--grid", grid])
    assert calls == [False] * 2


def _readme_examples():
    """(argv, stdout) of every README CLI example whose output is shown in full."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    for line, shown in zip(lines, lines[1:]):
        if line.startswith("tgoppa ") and shown.startswith("  ") and "..." not in shown:
            yield shlex.split(line)[1:], shown.strip() + "\n"


def test_readme_cli_examples_print_what_the_readme_shows(capsys):
    examples = list(_readme_examples())
    assert {argv[0] for argv, _ in examples} == {"field", "support", "dim", "member",
                                              "oracle-dim"}
    for argv, expected in examples:
        code, out, _ = run(capsys, argv)
        assert (code, out) == (0, expected), argv


BAD_TEXT = ("1_0", " 10", "١٠", "+10")  # ١٠: Arabic-Indic 10


def _exit_and_err(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_every_integer_text_on_the_command_line_meets_the_text_rule(capsys, tmp_path):
    """One integer flag per subcommand, --g, --word and a grid entry read 10 and -3 as
    ints and reject what Python's int() would add: a flag, --g or --word exits 2, a grid
    entry is reported as rejected.  Each row gives the exit codes for 10, -3 and bad text;
    a text with a leading '-' and a comma goes as --flag=text, or argparse reads a flag."""
    grid = tmp_path / "grid.json"
    spec = ["--q", "2", "--m", "2", "--g", "2,1,1", "--eta", "1"]
    trial = ["--q", "2", "--m", "2", "--t", "2", "--b", "0", "--u", "1", "--trials", "1"]
    cases = [
        (["field", "--q", "2", "--m", "{}"], 0, 2, 2),  # m >= 1
        (["support", "--q", "2", "--m", "4", "--g", "1,1,0,1", "--u", "2", "--b", "{}"], 0, 2, 2),
        (["dim", "--q", "2", "--m", "4", "--g", "1,1,0,1", "--eta", "{}"], 0, 2, 2),
        (["dim", "--q", "2", "--m", "4", "--g={},1,0,1", "--eta", "1"], 0, 2, 2),
        (["member", *spec, "--orbits", "{}", "--word", "1,1,0,0"], 0, 2, 2),
        (["member", *spec, "--word={},1,0,0"], 1, 1, 2),  # entries must lie in [0, q)
        (["oracle-dim", *spec, "--cap", "{}"], 1, 2, 2),  # 2^4 words exceed a cap of 10
        (["determinism", *trial, "--seed", "{}"], 0, 0, 2),  # a master seed may be negative
        (["sweep", "--grid", str(grid), "--trials", "1", "--seed", "{}"], 0, 0, 2),
        (["sweep", "--grid", str(grid), "--format", "json"], 0, 1, 1),  # b of the grid entry
    ]
    for template, *codes in cases:
        for texts, code in zip((("10",), ("-3",), BAD_TEXT), codes):
            for text in texts:
                b = text if "--format" in template else 10
                grid.write_text(json.dumps({"grid": [{"q": 2, "m": 4, "t": 3, "b": b, "u": 3}],
                                            "trials": 1, "seed": 1}))
                argv = [arg.replace("{}", text) for arg in template]
                got, err = _exit_and_err(capsys, argv)
                assert got == code, (argv, err)
                rejected = "invalid integer value" in err or "decimal digits" in err
                assert rejected == (text in BAD_TEXT), (argv, err)
