import io
import math
import random
from collections import Counter

import pytest

from tgoppa import (
    CSV_FIELDS,
    AffineMap,
    CodeSpec,
    Field,
    InternalConsistencyError,
    InvalidSpecError,
    NoSuchOrderError,
    NotPrimeError,
    ParamSet,
    Poly,
    RejectionCapError,
    SizeCapError,
    TrialError,
    TrialRecord,
    brute_force_dimension,
    build_support,
    is_codeword,
    is_root_free,
    make_field,
    random_eta,
    random_root_free_poly,
    read_trials_csv,
    record_to_dict,
    report_to_dict,
    run_trial,
    run_trials,
    spec_from_json,
    spec_to_json,
    standard_grid,
    summarize,
    sweep,
    sweep_result_to_dict,
    trial_seed,
    trials_csv_text,
    validate_field_params,
    validate_orbit_params,
    verify_determinism,
)

from tgoppa import experiment
from tgoppa.experiment import record_from_dict

from conftest import sampler_failing_at_degree

F16 = make_field(2, 4)


def test_trial_seed_is_the_stated_hash():
    # first 8 bytes of sha256(b"42:0"), big endian
    assert trial_seed(42, 0) == 6085284259181818738
    assert trial_seed(42, 1) == 278651779053087998
    assert trial_seed(7, 0) == 17725994237439495539
    assert trial_seed(42, 0) == trial_seed(42, 0)
    assert len({trial_seed(42, i) for i in range(100)}) == 100


def test_param_set_validation():
    ParamSet(2, 4, 3, 10, 3)
    with pytest.raises(NotPrimeError):
        ParamSet(4, 2, 2, 1, 2)
    with pytest.raises(NoSuchOrderError):
        ParamSet(2, 2, 2, 1, 5)
    with pytest.raises(ValueError):
        ParamSet(2, 2, 2, 4, 2)  # b out of range
    with pytest.raises(ValueError):
        ParamSet(2, 0, 2, 0, 1)
    with pytest.raises(ValueError):
        ParamSet(2, 2, 0, 0, 1)
    with pytest.raises(ValueError):
        ParamSet(2, 2, 2, 0, 0)
    with pytest.raises(NoSuchOrderError):
        ParamSet(3, 5, 3, 0, 3)  # u = q with b = 0 is the identity map
    ParamSet(3, 5, 3, 1, 3)
    with pytest.raises(ValueError):
        ParamSet(2, 3, 1, 1, 2)  # no linear polynomial is root-free
    with pytest.raises(SizeCapError):
        ParamSet(2, 21, 2, 0, 1)
    for bad in ((2.0, 3, 2, 1, 2), (2, 3.0, 2, 1, 2), (2, 3, 2.0, 1, 2),
                (2.0, 3.0, 2.0, 1, 2), (2, 3, 2, 1.0, 2)):
        with pytest.raises(ValueError):
            ParamSet(*bad)
    good = {"q": "2", "m": "4", "t": "3", "b": "10", "u": "3"}
    assert ParamSet.from_dict(good) == ParamSet(2, 4, 3, 10, 3)
    assert ParamSet.from_dict({**good, "b": 10}) == ParamSet(2, 4, 3, 10, 3)
    for key, value in (("q", 2.9), ("q", "2.9"), ("b", True), ("t", 3.0)):
        with pytest.raises(ValueError):
            ParamSet.from_dict({**good, key: value})


def test_integer_rule_at_every_boundary(monkeypatch):
    """True and 2.0 (and 1.7 for seeds) are rejected wherever an int enters."""
    fields = (2, 4, 3, 10, 3)
    P = ParamSet(*fields)
    result = sweep([P, ParamSet(3, 2, 2, 4, 3)], 3, 11)
    assert read_trials_csv(io.StringIO(trials_csv_text(result.records))) == result.records
    g = random_root_free_poly(F16, 3, random.Random(1))
    spec = CodeSpec(F16, (0, 1), g, 1)
    record = record_to_dict(result.records[0])

    def random_root_free_poly_never(field, t, rng):
        raise AssertionError("sampling started")

    monkeypatch.setattr(experiment, "random_root_free_poly", random_root_free_poly_never)
    boundaries = [
        lambda v: validate_field_params(v, 4),
        lambda v: validate_field_params(2, v),
        lambda v: Field(2, 2, (v, 1, 1)),  # modulus coefficient
        F16.check,
        lambda v: F16.from_digits((v, 0, 0, 0)),
        lambda v: Poly(F16, (v, 1)),
        lambda v: AffineMap(F16, v, 0),
        lambda v: validate_orbit_params(2, 4, v),
        lambda v: validate_orbit_params(2, 4, 3, v),
        lambda v: build_support(F16, v, 3, g),
        lambda v: build_support(F16, 0, v, g),
        lambda v: build_support(F16, 0, 3, g, max_orbits=v),
        lambda v: is_codeword(spec, (v, 0)),
        lambda v: spec_from_json({**spec_to_json(spec), "t": v}),
        lambda v: random_root_free_poly(F16, v, random.Random(0)),
        lambda v: run_trials(P, v, 1),
        lambda v: sweep([P], v, 1),
        lambda v: record_from_dict({**record, "k": v}),
    ]
    seeds = [
        lambda v: run_trial(P, v),
        lambda v: run_trials(P, 1, v),
        lambda v: sweep([P], 1, v),
        lambda v: verify_determinism(P, 1, v),
    ]
    for i in range(5):
        boundaries.append(lambda v, i=i: ParamSet(*fields[:i], v, *fields[i + 1:]))
    for values, checks in (((True, 2.0), boundaries), ((True, 2.0, 1.7), seeds)):
        for check in checks:
            for v in values:
                with pytest.raises(ValueError):
                    check(v)
    for v in (True, 2.0):
        with pytest.raises(InvalidSpecError):
            CodeSpec(F16, (0, v), g, 1)
        with pytest.raises(InvalidSpecError):
            CodeSpec(F16, (0, 1), g, v)

    # ParamSet(*v) and from_dict accept and reject the same non-text values.
    good = P.to_dict()
    for key in good:
        for v in (True, False, 2.0, 3.0, 1.7, 2, 3, 10):
            data = {**good, key: v}
            built = []
            for build in (lambda: ParamSet(*data.values()), lambda: ParamSet.from_dict(data)):
                try:
                    built.append(build())
                except ValueError:
                    built.append(None)
            assert built[0] == built[1], data
            assert built[0] is None or type(v) is int, data


def test_random_root_free_poly_replay_and_postcondition():
    g1 = random_root_free_poly(F16, 3, random.Random(5))
    g2 = random_root_free_poly(F16, 3, random.Random(5))
    assert g1 == g2
    rng = random.Random(77)
    for _ in range(200):
        g = random_root_free_poly(F16, 3, rng)
        assert g.degree == 3
        assert all(g(a) != 0 for a in F16.elements())


def test_random_root_free_poly_degree_one_hits_cap(monkeypatch):
    def never(g):
        raise AssertionError("drew a polynomial for t = 1")

    monkeypatch.setattr(experiment, "is_root_free", never)
    with pytest.raises(ValueError):
        random_root_free_poly(F16, 1, random.Random(0))
    monkeypatch.setattr(experiment, "is_root_free", lambda g: False)
    with pytest.raises(RejectionCapError):
        random_root_free_poly(F16, 2, random.Random(0))


def test_random_eta():
    rng = random.Random(3)
    draws = [random_eta(F16, rng) for _ in range(500)]
    assert all(1 <= e < 16 for e in draws)
    rng = random.Random(3)
    with_zero = [random_eta(F16, rng, allow_zero=True) for _ in range(500)]
    assert 0 in with_zero
    assert random_eta(F16, random.Random(9)) == random_eta(F16, random.Random(9))


def test_random_eta_uniformity_chi_square():
    rng = random.Random(2718)
    counts = Counter(random_eta(F16, rng) for _ in range(10_000))
    expected = 10_000 / 15
    stat = sum((counts.get(e, 0) - expected) ** 2 / expected for e in range(1, 16))
    # chi-square with 14 degrees of freedom: mean 14, sigma = sqrt(28)
    assert stat < 14 + 5 * math.sqrt(28)


def test_run_trial_replay_determinism():
    params = ParamSet(2, 4, 3, 10, 3)
    r1 = run_trial(params, 123456789)
    r2 = run_trial(params, 123456789)
    assert r1 == r2
    assert r1.n == 15
    assert max(0, r1.n - 12) <= r1.k <= r1.n


def test_trial_record_replays_g_eta_and_k():
    params = ParamSet(2, 2, 2, 1, 2)
    for i in range(20):
        rec = run_trial(params, trial_seed(31, i))
        field = make_field(params.q, params.m)
        g = Poly.from_string(field, rec.g)
        assert is_root_free(g)
        support = build_support(field, params.b, params.u, g)
        assert rec.n == len(support) == 4
        spec = CodeSpec(field, support, g, rec.eta)
        assert brute_force_dimension(spec) == rec.k  # oracle per trial
        assert rec.a == 1  # u = q realized by translation


def test_run_trials_wraps_errors_with_index(monkeypatch):
    monkeypatch.setattr(experiment, "random_root_free_poly", sampler_failing_at_degree(2))
    params = ParamSet(2, 2, 2, 1, 2)
    with pytest.raises(TrialError) as err:
        run_trials(params, 3, 7)
    assert err.value.index == 0
    assert "trial 0" in str(err.value)


def _inconsistent_dimension(spec):
    raise InternalConsistencyError("injected")


def test_run_trials_reraises_internal_consistency_error(monkeypatch):
    monkeypatch.setattr(experiment, "dimension", _inconsistent_dimension)
    with pytest.raises(InternalConsistencyError, match="injected"):
        run_trials(ParamSet(2, 3, 2, 1, 2), 3, 7)


def test_sweep_stops_on_internal_consistency_error(monkeypatch):
    monkeypatch.setattr(experiment, "dimension", _inconsistent_dimension)
    with pytest.raises(InternalConsistencyError):
        sweep([ParamSet(2, 3, 2, 1, 2), ParamSet(2, 3, 3, 0, 7)], 2, 11)


def test_verify_determinism_single_trial():
    report = verify_determinism(ParamSet(2, 3, 2, 1, 2), 1, 99)
    assert report.invariant
    assert report.trials == 1
    assert sum(report.k_histogram.values()) == 1
    assert report.k_value in report.k_histogram


def test_report_histogram_accounts_for_every_trial():
    params = ParamSet(2, 4, 3, 10, 3)
    report = verify_determinism(params, 15, 2021)
    assert sum(report.k_histogram.values()) == 15
    assert report.invariant == (len(report.k_histogram) == 1)
    assert report.n == 15


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize(ParamSet(2, 2, 2, 1, 2), [])


def test_sweep_grid_of_one_wraps_verify_determinism():
    params = ParamSet(2, 3, 3, 0, 7)
    direct = verify_determinism(params, 5, 404)
    result = sweep([params], 5, 404)
    assert len(result.entries) == 1
    assert result.entries[0].report == direct
    assert len(result.records) == 5


def test_sweep_records_per_param_errors(monkeypatch):
    monkeypatch.setattr(experiment, "random_root_free_poly", sampler_failing_at_degree(3))
    good = ParamSet(2, 3, 2, 1, 2)
    bad = ParamSet(2, 3, 3, 1, 2)  # rejection cap inside every trial
    result = sweep([good, bad], 4, 11)
    assert len(result.entries) == 2
    assert result.entries[0].error is None
    assert result.entries[1].report is None
    assert "trial 0" in result.entries[1].error
    assert len(result.records) == 4  # only the good parameter set contributes
    with pytest.raises(ValueError):
        sweep([], 4, 11)


def test_csv_header_and_single_row():
    params = ParamSet(2, 2, 2, 1, 2)
    rec = run_trial(params, trial_seed(1, 0))
    text = trials_csv_text([rec])
    lines = text.splitlines()
    assert lines[0] == "q,m,t,b,u,a,n,g,eta,k,seed"
    assert lines[1].startswith("2,2,2,1,2,")
    assert text == trials_csv_text([rec])  # byte-identical rerun


def test_csv_round_trip_many_records():
    rng = random.Random(8)
    params_pool = [ParamSet(2, 2, 2, 1, 2), ParamSet(2, 4, 3, 10, 3),
                   ParamSet(3, 2, 2, 4, 3)]
    records = [
        TrialRecord(
            params=params_pool[rng.randrange(3)],
            a=rng.randrange(1, 16),
            n=rng.randrange(1, 20),
            g=",".join(str(rng.randrange(16)) for _ in range(rng.randrange(1, 6))),
            eta=rng.randrange(16),
            k=rng.randrange(20),
            seed=rng.randrange(2**64),
        )
        for _ in range(1000)
    ]
    buf = io.StringIO(trials_csv_text(records))
    assert read_trials_csv(buf) == records


def test_csv_rejects_wrong_header():
    with pytest.raises(ValueError):
        read_trials_csv(io.StringIO("q,m,t\n1,2,3\n"))


def test_report_dict_mirrors_fields():
    report = verify_determinism(ParamSet(2, 3, 2, 1, 2), 2, 5)
    doc = report_to_dict(report)
    assert set(doc) == {"params", "n", "trials", "k_histogram", "invariant", "k_value"}
    assert doc["params"] == {"q": 2, "m": 3, "t": 2, "b": 1, "u": 2}
    assert sum(doc["k_histogram"].values()) == 2
    assert all(isinstance(key, str) for key in doc["k_histogram"])


def test_sweep_dict_puts_counterexamples_first():
    result = sweep([ParamSet(2, 3, 2, 1, 2)], 2, 5)
    doc = sweep_result_to_dict(result)
    assert list(doc)[0] == "counterexamples"
    assert set(doc) == {"counterexamples", "f_table", "reports", "records"}
    for entry in doc["f_table"]:
        assert set(entry) == {"q", "m", "t", "b", "u", "k"}


def test_standard_grid_shape():
    grid = standard_grid()
    assert len(grid) >= 30
    assert {p.m for p in grid} == {2, 3, 4, 6}
    assert {p.t for p in grid} == {2, 3, 5}
    assert all(p.q == 2 for p in grid)
    assert len(set(grid)) == len(grid)


def test_csv_fields_constant():
    assert CSV_FIELDS == ("q", "m", "t", "b", "u", "a", "n", "g", "eta", "k", "seed")
