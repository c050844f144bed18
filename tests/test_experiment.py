import hashlib
import io
import json
import math
import random
import re
from collections import Counter

import pytest

from tgoppa import (
    CSV_FIELDS,
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
    choose_multiplier,
    dimension,
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
        lambda v: Field.from_json({"q": 2, "m": 2, "modulus": [v, 1, 1]}),  # modulus cell
        F16.check,
        lambda v: Poly(F16, (v, 1)),
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
        lambda v: F16.pow(3, v),
        lambda v: brute_force_dimension(spec, v),
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
    with pytest.raises(ValueError):
        brute_force_dimension(spec, float(1 << 20))  # was accepted, then enumerated
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


def test_document_readers_reject_a_malformed_document_naming_the_key():
    """Field.from_json, ParamSet.from_dict and record_from_dict, its nested params too,
    read through the one document rule: a document that is no object, lacks a key or
    holds no array where one is due raises ValueError naming it, not KeyError or TypeError."""
    record = record_to_dict(sweep([ParamSet(2, 4, 3, 10, 3)], 1, 11).records[0])
    readers = [
        (Field.from_json, F16.to_json()),
        (ParamSet.from_dict, record["params"]),
        (record_from_dict, record),
        (lambda doc: record_from_dict({**record, "params": doc}), record["params"]),
    ]
    for read, doc in readers:
        read(doc)
        for bad in ([doc], 7, "q"):
            with pytest.raises(ValueError, match=re.escape(f"JSON object, got {bad!r}")):
                read(bad)
        for key in doc:
            with pytest.raises(ValueError, match=f"document has no '{key}'"):
                read({k: v for k, v in doc.items() if k != key})
    for modulus in (19, None, "1,1,0,0,1", {"0": 1}, (1, 1, 0, 0, 1)):
        error = re.escape(f"field 'modulus' must be an array, got {modulus!r}")
        with pytest.raises(ValueError, match=error):
            Field.from_json({**F16.to_json(), "modulus": modulus})


BAD_TEXT = ("1_0", " 10", "\u0661\u0660", "+10", "10 ", "-", "")  # \u0661\u0660: Arabic-Indic 10


def test_decimal_text_rule_at_every_text_entry_point():
    """CSV cells, grid-entry strings and polynomial text all read exactly ASCII digits
    with an optional leading '-': 10 and -3 are read as ints (and -3 then meets the
    range rule of its cell or field), Python-int() extras are rejected before any check."""
    import csv

    row = next(csv.DictReader(io.StringIO(trials_csv_text(sweep([ParamSet(2, 4, 3, 10, 3)],
                                                                 1, 11).records))))

    def csv_with(key, cell):
        buf = io.StringIO()
        writer = csv.DictWriter(buf, CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerow({**row, key: cell})
        return read_trials_csv(io.StringIO(buf.getvalue()))[0]

    grid = {"q": "2", "m": "4", "t": "3", "b": "10", "u": "3"}
    readers = [
        lambda v: csv_with("k", v).k,
        lambda v: csv_with("b", v).params.b,
        lambda v: ParamSet.from_dict({**grid, "b": v}).b,
        lambda v: Poly.from_string(F16, f"{v},1").coeffs[0],
    ]
    for read in readers:
        assert read("10") == 10
        for bad in BAD_TEXT:
            with pytest.raises(ValueError, match="decimal digits"):
                read(bad)
    for read, error in zip(readers, ("k must be an int >= 3 and <= 15",)
                                    + ("translation b must be an int >= 0",) * 2
                                    + ("not an element encoding",)):
        with pytest.raises(ValueError, match=f"{error}.*-3"):
            read("-3")


def test_range_rule_at_every_range_site():
    """Modulus coefficients, word entries, b and u are range-checked by the integer
    rule: the first value past either end is rejected, the ends themselves are accepted
    (for the modulus, only the canonical document)."""
    spec = CodeSpec(F16, (0, 1), random_root_free_poly(F16, 3, random.Random(1)), 1)
    sites = [
        (lambda v: is_codeword(spec, (v, 0)), 0, 1),
        (lambda v: validate_orbit_params(2, 4, 3, v), 0, 15),
        (lambda v: validate_orbit_params(2, 4, v), 1, None),
    ]
    for site, low, high in sites:
        site(low)
        bad = [low - 1]
        if high is not None:
            site(high)
            bad.append(high + 1)
        for v in bad:
            with pytest.raises(ValueError, match=f"must be an int >= .*got {v}"):
                site(v)

    def f8_with(v):  # the canonical GF(8) modulus is x^3 + x + 1
        return Field.from_json({"q": 2, "m": 3, "modulus": [1, 1, v, 1]})

    assert f8_with(0) is make_field(2, 3)
    with pytest.raises(ValueError, match="not the canonical"):
        f8_with(1)  # x^3 + x^2 + x + 1, in range but not canonical
    for v in (-1, 2):
        with pytest.raises(ValueError, match=f"coefficient must be an int >= 0 and <= 1, got {v}"):
            f8_with(v)
    with pytest.raises(ValueError, match="modulus coefficient must be an int >= 0 and <= 2"):
        Field.from_json({"q": 3, "m": 2, "modulus": [-1, 0, 1]})


@pytest.mark.parametrize("args", [(2.5, 3, 1, 0), (4, 2, 1, 0), (2, 0, 1, 0), (2, 21, 1, 0),
                                  (3, 10**7, 2, None)])
def test_validate_orbit_params_checks_q_and_m_first(args):
    """The same error type as ParamSet, and no q**m computed for a field beyond the cap."""
    q, m, u, b = args
    with pytest.raises(ValueError) as lib:
        validate_orbit_params(q, m, u, b)
    with pytest.raises(ValueError) as params:
        ParamSet(q, m, 2, 0 if b is None else b, u)
    assert type(lib.value) is type(params.value)


def test_validate_orbit_params_rejects_a_huge_degree_at_once():
    import time

    start = time.perf_counter()
    with pytest.raises(SizeCapError):
        validate_orbit_params(3, 10**7, 2)
    assert time.perf_counter() - start < 0.1  # 3**(10**7) alone takes seconds


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


def test_allow_zero_eta_trial_is_the_classical_code():
    params = ParamSet(2, 3, 2, 1, 2)
    trials = (run_trial(params, s, allow_zero_eta=True) for s in range(1000))
    record = next(r for r in trials if r.eta == 0)
    field = make_field(2, 3)
    g = Poly.from_string(field, record.g)
    classical = CodeSpec(field, build_support(field, params.b, params.u, g), g, 0)
    assert record.k == brute_force_dimension(classical)
    assert run_trial(params, record.seed).eta != 0  # the default sampler skips eta = 0


def test_trial_seed_must_be_nonnegative(monkeypatch):
    """random.Random seeds from |seed|, so run_trial(P, -5) would replay seed 5."""
    params = ParamSet(2, 4, 3, 10, 3)
    assert len(run_trials(params, 2, -5)) == 2  # master seeds stay any int
    monkeypatch.setattr(experiment, "random_root_free_poly", sampler_failing_at_degree(3))
    with pytest.raises(ValueError, match="seed must be an int >= 0"):
        run_trial(params, -5)


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


def test_sweep_records_rejected_documents_in_grid_order():
    """A document the document or (b, u) rule rejects is an error entry at its grid
    position, its params as written; a bad trial count or seed is raised before any entry."""
    good = {"q": 2, "m": 3, "t": 2, "b": 1, "u": 2}
    grid = [good, {"q": 2, "m": 3, "t": 2, "b": 1}, 7, {**good, "b": 0}, ParamSet(2, 3, 2, 1, 2)]
    result = sweep(grid, 2, 11)
    assert [e.params for e in result.entries] == [ParamSet(**good), *grid[1:4], grid[4]]
    assert [e.error for e in result.entries[1:3]] == [
        "params document has no 'u'", "a params document is a JSON object, got 7"]
    assert "identity (order 1) iff b = 0" in result.entries[3].error
    assert result.entries[0].error is None and result.entries[4].error is None
    assert len(result.records) == 4
    reports = sweep_result_to_dict(result)["reports"]
    assert [r["params"] for r in reports] == [good, *grid[1:4], good]
    for trials, seed in ((0, 11), (2, 1.5)):
        with pytest.raises(ValueError):
            sweep([7, good], trials, seed)


def test_csv_header_and_single_row():
    params = ParamSet(2, 2, 2, 1, 2)
    rec = run_trial(params, trial_seed(1, 0))
    text = trials_csv_text([rec])
    lines = text.splitlines()
    assert lines[0] == "q,m,t,b,u,a,n,g,eta,k,seed"
    assert lines[1].startswith("2,2,2,1,2,")
    assert text == trials_csv_text([rec])  # byte-identical rerun


def test_csv_round_trip_many_records():
    """Records whose cells meet the read rules (degree-t g, eta in the field,
    max(0, n - mt) <= k <= n, seed >= 0) read back equal; a and n are not checked on read."""
    rng = random.Random(8)
    params_pool = [ParamSet(2, 2, 2, 1, 2), ParamSet(2, 4, 3, 10, 3),
                   ParamSet(3, 2, 2, 4, 3)]
    records = []
    for _ in range(1000):
        params = params_pool[rng.randrange(3)]
        order = params.q**params.m
        coeffs = [rng.randrange(order) for _ in range(params.t)] + [rng.randrange(1, order)]
        n = rng.randrange(1, 20)
        records.append(TrialRecord(
            params=params,
            a=rng.randrange(1, 16),
            n=n,
            g=",".join(map(str, coeffs)),
            eta=rng.randrange(order),
            k=rng.randrange(max(0, n - params.m * params.t), n + 1),
            seed=rng.randrange(2**64),
        ))
    buf = io.StringIO(trials_csv_text(records))
    assert read_trials_csv(buf) == records


def test_csv_cell_that_breaks_a_read_rule_is_rejected():
    """One bad g, eta, k or seed cell in an otherwise true row raises the ValueError of its
    read rule, prefixed with the line of the row.  g is
    stored as Poly.to_string writes it, so a true g with padded digits or a trailing zero
    coefficient reads back as the record run_trial wrote."""
    import csv

    records = sweep([ParamSet(2, 4, 3, 10, 3)], 1, 5).records
    row = next(csv.DictReader(io.StringIO(trials_csv_text(records))))
    assert row["n"] == "15"
    bad_cells = [
        ("g", "1_0, x", "decimal digits"),
        ("g", "8,11,1", "g has degree 2, expected t=3"),
        ("g", "8,11,0,14,1", "g has degree 4, expected t=3"),
        ("g", "8,11,0,16", "not an element encoding"),
        ("g", "15,14,7,3,0", None),  # trailing zero: degree 3
        ("g", "015,14,7,03", None),  # padded digits, read by the text rule
        ("eta", "99999", "not an element encoding"),
        ("eta", "16", "not an element encoding"),
        ("k", "-7", "k must be an int >= 3 and <= 15, got -7"),
        ("k", "2", "k must be an int >= 3 and <= 15, got 2"),  # n - mt = 15 - 12
        ("k", "16", "k must be an int >= 3 and <= 15, got 16"),
        ("seed", "-1", "seed must be an int >= 0, got -1"),
    ]
    for key, cell, error in bad_cells:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerow({**row, key: cell})
        if error is None:
            assert read_trials_csv(io.StringIO(buf.getvalue())) == records
            assert records[0].g == "15,14,7,3"
            continue
        with pytest.raises(ValueError, match=error) as direct:
            record_from_dict({**row, "params": row, key: cell})
        with pytest.raises(ValueError) as caught:
            read_trials_csv(io.StringIO(buf.getvalue()))
        # the cell rule's own error and class, prefixed with the line of the bad cell
        assert str(caught.value) == f"CSV line 2: {direct.value}"
        assert type(caught.value) is type(direct.value)
    for key, edge in (("k", "3"), ("k", "15"), ("eta", "0"), ("eta", "15"), ("seed", "0")):
        assert str(getattr(record_from_dict({**row, "params": row, key: edge}), key)) == edge


def test_csv_row_with_another_cell_count_is_rejected():
    """A row must have exactly the 11 cells the writer gives it; the error names its line."""
    records = sweep([ParamSet(2, 4, 3, 10, 3)], 2, 5).records
    header, first, second = trials_csv_text(records).splitlines()
    assert read_trials_csv(io.StringIO(f"{header}\n{first}\n{second}\n")) == records
    for bad, cells in ((second + ",999,junk", 13), (second.rsplit(",", 1)[0], 10), ("", 0)):
        text = f"{header}\n{first}\n{bad}\n"
        with pytest.raises(ValueError, match=f"CSV line 3: {cells} cells, not 11"):
            read_trials_csv(io.StringIO(text))


def test_summarize_rejects_records_of_another_param_set():
    records = run_trials(ParamSet(2, 4, 3, 10, 3), 4, 5)
    assert summarize(ParamSet(2, 4, 3, 10, 3), records).n == 15
    with pytest.raises(ValueError, match="cannot be summarized under"):
        summarize(ParamSet(2, 4, 2, 0, 1), records)
    with pytest.raises(ValueError, match="cannot be summarized under"):
        summarize(ParamSet(2, 4, 3, 10, 3), records + run_trials(ParamSet(2, 4, 3, 1, 2), 1, 5))


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


@pytest.mark.parametrize("sweeps, digest", [
    ([(standard_grid(), 20, 101), (standard_grid(), 20, 202),
      ([ParamSet(2, 4, 3, 10, 3), ParamSet(2, 6, 3, 4, 3), ParamSet(2, 6, 5, 14, 3)], 20, 12345)],
     "c5094d467f2c0dbcad04e0658d594441c35c36040535a5767e0750d46230d861"),
    ([([ParamSet(3, 6, 4, 1, 7), ParamSet(5, 4, 4, 1, 3), ParamSet(3, 6, 2, 0, 1),
        ParamSet(5, 4, 3, 1, 5)], 10, 1)],
     "356548a5c4c83eac3047de81a1d1e4a91ca30c8f80699de019e608b4a9b18de9"),
], ids=["grid_sweep", "sweep_odd_q"])
def test_seed0_trials_csv_digests(sweeps, digest):
    """The trials CSVs of the benchmark's seed-0 sweeps, rebuilt from library calls, are
    byte-identical to the recorded ones: every sampled g, eta, support and k is pinned."""
    records = [r for sets, trials, master in sweeps for r in sweep(sets, trials, master).records]
    assert hashlib.sha256(trials_csv_text(records).encode()).hexdigest() == digest


def test_standard_grid_sweep_json_digest():
    """The sweep JSON (reports, f table, records) of a small standard-grid sweep is
    byte-identical to the recorded one, as the CSV digests pin the trials CSV, whether the
    grid is given as ParamSets or as the parameter documents a grid file holds."""
    for grid in (standard_grid(), [p.to_dict() for p in standard_grid()]):
        text = json.dumps(sweep_result_to_dict(sweep(grid, 3, 101)), separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2b243f3ef662d30bb699773cb997ee1681c85fe8aabd32354153f4ca3925c383")


def test_seed0_dim_full_m14_csv_digest():
    """The benchmark's seed-0 full-field code, rebuilt from library calls: g redrawn until
    g_{t-1} != 0, eta redrawn until it differs from eta* = g_t^2 / g_{t-1}, and the same
    k(eta), k(eta*) and trials CSV as recorded."""
    p = ParamSet(2, 14, 10, 0, 1)
    F, rng = make_field(p.q, p.m), random.Random(0)
    g = random_root_free_poly(F, p.t, rng)
    while not g.coefficient(p.t - 1):
        g = random_root_free_poly(F, p.t, rng)
    eta_star = F.div(F.mul(g.lead, g.lead), g.coefficient(p.t - 1))
    eta = random_eta(F, rng)
    while eta == eta_star:
        eta = random_eta(F, rng)
    a, support = choose_multiplier(F, p.u), build_support(F, p.b, p.u, g)
    records = [TrialRecord(p, a, len(support), g.to_string(), e,
                           dimension(CodeSpec(F, support, g, e)), 0) for e in (eta, eta_star)]
    assert (records[0].k, records[1].k) == (16244, 16257)
    assert hashlib.sha256(trials_csv_text(records).encode()).hexdigest() == (
        "6694b0f60d0ff05b099b9a9edc0b228ab85316b8718f0c1e6a579a53d949d865")
