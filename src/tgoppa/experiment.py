"""Seeded randomized trials testing dimension determinism.

A macro-parameter set P = (q, m, t, b, u) fixes the field, the Goppa
degree and the orbit construction of the support.  A trial then draws a
random admissible pair (g, eta), builds the code and records its
dimension k.  The determinism question is whether k depends on P alone;
a report aggregates many trials per P and flags any P whose trials
disagree, which would be a counterexample and is never suppressed.

Reproducibility contract:

* a trial is a pure function of (P, seed): the seed feeds a dedicated
  ``random.Random`` stream from which g is drawn first, then eta;
* batch runs derive trial seeds as the first 8 bytes, big endian, of
  SHA-256 over the ASCII string ``"{master_seed}:{index}"``, so results
  do not depend on execution order;
* sampled g is uniform over degree-t polynomials with nonzero leading
  coefficient and no root anywhere in GF(q^m) (rejection sampling; the
  global root-freeness keeps the support, hence n, fixed per P).  This
  needs t >= 2, since a linear polynomial always has its root, so a
  parameter set with t < 2 is rejected before anything is drawn;
* eta is uniform over the nonzero elements unless allow_zero is set.
"""

from __future__ import annotations

import io
import os
import random
from collections import Counter
from dataclasses import asdict, dataclass

from .affine_support import build_support, choose_multiplier, validate_orbit_params
from .errors import InternalConsistencyError, RejectionCapError, TrialError
from .galois import Field, _check_int, _read_doc, _read_int, make_field
from .goppa import CodeSpec, _check_degree, dimension
from .polyring import Poly, is_root_free

REJECTION_CAP = 10_000

CSV_FIELDS = ("q", "m", "t", "b", "u", "a", "n", "g", "eta", "k", "seed")


@dataclass(frozen=True)
class ParamSet:
    """Macro parameters (q, m, t, b, u), all ints, t >= 2; validated on construction."""

    q: int
    m: int
    t: int
    b: int
    u: int

    def __post_init__(self):
        validate_orbit_params(self.q, self.m, self.u, self.b)  # checks (q, m) first
        _check_int(self.t, "degree t", 2)  # no linear g is root-free

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ParamSet":
        """Ints or decimal strings (CSV rows are text); floats and bools are rejected."""
        keys = ("q", "m", "t", "b", "u")
        return cls(*map(_read_int, _read_doc(data, "params", keys), keys))


@dataclass(frozen=True)
class TrialRecord:
    """One randomized trial; (params, seed) replays it exactly."""

    params: ParamSet
    a: int
    n: int
    g: str
    eta: int
    k: int
    seed: int


@dataclass
class DeterminismReport:
    params: ParamSet
    n: int
    trials: int
    k_histogram: dict[int, int]
    invariant: bool
    k_value: int | None


def trial_seed(master_seed: int, index: int) -> int:
    """Per-trial seed: first 8 bytes of SHA-256("{master_seed}:{index}")."""
    import hashlib  # here, not at module level: ``import tgoppa`` stays light

    digest = hashlib.sha256(f"{master_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


def random_root_free_poly(field: Field, t: int, rng: random.Random) -> Poly:
    """Uniform degree-t polynomial (t >= 2) with no root in the field.

    Rejection sampling: t low coefficients uniform over the field, the
    leading one uniform over the nonzero elements, retried until the
    root scan passes, at most ``REJECTION_CAP`` times.
    """
    _check_int(t, "degree t", 2)
    order = field.order
    for _ in range(REJECTION_CAP):
        coeffs = [rng.randrange(order) for _ in range(t)]
        coeffs.append(rng.randrange(1, order))
        g = Poly(field, coeffs)
        if is_root_free(g):
            return g
    raise RejectionCapError(
        f"no root-free degree-{t} polynomial over {field!r} in {REJECTION_CAP} draws"
    )


def random_eta(field: Field, rng: random.Random, allow_zero: bool = False) -> int:
    return rng.randrange(0 if allow_zero else 1, field.order)


def run_trial(params: ParamSet, seed: int, *, allow_zero_eta: bool = False) -> TrialRecord:
    """Build and measure one random code for the given parameters.

    Fully deterministic in (params, seed): g is drawn first, eta second,
    from a fresh stream seeded with ``seed``, which must be >= 0:
    ``random.Random`` seeds from |seed|, so -s would replay trial s.
    """
    _check_int(seed, "seed", 0)
    field = make_field(params.q, params.m)
    a = choose_multiplier(field, params.u)
    rng = random.Random(seed)
    g = random_root_free_poly(field, params.t, rng)
    eta = random_eta(field, rng, allow_zero=allow_zero_eta)
    support = build_support(field, params.b, params.u, g)
    spec = CodeSpec(field, support, g, eta)
    return TrialRecord(params, a, spec.n, g.to_string(), eta, dimension(spec), seed)


def run_trials(
    params: ParamSet, trials: int, master_seed: int, *, allow_zero_eta: bool = False
) -> list[TrialRecord]:
    """Run ``trials`` independent trials with hash-derived per-trial seeds.

    The trial count and master seed are checked before the first draw.
    """
    _check_int(trials, "trial count", 1)
    _check_int(master_seed, "master seed")
    out = []
    for i in range(trials):
        try:
            out.append(
                run_trial(params, trial_seed(master_seed, i), allow_zero_eta=allow_zero_eta)
            )
        except InternalConsistencyError:
            raise  # an arithmetic bug, not a failed trial
        except Exception as exc:
            raise TrialError(i, f"trial {i} failed for {params}: {exc}") from exc
    return out


def summarize(params: ParamSet, records: list[TrialRecord]) -> DeterminismReport:
    if not records:
        raise ValueError("cannot summarize an empty trial list")
    other = next((r.params for r in records if r.params != params), None)
    if other is not None:
        raise ValueError(f"a record of {other} cannot be summarized under {params}")
    lengths = {r.n for r in records}
    if len(lengths) != 1:
        raise InternalConsistencyError(
            f"support size varied across trials of {params}: {sorted(lengths)}"
        )
    hist = dict(sorted(Counter(r.k for r in records).items()))
    invariant = len(hist) == 1
    return DeterminismReport(
        params=params,
        n=lengths.pop(),
        trials=len(records),
        k_histogram=hist,
        invariant=invariant,
        k_value=next(iter(hist)) if invariant else None,
    )


def verify_determinism(
    params: ParamSet, trials: int, master_seed: int, *, allow_zero_eta: bool = False
) -> DeterminismReport:
    """Aggregate ``trials`` runs of one P into an invariance verdict."""
    return summarize(
        params, run_trials(params, trials, master_seed, allow_zero_eta=allow_zero_eta)
    )


@dataclass
class SweepEntry:
    params: ParamSet
    report: DeterminismReport | None
    error: str | None


@dataclass
class SweepResult:
    entries: list[SweepEntry]
    records: list[TrialRecord]

    @property
    def reports(self) -> list[DeterminismReport]:
        return [e.report for e in self.entries if e.report is not None]

    @property
    def counterexamples(self) -> list[DeterminismReport]:
        return [r for r in self.reports if not r.invariant]

    @property
    def f_table(self) -> list[tuple[ParamSet, int]]:
        """The empirical map P -> k over every invariant parameter set."""
        return [(r.params, r.k_value) for r in self.reports if r.invariant]

    @property
    def errors(self) -> list[SweepEntry]:
        return [e for e in self.entries if e.error is not None]


def sweep(
    grid: list[ParamSet],
    trials_per_set: int,
    master_seed: int,
    *,
    allow_zero_eta: bool = False,
) -> SweepResult:
    """Verify determinism across a grid; per-P failures are recorded, not fatal.

    An ``InternalConsistencyError`` is not a per-P failure: it stops the sweep.
    """
    if not grid:
        raise ValueError("sweep grid must be nonempty")
    entries: list[SweepEntry] = []
    records: list[TrialRecord] = []
    for params in grid:
        try:
            recs = run_trials(
                params, trials_per_set, master_seed, allow_zero_eta=allow_zero_eta
            )
        except TrialError as exc:
            entries.append(SweepEntry(params, None, str(exc)))
            continue
        records.extend(recs)
        entries.append(SweepEntry(params, summarize(params, recs), None))
    return SweepResult(entries, records)


def standard_grid() -> list[ParamSet]:
    """The default verification grid: GF(2^m), m in {2,3,4,6}, t in {2,3,5}.

    Each (m, t) cell contributes the identity construction (u=1), the
    translation construction (u=2) and the smallest multiplicative
    order available, for 36 parameter sets total.
    """
    grid = []
    for m in (2, 3, 4, 6):
        span = 2**m - 1
        u_mult = next(d for d in range(2, span + 1) if span % d == 0)
        for t in (2, 3, 5):
            grid.append(ParamSet(2, m, t, 0, 1))
            grid.append(ParamSet(2, m, t, 1, 2))
            grid.append(ParamSet(2, m, t, 0, u_mult))
    return grid


# -- export / import ----------------------------------------------------------


def record_to_dict(record: TrialRecord) -> dict:
    return asdict(record)


def record_from_dict(data: dict) -> TrialRecord:
    """A record whose cells meet the package's rules: g is degree-t text over P's field (kept
    as ``Poly.to_string`` writes it), eta an element, seed >= 0 and k in the range of
    :func:`dimension`, [max(0, n - mt), n].  Not a replay."""
    *cells, params, g = _read_doc(data, "record", ("a", "n", "eta", "k", "seed", "params", "g"))
    a, n, eta, k, seed = map(_read_int, cells, ("a", "n", "eta", "k", "seed"))
    params = ParamSet.from_dict(params)
    field = make_field(params.q, params.m)
    g = Poly.from_string(field, g)
    _check_degree(g, params.t)
    return TrialRecord(params, a, n, g.to_string(), field.check(eta),
                       _check_int(k, "k", max(0, n - params.m * params.t), n),
                       _check_int(seed, "seed", 0))


def report_to_dict(report: DeterminismReport) -> dict:
    return {**asdict(report), "k_histogram": {str(k): v for k, v in report.k_histogram.items()}}


def sweep_result_to_dict(result: SweepResult) -> dict:
    # Counterexamples lead: a refutation is the most important output.
    return {
        "counterexamples": [report_to_dict(r) for r in result.counterexamples],
        "f_table": [
            {**params.to_dict(), "k": k} for params, k in result.f_table
        ],
        "reports": [
            {
                "params": e.params.to_dict(),
                "report": report_to_dict(e.report) if e.report else None,
                "error": e.error,
            }
            for e in result.entries
        ],
        "records": [record_to_dict(r) for r in result.records],
    }


def write_trials_csv(records, dest) -> None:
    """CSV with the fixed header q,m,t,b,u,a,n,g,eta,k,seed.

    Output is byte-identical for equal inputs (LF line endings, minimal
    quoting; the comma-separated g field gets quoted by the csv module).
    """
    import csv

    if isinstance(dest, (str, os.PathLike)):
        with open(dest, "w", newline="") as f:
            write_trials_csv(records, f)
        return
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in records:
        p = r.params
        writer.writerow([p.q, p.m, p.t, p.b, p.u, r.a, r.n, r.g, r.eta, r.k, r.seed])


def read_trials_csv(src) -> list[TrialRecord]:
    import csv

    if isinstance(src, (str, os.PathLike)):
        with open(src, "r", newline="") as f:
            return read_trials_csv(f)
    reader = csv.reader(src)
    header = next(reader, None)
    if header is None or tuple(header) != CSV_FIELDS:
        raise ValueError(f"unexpected CSV header: {header}")
    records = []
    for cells in reader:
        if len(cells) != len(header):
            raise ValueError(f"CSV line {reader.line_num}: {len(cells)} cells, not {len(header)}")
        row = dict(zip(CSV_FIELDS, cells))
        try:
            records.append(record_from_dict({**row, "params": row}))
        except ValueError as exc:  # the rule's own error, naming the line
            exc.args = (f"CSV line {reader.line_num}: {exc}",)
            raise
    return records


def trials_csv_text(records) -> str:
    buf = io.StringIO()
    write_trials_csv(records, buf)
    return buf.getvalue()
