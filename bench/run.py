#!/usr/bin/env python3
"""tgoppa benchmark: end-to-end metrics and a traced per-module breakdown.

Usage, from the root of a checkout:

    python3 bench/run.py --workload grid_sweep --seed 0 --seconds 30 --trace 0

One process per workload, single-threaded.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` alternates untraced
passes with traced passes that replay every code as the public calls
``experiment.run_trial`` makes, timed per module.  Correctness gates run
outside the timed region.  The last line of stdout is the result object;
the line before it carries the run metadata.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "tgoppa" / "__init__.py").is_file():
    raise SystemExit(f"bench: no tgoppa sources at {SRC / 'tgoppa'}")
sys.path.insert(0, str(SRC))

from tgoppa import (  # noqa: E402
    CodeSpec,
    ParamSet,
    Poly,
    TrialRecord,
    brute_force_dimension,
    build_support,
    choose_multiplier,
    dimension,
    make_field,
    parity_matrix,
    random_eta,
    random_root_free_poly,
    standard_grid,
    summarize,
    sweep,
    trial_seed,
    write_trials_csv,
)
from tgoppa import experiment  # noqa: E402
from tgoppa.linalg import pack_gf2_row, rank_gf2, rank_modp  # noqa: E402

BRUTE_FORCE_MAX_N = 16
SETUP_REPEATS = 15

# Layers timed by the traced replay, in call order.  Every code opens every
# span, so a layer a workload bypasses (the GF(2) packer on odd q) reads
# the cost of an empty span instead of a constant zero.
SPANS = (
    "affine_support.choose_multiplier",
    "experiment.sample_g",
    "affine_support.build_support",
    "goppa.codespec",
    "goppa.residues",
    "goppa.parity_matrix",
    "linalg.pack_gf2",
    "linalg.rank_gf2",
    "linalg.rank_modp",
    "experiment.csv_write",
)
COUNTERS = (
    "polyring.root_scans",
    "affine_support.build_support_calls",
    "goppa.residue_columns",
    "goppa.matrix_cells",
)


# -- tracing ----------------------------------------------------------------------


class Tracer:
    """Disjoint spans keyed by layer name, plus exact counters."""

    def __init__(self):
        self.seconds = dict.fromkeys(SPANS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - t0


@contextmanager
def patched(module, name: str, wrap):
    """Replace ``module.name`` by ``wrap(original)`` for the duration."""
    original = getattr(module, name)
    setattr(module, name, wrap(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def counting_root_scans(tr: Tracer):
    """Count ``is_root_free`` calls made through ``experiment``."""

    def wrap(fn):
        def is_root_free(g):
            tr.counts["polyring.root_scans"] += 1
            return fn(g)

        return is_root_free

    return patched(experiment, "is_root_free", wrap)


def traced_code(tr: Tracer, field, params: ParamSet, g: Poly, eta: int) -> tuple[int, int, int]:
    """The public calls of ``run_trial`` after sampling; returns (a, n, k)."""
    with tr.span("affine_support.choose_multiplier"):
        a = choose_multiplier(field, params.u)
    with tr.span("affine_support.build_support"):
        support = build_support(field, params.b, params.u, g)
    tr.counts["affine_support.build_support_calls"] += 1
    with tr.span("goppa.codespec"):
        spec = CodeSpec(field, support, g, eta)
    with tr.span("goppa.residues"):
        spec.residues()
    tr.counts["goppa.residue_columns"] += spec.n
    # dimension(spec) == spec.n - rank(parity_matrix(spec)); rank() is split
    # into its packing and elimination steps.
    with tr.span("goppa.parity_matrix"):
        pm = parity_matrix(spec)
    tr.counts["goppa.matrix_cells"] += len(pm.base_rows) * pm.n
    with tr.span("linalg.pack_gf2"):
        packed = [pack_gf2_row(row) for row in pm.base_rows] if pm.q == 2 else None
    with tr.span("linalg.rank_gf2"):
        r = rank_gf2(packed) if packed is not None else None
    with tr.span("linalg.rank_modp"):
        if packed is None:
            r = rank_modp([list(row) for row in pm.base_rows], pm.q)
    return a, spec.n, spec.n - r


def traced_trial(tr: Tracer, params: ParamSet, seed: int) -> TrialRecord:
    """``run_trial(params, seed)`` replayed call by call."""
    field = make_field(params.q, params.m)
    rng = random.Random(seed)
    with tr.span("experiment.sample_g"):
        g = random_root_free_poly(field, params.t, rng)
    eta = random_eta(field, rng)
    a, n, k = traced_code(tr, field, params, g, eta)
    return TrialRecord(params, a, n, g.to_string(), eta, k, seed)


# -- workloads ------------------------------------------------------------------


@dataclass
class PassResult:
    """What the gates need of one pass; only the first keeps its records."""

    records: list | None
    ks: list[int]
    csv_sha256: str
    attempted: int
    errors: list = dc_field(default_factory=list)  # (codes lost, message)
    code_seconds: list = dc_field(default_factory=list)


def pass_result(records, tr: Tracer | None, attempted: int, **kw) -> PassResult:
    """Write the pass's trials CSV (timed as a span when traced) and digest it."""
    buf = io.StringIO()
    if tr is None:
        write_trials_csv(records, buf)
    else:
        with tr.span("experiment.csv_write"):
            write_trials_csv(records, buf)
    csv_sha256 = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return PassResult(records, [r.k for r in records], csv_sha256, attempted, **kw)


@dataclass(frozen=True)
class SweepWorkload:
    """``experiment.sweep`` over parameter sets, then one trials CSV.

    ``sweeps`` maps the benchmark seed to (sets, trials per set, master
    seed) triples, run in order into one CSV.
    """

    name: str
    fields: tuple[tuple[int, int], ...]
    sweeps: Callable[[int], list]
    csv_sha256: str | None  # trials CSV digest recorded at benchmark seed 0

    def master_seeds(self, seed: int) -> list[int]:
        return [s for _, _, s in self.sweeps(seed)]

    def codes(self, seed: int) -> int:
        return sum(len(sets) * trials for sets, trials, _ in self.sweeps(seed))

    def run(self, seed: int) -> PassResult:
        """The user-facing calls, with a clock around each ``run_trial``."""
        code_seconds = []

        def timed(fn):
            def run_trial(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    code_seconds.append(time.perf_counter() - t0)

            return run_trial

        records, errors = [], []
        with patched(experiment, "run_trial", timed):
            for sets, trials, master in self.sweeps(seed):
                result = sweep(sets, trials, master)
                records.extend(result.records)
                errors.extend((trials, e.error) for e in result.errors)
        return pass_result(records, None, self.codes(seed), errors=errors, code_seconds=code_seconds)

    def run_traced(self, seed: int, tr: Tracer) -> PassResult:
        records, errors = [], []
        with counting_root_scans(tr):
            for sets, trials, master in self.sweeps(seed):
                for params in sets:
                    try:
                        recs = [traced_trial(tr, params, trial_seed(master, i)) for i in range(trials)]
                    except Exception as exc:  # as sweep(): record the failed set, go on
                        errors.append((trials, f"{params}: {exc!r}"))
                        continue
                    summarize(params, recs)
                    records.extend(recs)
        return pass_result(records, tr, self.codes(seed), errors=errors)

    def gates(self, seed: int, records, v: "Verdict") -> set[int]:
        return set()


@dataclass(frozen=True)
class DimWorkload:
    """``dimension()`` on one full-field code with a random and the deviant twist.

    g is drawn with ``random_root_free_poly`` from ``random.Random(seed)``
    (redrawn until g_{t-1} != 0 so that eta* exists), then eta uniform
    nonzero (redrawn if it equals eta*), eta* = lead(g)^2 / g_{t-1}.
    """

    name: str
    params: ParamSet
    csv_sha256: str  # trials CSV digest recorded at benchmark seed 0
    recorded_k: tuple[int, int]  # k(eta), k(eta*) at benchmark seed 0

    @property
    def fields(self):
        return ((self.params.q, self.params.m),)

    def master_seeds(self, seed: int) -> list[int]:
        return [seed]

    def codes(self, seed: int) -> int:
        return 2

    def inputs(self, seed: int):
        p = self.params
        field = make_field(p.q, p.m)
        rng = random.Random(seed)
        g = random_root_free_poly(field, p.t, rng)
        while g.coefficient(p.t - 1) == 0:
            g = random_root_free_poly(field, p.t, rng)
        eta_star = field.div(field.mul(g.lead, g.lead), g.coefficient(p.t - 1))
        eta = random_eta(field, rng)
        while eta == eta_star:
            eta = random_eta(field, rng)
        return field, g, (eta, eta_star)

    def run(self, seed: int) -> PassResult:
        p = self.params
        field, g, etas = self.inputs(seed)
        records, code_seconds = [], []
        for eta in etas:
            t0 = time.perf_counter()
            a = choose_multiplier(field, p.u)
            support = build_support(field, p.b, p.u, g)
            k = dimension(CodeSpec(field, support, g, eta))
            code_seconds.append(time.perf_counter() - t0)
            records.append(TrialRecord(p, a, len(support), g.to_string(), eta, k, seed))
        return pass_result(records, None, 2, code_seconds=code_seconds)

    def run_traced(self, seed: int, tr: Tracer) -> PassResult:
        p = self.params
        with counting_root_scans(tr), tr.span("experiment.sample_g"):
            field, g, etas = self.inputs(seed)
        records = []
        for eta in etas:
            a, n, k = traced_code(tr, field, p, g, eta)
            records.append(TrialRecord(p, a, n, g.to_string(), eta, k, seed))
        return pass_result(records, tr, 2)

    def gates(self, seed: int, records, v: "Verdict") -> set[int]:
        """The rank drop of m - 1 at eta*, and the recorded k at seed 0."""
        if len(records) != 2:
            return set()
        ks = (records[0].k, records[1].k)
        ok = ks[1] - ks[0] == self.params.m - 1
        if not ok:
            v.messages.append(f"k(eta*) - k(eta) = {ks[1] - ks[0]}, expected m - 1")
        if seed == 0 and ks != self.recorded_k:
            ok = False
            v.messages.append(f"(k(eta), k(eta*)) = {ks}, recorded {self.recorded_k}")
        return set() if ok else {0, 1}


REFERENCE_SETS = [ParamSet(2, 4, 3, 10, 3), ParamSet(2, 6, 3, 4, 3), ParamSet(2, 6, 5, 14, 3)]
ODD_Q_SETS = [ParamSet(3, 6, 4, 1, 7), ParamSet(5, 4, 4, 1, 3), ParamSet(3, 6, 2, 0, 1), ParamSet(5, 4, 3, 1, 5)]

WORKLOADS = {
    wl.name: wl
    for wl in (
        SweepWorkload(
            "grid_sweep",
            ((2, 2), (2, 3), (2, 4), (2, 6)),
            lambda s: [
                (standard_grid(), 20, 101 + s),
                (standard_grid(), 20, 202 + s),
                (REFERENCE_SETS, 20, 12345 + s),
            ],
            "c5094d467f2c0dbcad04e0658d594441c35c36040535a5767e0750d46230d861",
        ),
        DimWorkload(
            "dim_full_m14",
            ParamSet(2, 14, 10, 0, 1),
            "6694b0f60d0ff05b099b9a9edc0b228ab85316b8718f0c1e6a579a53d949d865",
            (16244, 16257),
        ),
        SweepWorkload(
            "sweep_odd_q",
            ((3, 6), (5, 4)),
            lambda s: [(ODD_Q_SETS, 10, 1 + s)],
            "356548a5c4c83eac3047de81a1d1e4a91ca30c8f80699de019e608b4a9b18de9",
        ),
    )
}


def run_passes(wl, seed: int, seconds: float, trace: bool):
    """Untraced passes (each followed by a traced one when tracing) for ``seconds``.

    A further step starts only if it would end within half a step of the
    deadline, so the run length stays close to ``seconds``.
    """
    untraced_runs, traced_runs = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        res = wl.run(seed)
        untraced_runs.append((time.perf_counter() - t0, res))
        if len(untraced_runs) > 1:
            res.records = None  # keeps peak RSS independent of the pass count
        if trace:
            tr = Tracer()
            gc.collect()
            t0 = time.perf_counter()
            res = wl.run_traced(seed, tr)
            res.records = None
            traced_runs.append((time.perf_counter() - t0, res, tr))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(untraced_runs) / 2 > seconds:
            return untraced_runs, traced_runs


# -- set-up -------------------------------------------------------------------------

SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tgoppa
t1 = time.perf_counter()
for q, m in json.loads(sys.argv[2]):
    tgoppa.make_field(q, m)
print(json.dumps([t1 - t0, time.perf_counter() - t1]))
"""


def measure_setup(fields, repeats: int) -> dict:
    """Median import and cold ``make_field`` times over fresh processes.

    One extra process runs first and is discarded: in a fresh checkout it
    also compiles the bytecode cache.
    """
    samples = []
    for _ in range(repeats + 1):
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), json.dumps(fields)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(out.stdout))
    samples = samples[1:]
    return {
        "setup_s": statistics.median(a + b for a, b in samples),
        "tgoppa.import_s": statistics.median(a for a, _ in samples),
        "galois.make_field_s": statistics.median(b for _, b in samples),
    }


# -- correctness gates -----------------------------------------------------------------


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    messages: list = dc_field(default_factory=list)
    brute_force_s: float = 0.0
    brute_force_words: int = 0


def per_code_gates(records, v: Verdict) -> set[int]:
    """Indices of codes outside the dimension bounds or off the oracle."""
    bad = set()
    for i, r in enumerate(records):
        p = r.params
        if not max(0, r.n - p.m * p.t) <= r.k <= r.n:
            bad.add(i)
            v.messages.append(f"k={r.k} outside [max(0, n - mt), n] for {p}, seed {r.seed}")
        # Every code meets the oracle boundary, so workloads without small
        # codes time an empty check rather than report a constant zero.
        t0 = time.perf_counter()
        if r.n <= BRUTE_FORCE_MAX_N:
            field = make_field(p.q, p.m)
            g = Poly.from_string(field, r.g)
            spec = CodeSpec(field, build_support(field, p.b, p.u, g), g, r.eta)
            k_bf = brute_force_dimension(spec)
            v.brute_force_words += p.q**r.n
            if k_bf != r.k:
                bad.add(i)
                v.messages.append(f"k={r.k} but brute force gives {k_bf} for {p}, seed {r.seed}")
        v.brute_force_s += time.perf_counter() - t0
    return bad


def check(wl, seed: int, untraced_runs, traced_runs) -> Verdict:
    """Gate every pass; a code failing a gate counts once per pass it ran in.

    Per-code gates run on the first pass; every other pass must write the
    same trials CSV, and a traced pass must also reproduce each k.
    """
    v = Verdict()
    first = untraced_runs[0][1]
    digest = first.csv_sha256
    shared_bad = per_code_gates(first.records, v) | wl.gates(seed, first.records, v)
    counts = [tr.counts for _, _, tr in traced_runs]
    passes = [(res, None) for _, res in untraced_runs]
    passes += [(res, (wall, tr)) for wall, res, tr in traced_runs]
    for res, trace in passes:
        v.attempted += res.attempted
        v.messages.extend(msg for _, msg in res.errors)
        bad = shared_bad | set(range(len(res.ks), res.attempted))
        whole = res.csv_sha256 != digest
        if whole:
            v.messages.append("trials CSV differs from the first pass")
        if trace is not None:
            wall, tr = trace
            differ = {i for i, (a, b) in enumerate(zip(res.ks, first.ks)) if a != b}
            if differ or len(res.ks) != len(first.ks):
                bad |= differ
                v.messages.append(f"traced k differs from run_trial's k on {len(differ)} codes")
            if sum(tr.seconds.values()) > wall:
                whole = True
                v.messages.append("traced spans exceed the traced wall time")
            if tr.counts != counts[0]:
                whole = True
                v.messages.append(f"exact counters differ between traced passes: {counts}")
        v.failed += res.attempted if whole else len(bad)
    if seed == 0 and wl.csv_sha256 is not None and digest != wl.csv_sha256:
        v.failed = v.attempted
        v.messages.append(f"trials CSV sha256 {digest} != recorded {wl.csv_sha256}")
    return v


# -- metrics ----------------------------------------------------------------------------


def end_to_end(setup: dict, untraced_runs, peak_rss_mib: float, v: Verdict):
    """End-to-end metrics, plus the per-code sample counts for the metadata."""
    codes = [s * 1000 for _, res in untraced_runs for s in res.code_seconds]
    p90 = statistics.quantiles(codes, n=10, method="inclusive")[8]
    metrics = {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (statistics.median(w for w, _ in untraced_runs), "s"),
        "code_p50_ms": (statistics.median(codes), "ms"),
        "code_p90_ms": (p90, "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "ok_ratio": ((v.attempted - v.failed) / v.attempted, "ratio"),
    }
    samples = {"code_samples": len(codes), "code_samples_beyond_p90": sum(c > p90 for c in codes)}
    return metrics, samples


def per_layer(setup: dict, untraced_runs, traced_runs, v: Verdict) -> dict:
    """Layer metrics of the traced pass with the median wall time."""
    wall, res, tr = sorted(traced_runs, key=lambda run: run[0])[(len(traced_runs) - 1) // 2]
    metrics = {
        "galois.make_field_s": (setup["galois.make_field_s"], "s"),
        "tgoppa.import_s": (setup["tgoppa.import_s"], "s"),
    }
    metrics.update({f"{name}_s": (tr.seconds[name], "s") for name in SPANS})
    metrics.update({name: (tr.counts[name], "count") for name in COUNTERS})
    scans, columns = tr.counts["polyring.root_scans"], tr.counts["goppa.residue_columns"]
    metrics["experiment.sample_accept_ratio"] = (len(res.ks) / scans if scans else 0.0, "ratio")
    metrics["goppa.residue_us_per_column"] = (
        tr.seconds["goppa.residues"] / columns * 1e6 if columns else 0.0, "us")
    metrics["goppa.brute_force_s"] = (v.brute_force_s, "s")
    metrics["goppa.brute_force_words"] = (v.brute_force_words, "count")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.remainder_s"] = (wall - sum(tr.seconds.values()), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(w for w, _, _ in traced_runs)
        - statistics.median(w for w, _ in untraced_runs), "s")
    return metrics


# -- run metadata ------------------------------------------------------------------------


def git_rev() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tgoppa").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


# -- entry point -------------------------------------------------------------------------


def run_workload(wl, seed: int, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS):
    """One benchmark run; returns (result object, run metadata)."""
    setup = measure_setup(wl.fields, setup_repeats)
    untraced_runs, traced_runs = run_passes(wl, seed, seconds, trace)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    v = check(wl, seed, untraced_runs, traced_runs)
    if trace:
        metrics, samples = per_layer(setup, untraced_runs, traced_runs, v), {}
    else:
        metrics, samples = end_to_end(setup, untraced_runs, peak_rss_mib, v)
    first = untraced_runs[0][1]
    meta = {
        "workload": wl.name,
        "seed": seed,
        "master_seeds": wl.master_seeds(seed),
        "trace": int(trace),
        "python": platform.python_version(),
        "git_rev": git_rev(),
        "src_sha256": src_sha256(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "pass_walls_s": {
            "untraced": [w for w, _ in untraced_runs],
            "traced": [w for w, _, _ in traced_runs],
        },
        **samples,
        "trials_csv_sha256": first.csv_sha256,
        "ks": first.ks if isinstance(wl, DimWorkload) else None,
        "failures": v.messages[:20],
    }
    result = {
        "correct": v.failed == 0 and not v.messages,
        "attempted": v.attempted,
        "failed": v.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, meta = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for msg in meta["failures"]:
        print(f"bench: {msg}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
