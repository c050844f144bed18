"""Command-line interface.

Subcommands: field, support, dim, member, oracle-dim, determinism,
sweep.  All primary output is single-line JSON (or CSV for sweeps) on
stdout; diagnostics go to stderr.

Exit codes:
  0  success
  1  operational failure (bad input data, I/O, sampling failure)
  2  usage error (flags rejected before any computation)
  3  a verification came back negative: the determinism invariant was
     violated, or the two dimension routes disagreed
  4  internal consistency failure: two computations that must agree did
     not, which signals an arithmetic bug
"""

from __future__ import annotations

import argparse
import json
import sys

from .affine_support import build_support, support_orbits, validate_orbit_params
from .errors import InternalConsistencyError
from .galois import Field, make_field
from .goppa import (
    DEFAULT_ENUMERATION_CAP,
    CodeSpec,
    brute_force_dimension,
    dimension,
    is_codeword,
    matrix_to_json,
    parity_matrix,
    rank,
    spec_to_json,
)
from .polyring import Poly
from .experiment import (
    ParamSet,
    report_to_dict,
    sweep,
    sweep_result_to_dict,
    verify_determinism,
    write_trials_csv,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_INTERNAL = 4


class _UsageError(Exception):
    """Flag validation failure; reported with usage text and exit code 2."""


def _json_line(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        f.write(_json_line(obj))
        f.write("\n")


def _checked(build, *args, prefix: str = "", **kwargs):
    """build(*args, **kwargs), with any ValueError it raises reported as a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:  # includes NotPrimeError, SizeCapError, NoSuchOrderError
        raise _UsageError(f"{prefix}{exc}") from None


def _orbit_params(args, field: Field) -> tuple[int, int]:
    """(b, u) of the requested support construction."""
    if args.support == "all":
        return 0, 1
    if args.b is None or args.u is None:
        raise _UsageError("--support orbit requires --b and --u")
    _checked(validate_orbit_params, field.q, field.m, args.u, args.b)
    return args.b, args.u


def _build_spec(args) -> CodeSpec:
    field = _checked(make_field, args.q, args.m)
    g = _checked(Poly.from_string, field, args.g, prefix="bad --g: ")
    if getattr(args, "t", None) is not None and args.t != g.degree:
        raise _UsageError(f"--t {args.t} contradicts deg g = {g.degree}")
    eta = _checked(field.check, args.eta, prefix="bad --eta: ")
    b, u = _orbit_params(args, field)
    support = _checked(build_support, field, b, u, g, args.orbits)
    return _checked(CodeSpec, field, support, g, eta)


# -- handlers -----------------------------------------------------------------


def _cmd_field(args) -> int:
    field = _checked(make_field, args.q, args.m)
    print(_json_line(field.to_json()))
    return EXIT_OK


def _cmd_support(args) -> int:
    field = _checked(make_field, args.q, args.m)
    g = _checked(Poly.from_string, field, args.g, prefix="bad --g: ")
    b, u = _orbit_params(args, field)
    orbits = _checked(support_orbits, field, b, u, g, args.orbits)
    print(_json_line({"orbits": orbits}))
    return EXIT_OK


def _cmd_dim(args) -> int:
    spec = _build_spec(args)
    pm = parity_matrix(spec)
    r = rank(pm)
    out = {"n": spec.n, "mt": spec.field.m * spec.t, "rank": r, "k": spec.n - r}
    print(_json_line(out))
    if args.out:
        _write_json(args.out, {**out, "spec": spec_to_json(spec), "matrix": matrix_to_json(pm)})
    return EXIT_OK


def _cmd_member(args) -> int:
    spec = _build_spec(args)
    try:
        word = tuple(int(tok) for tok in args.word.split(","))
    except ValueError:
        raise _UsageError(f"bad --word: {args.word!r}") from None
    print(_json_line({"n": spec.n, "is_codeword": is_codeword(spec, word)}))
    return EXIT_OK


def _cmd_oracle_dim(args) -> int:
    spec = _build_spec(args)
    k_rank = dimension(spec)
    k_brute = brute_force_dimension(spec, cap=args.cap)
    match = k_rank == k_brute
    print(
        _json_line(
            {"n": spec.n, "k_rank": k_rank, "k_bruteforce": k_brute, "match": match}
        )
    )
    if not match:
        print("tgoppa: rank and brute-force dimensions disagree", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_determinism(args) -> int:
    params = _checked(ParamSet, args.q, args.m, args.t, args.b, args.u)
    # The trial count and seed are checked before any draw; a failed trial
    # raises TrialError, not ValueError, so it is no usage error.
    report = _checked(verify_determinism, params, args.trials, args.seed,
                      allow_zero_eta=args.allow_zero_eta)
    payload = report_to_dict(report)
    print(_json_line(payload))
    if args.out:
        _write_json(args.out, payload)
    if not report.invariant:
        print(
            f"tgoppa: determinism violated for {params}: "
            f"k histogram {report.k_histogram}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        with open(args.grid) as f:
            grid_doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"tgoppa: error: cannot read grid file: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    raw_entries = grid_doc.get("grid") if isinstance(grid_doc, dict) else None
    if not isinstance(raw_entries, list) or not raw_entries:
        raise _UsageError('grid file must contain a nonempty "grid" array')
    trials = args.trials if args.trials is not None else grid_doc.get("trials")
    if trials is None:
        raise _UsageError("trial count missing: pass --trials or put it in the grid file")
    seed = args.seed if args.seed is not None else grid_doc.get("seed")
    if seed is None:
        raise _UsageError("seed missing: pass --seed or put it in the grid file")

    grid, bad_entries = [], []
    for idx, entry in enumerate(raw_entries):
        try:
            grid.append(ParamSet.from_dict(entry))
        except (KeyError, TypeError, ValueError) as exc:
            bad_entries.append({"params": entry, "report": None, "error": str(exc)})
            print(f"tgoppa: grid entry {idx} rejected: {exc}", file=sys.stderr)
    if not grid:
        print("tgoppa: error: no usable grid entries", file=sys.stderr)
        return EXIT_FAILURE

    result = _checked(sweep, grid, trials, seed, allow_zero_eta=args.allow_zero_eta)
    for entry in result.errors:
        print(f"tgoppa: {entry.params} failed: {entry.error}", file=sys.stderr)
    for report in result.counterexamples:
        print(
            f"tgoppa: DETERMINISM VIOLATED for {report.params}: "
            f"k histogram {report.k_histogram}",
            file=sys.stderr,
        )

    if args.format == "csv":
        if args.out:
            write_trials_csv(result.records, args.out)
        else:
            write_trials_csv(result.records, sys.stdout)
    else:
        payload = sweep_result_to_dict(result)
        payload["reports"].extend(bad_entries)
        if args.out:
            _write_json(args.out, payload)
        else:
            print(_json_line(payload))

    if result.counterexamples:
        return EXIT_VIOLATION
    if result.errors or bad_entries:
        return EXIT_FAILURE
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tgoppa",
        description="Twisted Goppa codes: construction, exact dimension, "
        "and dimension-determinism experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    field_common = argparse.ArgumentParser(add_help=False)
    field_common.add_argument("--q", type=int, required=True, help="prime base field order")
    field_common.add_argument("--m", type=int, required=True, help="extension degree")

    code_common = argparse.ArgumentParser(add_help=False, parents=[field_common])
    code_common.add_argument(
        "--g", required=True,
        help="Goppa polynomial, ascending comma-separated encodings (e.g. 2,1,1)",
    )
    code_common.add_argument(
        "--support", choices=("all", "orbit"), default="all",
        help="support construction: whole field minus roots of g, or orbit union",
    )
    code_common.add_argument("--b", type=int, help="translation element encoding (orbit mode)")
    code_common.add_argument("--u", type=int, help="affine map order (orbit mode)")
    code_common.add_argument(
        "--orbits", type=int, help="keep only the first N orbits of the support"
    )

    spec_common = argparse.ArgumentParser(add_help=False, parents=[code_common])
    spec_common.add_argument("--t", type=int, help="Goppa degree; must match deg g")
    spec_common.add_argument("--eta", type=int, required=True, help="twist element encoding")

    p = sub.add_parser("field", parents=[field_common],
                       help="print the canonical field description")
    p.set_defaults(handler=_cmd_field)

    p = sub.add_parser("support", parents=[code_common],
                       help="print the support grouped by orbit")
    p.set_defaults(handler=_cmd_support)

    p = sub.add_parser("dim", parents=[spec_common],
                       help="rank and dimension of one code")
    p.add_argument("--out", help="also write spec and parity matrix JSON here")
    p.set_defaults(handler=_cmd_dim)

    p = sub.add_parser("member", parents=[spec_common],
                       help="test one word against the defining congruence")
    p.add_argument("--word", required=True,
                   help="comma-separated word over GF(q), length n")
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("oracle-dim", parents=[spec_common],
                       help="compare rank-based and brute-force dimensions")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="enumeration cap on q^n (default 2^20)")
    p.set_defaults(handler=_cmd_oracle_dim)

    p = sub.add_parser("determinism", parents=[field_common],
                       help="randomized trials of one parameter set")
    p.add_argument("--t", type=int, required=True, help="Goppa degree")
    p.add_argument("--b", type=int, required=True, help="translation element encoding")
    p.add_argument("--u", type=int, required=True, help="affine map order")
    p.add_argument("--trials", type=int, default=20, help="trial count (default 20)")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--allow-zero-eta", action="store_true",
                   help="sample eta from the whole field instead of the nonzero part")
    p.add_argument("--out", help="also write the report JSON here")
    p.set_defaults(handler=_cmd_determinism)

    p = sub.add_parser("sweep", help="determinism reports over a parameter grid")
    p.add_argument("--grid", required=True,
                   help='JSON file {"grid":[{"q":..,"m":..,"t":..,"b":..,"u":..}],'
                        '"trials":..,"seed":..}')
    p.add_argument("--trials", type=int, help="override the grid file's trial count")
    p.add_argument("--seed", type=int, help="override the grid file's seed")
    p.add_argument("--allow-zero-eta", action="store_true",
                   help="sample eta from the whole field instead of the nonzero part")
    p.add_argument("--out", help="write results here instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="trial records CSV or full report JSON (default csv)")
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        parser.error(str(exc))  # exits with code 2
    except InternalConsistencyError as exc:
        print(f"tgoppa: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"tgoppa: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
