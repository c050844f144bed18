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

from .affine_support import build_support, support_orbits
from .errors import InternalConsistencyError
from .galois import _check_int, _read_doc, _read_int, make_field
from .goppa import (
    DEFAULT_ENUMERATION_CAP,
    CodeSpec,
    _check_degree,
    brute_force_dimension,
    dimension,
    is_codeword,
    matrix_to_json,
    parity_matrix,
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


def _print_violation(report) -> None:
    print(f"tgoppa: determinism violated for {report.params}: "
          f"k histogram {report.k_histogram}", file=sys.stderr)


def _checked(build, *args, prefix: str = "", **kwargs):
    """build(*args, **kwargs), with any ValueError it raises reported as a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:  # includes NotPrimeError, SizeCapError, NoSuchOrderError
        raise _UsageError(f"{prefix}{exc}") from None


def _build_spec(args) -> CodeSpec:
    field = _checked(make_field, args.q, args.m)
    g = _checked(Poly.from_string, field, args.g, prefix="bad --g: ")
    if getattr(args, "t", None) is not None:
        _checked(_check_degree, g, args.t)
    support = _checked(build_support, field, args.b, args.u, g, args.orbits)
    return _checked(CodeSpec, field, support, g, args.eta)


# -- handlers -----------------------------------------------------------------


def _cmd_field(args) -> int:
    field = _checked(make_field, args.q, args.m)
    print(_json_line(field.to_json()))
    return EXIT_OK


def _cmd_support(args) -> int:
    field = _checked(make_field, args.q, args.m)
    g = _checked(Poly.from_string, field, args.g, prefix="bad --g: ")
    orbits = _checked(support_orbits, field, args.b, args.u, g, args.orbits)
    print(_json_line({"orbits": orbits}))
    return EXIT_OK


def _cmd_dim(args) -> int:
    spec = _build_spec(args)
    k = dimension(spec)
    out = {"n": spec.n, "mt": spec.field.m * spec.t, "rank": spec.n - k, "k": k}
    print(_json_line(out))
    if args.out:
        _write_json(args.out, {**out, "spec": spec_to_json(spec),
                               "matrix": matrix_to_json(parity_matrix(spec))})
    return EXIT_OK


def _cmd_member(args) -> int:
    spec = _build_spec(args)
    word = [_checked(_read_int, tok, "word entry", prefix="bad --word: ")
            for tok in args.word.split(",")]
    print(_json_line({"n": spec.n, "is_codeword": is_codeword(spec, word)}))
    return EXIT_OK


def _cmd_oracle_dim(args) -> int:
    cap = _checked(_check_int, args.cap, "enumeration cap", 1)
    spec = _build_spec(args)
    k_rank = dimension(spec)
    k_brute = brute_force_dimension(spec, cap=cap)
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
        _print_violation(report)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        with open(args.grid) as f:
            grid_doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"tgoppa: error: cannot read grid file: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    [grid] = _checked(_read_doc, grid_doc, "grid file", ("grid",), ("grid",))
    if not grid:
        raise _UsageError('grid file must contain a nonempty "grid" array')
    trials = args.trials if args.trials is not None else grid_doc.get("trials")
    if trials is None:
        raise _UsageError("trial count missing: pass --trials or put it in the grid file")
    seed = args.seed if args.seed is not None else grid_doc.get("seed")
    if seed is None:
        raise _UsageError("seed missing: pass --seed or put it in the grid file")

    result = _checked(sweep, grid, trials, seed, allow_zero_eta=args.allow_zero_eta)
    for idx, entry in enumerate(result.entries):
        if entry.error is not None:
            print(f"tgoppa: grid entry {idx} rejected: {entry.error}", file=sys.stderr)
    for report in result.counterexamples:
        _print_violation(report)

    if args.format == "csv":
        write_trials_csv(result.records, args.out or sys.stdout)
    else:
        payload = sweep_result_to_dict(result)
        if args.out:
            _write_json(args.out, payload)
        else:
            print(_json_line(payload))

    if result.counterexamples:
        return EXIT_VIOLATION
    if result.errors:
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

    def integer(text: str) -> int:  # every integer flag; argparse names it: "invalid integer value"
        return _read_int(text, "integer")

    field_common = argparse.ArgumentParser(add_help=False)
    field_common.add_argument("--q", type=integer, required=True, help="prime base field order")
    field_common.add_argument("--m", type=integer, required=True, help="extension degree")

    code_common = argparse.ArgumentParser(add_help=False, parents=[field_common])
    code_common.add_argument(
        "--g", required=True,
        help="Goppa polynomial, ascending comma-separated encodings (e.g. 2,1,1)",
    )
    code_common.add_argument("--b", type=integer, default=0,
                             help="translation encoding (default 0)")
    code_common.add_argument("--u", type=integer, default=1,
                             help="affine map order (default 1: the identity, whole field)")
    code_common.add_argument(
        "--orbits", type=integer, help="keep only the first N orbits of the support"
    )

    spec_common = argparse.ArgumentParser(add_help=False, parents=[code_common])
    spec_common.add_argument("--t", type=integer, help="Goppa degree; must match deg g")
    spec_common.add_argument("--eta", type=integer, required=True, help="twist element encoding")

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
    p.add_argument("--cap", type=integer, default=DEFAULT_ENUMERATION_CAP,
                   help="enumeration cap on q^n (default 2^20)")
    p.set_defaults(handler=_cmd_oracle_dim)

    p = sub.add_parser("determinism", parents=[field_common],
                       help="randomized trials of one parameter set")
    p.add_argument("--t", type=integer, required=True, help="Goppa degree")
    p.add_argument("--b", type=integer, required=True, help="translation element encoding")
    p.add_argument("--u", type=integer, required=True, help="affine map order")
    p.add_argument("--trials", type=integer, default=20, help="trial count (default 20)")
    p.add_argument("--seed", type=integer, required=True, help="master seed")
    p.add_argument("--allow-zero-eta", action="store_true",
                   help="sample eta from the whole field instead of the nonzero part")
    p.add_argument("--out", help="also write the report JSON here")
    p.set_defaults(handler=_cmd_determinism)

    p = sub.add_parser("sweep", help="determinism reports over a parameter grid")
    p.add_argument("--grid", required=True,
                   help='JSON file {"grid":[{"q":..,"m":..,"t":..,"b":..,"u":..}],'
                        '"trials":..,"seed":..}')
    p.add_argument("--trials", type=integer, help="override the grid file's trial count")
    p.add_argument("--seed", type=integer, help="override the grid file's seed")
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
