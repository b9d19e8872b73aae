"""Command-line entry point with JSON I/O.

Exit codes: 0 success, 2 usage error (malformed input files included),
4 certificate invalid or malformed, 5 probe, search or precision budget
exhausted (a witness query that neither the line walk nor the brute box
answers included).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Callable

from .field import DEFAULT_PRECISION_CAP, PrecisionExceededError, precision_scope
from .finite import FiniteNOrder, amalgamate, embed, pattern_of
from .genericity import (
    DEFAULT_PROBE_BUDGET,
    IntervalConstraint,
    MultiOrder,
    ProbeBudgetExhaustedError,
    find_witness,
)
from .matrix import build
from .orders import OrderSpec
from .refuter import (
    MalformedCertificateError,
    NoCertificateFound,
    SearchBudgetExhaustedError,
    refute,
    verify_certificate,
)
from .serialize import SCHEMA_VERSION, certificate_from_json, certificate_to_json

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CERT_INVALID = 4
EXIT_BUDGET = 5

def _emit(payload: dict) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _load(path: str, decode: Callable):
    """decode applied to the JSON in path; JSON of the wrong shape is a
    usage error (ValueError), not a traceback."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        return decode(obj)
    except (TypeError, KeyError, AttributeError) as exc:
        raise ValueError(f"malformed input {path}: {exc!r}") from exc


def _orders(obj: list) -> list[OrderSpec]:
    return [OrderSpec.from_json(o) for o in obj]


def _cmd_build_matrix(args: argparse.Namespace) -> int:
    A = build(args.m, args.seed)
    _emit({"matrix": A.to_json(), "verified": A.verified})
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    M = _load(args.multiorder, MultiOrder.from_json)
    cons = _load(args.constraints, IntervalConstraint.from_json)
    res = find_witness(M, cons, probe_budget=args.probe_budget)
    _emit({"witness": list(res.point), "probes": res.probes, "backend": res.backend})
    return EXIT_OK


def _cmd_refute(args: argparse.Namespace) -> int:
    orders = _load(args.orders, _orders)
    try:
        cert = refute(orders)
    except NoCertificateFound:
        _emit({"certificate": None, "reason": "NoCertificateFound"})
        return EXIT_OK
    _emit({"certificate": certificate_to_json(cert)})
    return EXIT_OK


def _cmd_verify_cert(args: argparse.Namespace) -> int:
    orders = _load(args.orders, _orders)
    try:
        ok = verify_certificate(orders, _load(args.cert, certificate_from_json))
    except MalformedCertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        ok = False
    _emit({"valid": ok})
    return EXIT_OK if ok else EXIT_CERT_INVALID


def _cmd_embed(args: argparse.Namespace) -> int:
    s = _load(args.structure, FiniteNOrder.from_json)
    M = _load(args.multiorder, MultiOrder.from_json)
    emb = embed(s, M, probe_budget=args.probe_budget)
    _emit({"embedding": emb.to_json()})
    return EXIT_OK


def _cmd_amalgamate(args: argparse.Namespace) -> int:
    a = _load(args.a, FiniteNOrder.from_json)
    b1 = _load(args.b1, FiniteNOrder.from_json)
    b2 = _load(args.b2, FiniteNOrder.from_json)
    c, g1, g2 = amalgamate(a, b1, b2, _labels(args.f1), _labels(args.f2))
    _emit({"c": c.to_json(), "g1": list(g1), "g2": list(g2)})
    return EXIT_OK


def _labels(text: str) -> tuple[int, ...]:
    """An --f1/--f2 value: a JSON list of integer labels."""
    labels = json.loads(text)
    if type(labels) is not list or not all(type(x) is int for x in labels):
        raise ValueError(f"expected a JSON list of integer labels, got {text!r}")
    return tuple(labels)


def _cmd_pattern(args: argparse.Namespace) -> int:
    s = _load(args.structure, FiniteNOrder.from_json)
    _emit({"pattern": list(pattern_of(s))})
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    ok = run_selftest(args.level, rng_seed=args.seed)
    return EXIT_OK if ok else 1


def _positive_int(text: str) -> int:
    """The argparse type of the budget and size options: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of every run; it holds no per-call state, since the
    defaults are module constants and the environment is read in run()."""
    parser = argparse.ArgumentParser(
        prog="multiorder",
        description="Right-invariant generic multiorders on Z^m: "
        "construction, witnesses, and refutation certificates.",
    )
    parser.add_argument(
        "--precision-cap", type=_positive_int, default=DEFAULT_PRECISION_CAP
    )
    parser.add_argument(
        "--probe-budget", type=_positive_int, default=DEFAULT_PROBE_BUDGET
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-matrix", help="build and verify an order matrix")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_build_matrix)

    p = sub.add_parser("witness", help="find a point meeting every interval")
    p.add_argument("--multiorder", required=True)
    p.add_argument("--constraints", required=True)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("refute", help="certificate that orders are not generic")
    p.add_argument("--orders", required=True)
    p.set_defaults(func=_cmd_refute)

    p = sub.add_parser("verify-cert", help="re-check a refutation certificate")
    p.add_argument("--orders", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(func=_cmd_verify_cert)

    p = sub.add_parser("embed", help="embed a finite n-order into a multiorder")
    p.add_argument("--structure", required=True)
    p.add_argument("--multiorder", required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("amalgamate", help="strong amalgam of two extensions")
    p.add_argument("--a", required=True)
    p.add_argument("--b1", required=True)
    p.add_argument("--b2", required=True)
    p.add_argument("--f1", required=True, help="JSON list mapping A labels to B1")
    p.add_argument("--f2", required=True, help="JSON list mapping A labels to B2")
    p.set_defaults(func=_cmd_amalgamate)

    p = sub.add_parser("pattern", help="permutation pattern of a 2-order")
    p.add_argument("--structure", required=True)
    p.set_defaults(func=_cmd_pattern)

    p = sub.add_parser("selftest", help="run the built-in property suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=_cmd_selftest)
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            parser.error("--seed must not be negative")
        env_cap = os.environ.get("MULTIORDER_PRECISION_CAP")  # overrides the flag
        if env_cap:
            try:
                args.precision_cap = _positive_int(env_cap)
            except argparse.ArgumentTypeError as exc:
                parser.error(f"MULTIORDER_PRECISION_CAP: {exc}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        with precision_scope(args.precision_cap):
            return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (
        PrecisionExceededError,
        ProbeBudgetExhaustedError,
        SearchBudgetExhaustedError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
