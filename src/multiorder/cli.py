"""Command-line entry point with JSON I/O.

Exit codes: 0 success, 2 usage error, 3 witness not found in box,
4 certificate invalid or malformed, 5 internal budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import field as field_mod
from .finite import FiniteNOrder, amalgamate, embed, pattern_of
from .genericity import (
    IntervalConstraint,
    MultiOrder,
    ProbeBudgetExhaustedError,
    find_witness,
    witness_brute,
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
EXIT_NOT_FOUND = 3
EXIT_CERT_INVALID = 4
EXIT_BUDGET = 5


@dataclass
class Config:
    precision_cap: int = 16384
    witness_probe_budget: int = 10**6
    brute_box_schedule: tuple[int, ...] = (8, 16, 32, 64, 128, 256, 512, 1024)
    endpoint_search_norm: int = 32
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.precision_cap <= 0 or self.witness_probe_budget <= 0:
            raise ValueError("config values must be positive")
        if self.endpoint_search_norm <= 0 or self.rng_seed < 0:
            raise ValueError("config values must be positive")
        sched = tuple(self.brute_box_schedule)
        if not sched or any(b <= 0 for b in sched) or list(sched) != sorted(set(sched)):
            raise ValueError("box schedule must be positive and strictly increasing")
        self.brute_box_schedule = sched


def _emit(payload: dict) -> None:
    payload = {"schema": SCHEMA_VERSION, **payload}
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _config_from_args(args: argparse.Namespace) -> Config:
    cfg = Config(
        precision_cap=args.precision_cap,
        witness_probe_budget=args.probe_budget,
        brute_box_schedule=tuple(args.box_schedule),
        endpoint_search_norm=args.search_norm,
        rng_seed=args.seed,
    )
    env_cap = os.environ.get("MULTIORDER_PRECISION_CAP")
    if env_cap:
        cfg.precision_cap = int(env_cap)
    field_mod.DEFAULT_PRECISION_CAP = cfg.precision_cap
    return cfg


def _cmd_build_matrix(args: argparse.Namespace, cfg: Config) -> int:
    A = build(args.m, args.seed_value if args.seed_value is not None else cfg.rng_seed)
    _emit({"matrix": A.to_json(), "verified": A.verified})
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace, cfg: Config) -> int:
    M = MultiOrder.from_json(_load_json(args.multiorder))
    cons = IntervalConstraint.from_json(_load_json(args.constraints))
    if M.direction is not None:
        try:
            res = find_witness(
                M,
                cons,
                probe_budget=cfg.witness_probe_budget,
                box_schedule=cfg.brute_box_schedule,
            )
        except ProbeBudgetExhaustedError:
            return EXIT_BUDGET
        _emit(
            {
                "witness": list(res.point),
                "probes": res.probes,
                "backend": res.backend,
            }
        )
        return EXIT_OK
    z = witness_brute(M, cons, cfg.brute_box_schedule[-1])
    if z is None:
        _emit({"witness": None, "backend": "brute"})
        return EXIT_NOT_FOUND
    _emit({"witness": list(z), "probes": 0, "backend": "brute"})
    return EXIT_OK


def _cmd_refute(args: argparse.Namespace, cfg: Config) -> int:
    orders = [OrderSpec.from_json(o) for o in _load_json(args.orders)]
    try:
        cert = refute(orders, search_norm=cfg.endpoint_search_norm)
    except NoCertificateFound:
        _emit({"certificate": None, "reason": "NoCertificateFound"})
        return EXIT_OK
    except SearchBudgetExhaustedError:
        return EXIT_BUDGET
    _emit({"certificate": certificate_to_json(cert)})
    return EXIT_OK


def _cmd_verify_cert(args: argparse.Namespace, cfg: Config) -> int:
    orders = [OrderSpec.from_json(o) for o in _load_json(args.orders)]
    cert_json = _load_json(args.cert)
    try:
        ok = verify_certificate(orders, certificate_from_json(cert_json))
    except MalformedCertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        ok = False
    _emit({"valid": ok})
    return EXIT_OK if ok else EXIT_CERT_INVALID


def _cmd_embed(args: argparse.Namespace, cfg: Config) -> int:
    s = FiniteNOrder.from_json(_load_json(args.structure))
    M = MultiOrder.from_json(_load_json(args.multiorder))
    emb = embed(s, M, probe_budget=cfg.witness_probe_budget)
    _emit({"embedding": emb.to_json()})
    return EXIT_OK


def _cmd_amalgamate(args: argparse.Namespace, cfg: Config) -> int:
    a = FiniteNOrder.from_json(_load_json(args.a))
    b1 = FiniteNOrder.from_json(_load_json(args.b1))
    b2 = FiniteNOrder.from_json(_load_json(args.b2))
    f1 = tuple(json.loads(args.f1))
    f2 = tuple(json.loads(args.f2))
    c, g1, g2 = amalgamate(a, b1, b2, f1, f2)
    _emit({"c": c.to_json(), "g1": list(g1), "g2": list(g2)})
    return EXIT_OK


def _cmd_pattern(args: argparse.Namespace, cfg: Config) -> int:
    s = FiniteNOrder.from_json(_load_json(args.structure))
    _emit({"pattern": list(pattern_of(s))})
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace, cfg: Config) -> int:
    from .selftest import run_selftest

    ok = run_selftest(args.level, rng_seed=cfg.rng_seed)
    return EXIT_OK if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiorder",
        description="Right-invariant generic multiorders on Z^m: "
        "construction, witnesses, and refutation certificates.",
    )
    parser.add_argument("--precision-cap", type=int, default=16384)
    parser.add_argument("--probe-budget", type=int, default=10**6)
    parser.add_argument(
        "--box-schedule",
        type=int,
        nargs="+",
        default=[8, 16, 32, 64, 128, 256, 512, 1024],
    )
    parser.add_argument("--search-norm", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-matrix", help="build and verify an order matrix")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, dest="seed_value", default=None)
    p.add_argument("--json", action="store_true")
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
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = _config_from_args(args)
        return args.func(args, cfg)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
