"""Built-in property suites backing the `selftest` subcommand."""

from __future__ import annotations

import itertools
import random
import sys
from fractions import Fraction

from .field import RadicalBasis
from .finite import from_pattern, embed, induced, pattern_of
from .genericity import extension_property_test, from_matrix
from .lattice import vec_sub
from .matrix import build, verify
from .orders import Cmp, Cone, LinearForm, OrderSpec
from .refuter import refute, verify_certificate


def _log(name: str, ok: bool) -> None:
    print(f"selftest {name}: {'PASS' if ok else 'FAIL'}", file=sys.stderr)


def _field_suite(rng: random.Random, rounds: int) -> bool:
    basis = RadicalBasis((2, 3, 5))

    def rand_scalar():
        terms = {}
        for d in (1, 2, 3, 5, 6, 10, 15, 30):
            if rng.random() < 0.4:
                terms[d] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        return basis.scalar(terms)

    for _ in range(rounds):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        if (a + b) != (b + a) or (a * b) != (b * a):
            return False
        if ((a + b) + c) != (a + (b + c)) or ((a * b) * c) != (a * (b * c)):
            return False
        if (a * (b + c)) != (a * b + a * c):
            return False
        if a.sign() * b.sign() != (a * b).sign():
            return False
        lo, hi = a.interval(256)
        if a.sign() > 0 and hi <= 0:
            return False
        if a.sign() < 0 and lo >= 0:
            return False
    return True


def _orders_suite(rng: random.Random, rounds: int) -> bool:
    basis = RadicalBasis((2, 3))
    dense = OrderSpec(2, (LinearForm((basis.one, basis.sqrt(2))),))
    recursive = OrderSpec(
        2, (LinearForm((basis.one, basis.one)), LinearForm((basis.zero, basis.one)))
    )
    for o in (dense, recursive):
        for _ in range(rounds):
            x = tuple(rng.randint(-20, 20) for _ in range(2))
            y = tuple(rng.randint(-20, 20) for _ in range(2))
            c = o.compare(x, y)
            if (c == Cmp.EQUAL) != (x == y):
                return False
            if c != Cmp(-int(o.compare(y, x))):
                return False
    # Near-ties of the dense order: x - y = (p, -q) for the convergents p/q
    # of sqrt 2, where |p - q sqrt 2| < 1/q.  compare decides the first ones
    # in floats and goes exact from q ~ 2e7 on; both routes must agree with
    # the exact sign.
    p, q = 1, 1
    for _ in range(rounds):
        y = tuple(rng.randint(-20, 20) for _ in range(2))
        for x in ((y[0] + p, y[1] - q), (y[0] - p - 1, y[1] + q)):
            if int(dense.compare(x, y)) != dense.leading.value(vec_sub(x, y)).sign():
                return False
        p, q = p + 2 * q, p + q
    for _ in range(rounds):
        p = tuple(rng.randint(-5, 5) for _ in range(2))
        if dense.cone_membership(p) == Cone.POSITIVE:
            q, r = dense.cone_split(p, 8)
            if dense.cone_membership(q) != Cone.POSITIVE:
                return False
            if dense.cone_membership(r) != Cone.POSITIVE:
                return False
    return True


def _matrix_suite(seeds: int) -> bool:
    for m in (2, 3):
        for seed in range(seeds):
            if not verify(build(m, seed)).ok:
                return False
    return True


def _genericity_suite(trials: int) -> bool:
    M = from_matrix(build(3, 0))
    return extension_property_test(M, k=3, trials=trials, box=10).passed


def _refuter_suite() -> bool:
    basis = RadicalBasis((2, 3))
    one, s2, s3 = basis.one, basis.sqrt(2), basis.sqrt(3)
    cases = [
        [OrderSpec(1, (LinearForm((one,)),))],
        [
            OrderSpec(2, (LinearForm((one, s2)),)),
            OrderSpec(2, (LinearForm((s2, basis.rational(2))),)),
        ],
        [
            OrderSpec(2, (LinearForm((one, s2)),)),
            OrderSpec(2, (LinearForm((s3, one)),)),
        ],
        [
            OrderSpec(2, (LinearForm((one, one)), LinearForm((basis.zero, one)))),
            OrderSpec(2, (LinearForm((one, s2)),)),
        ],
    ]
    for orders in cases:
        cert = refute(orders)
        if not verify_certificate(orders, cert):
            return False
    return True


def _finite_suite() -> bool:
    M = from_matrix(build(3, 0))
    for perm in itertools.permutations((1, 2, 3)):
        s = from_pattern(perm)
        emb = embed(s, M)
        if pattern_of(induced(M, list(emb.points))) != perm:
            return False
    return True


def run_selftest(level: str, rng_seed: int = 0) -> bool:
    rounds = 30 if level == "quick" else 200
    rng = random.Random(rng_seed)
    suites = [
        ("field", lambda: _field_suite(rng, rounds)),
        ("orders", lambda: _orders_suite(rng, rounds)),
        ("matrix", lambda: _matrix_suite(2 if level == "quick" else 10)),
        ("genericity", lambda: _genericity_suite(10 if level == "quick" else 50)),
        ("refuter", _refuter_suite),
        ("finite", _finite_suite),
    ]
    all_ok = True
    for name, fn in suites:
        ok = fn()
        _log(name, ok)
        all_ok = all_ok and ok
    return all_ok
