"""The certified float filter: its error bound holds, and near-ties go exact."""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiorder.field import FieldScalar, RadicalBasis, radicand_rows
from multiorder.genericity import (
    IntervalConstraint,
    find_witness,
    first_satisfying,
    from_matrix,
    satisfies,
)
from multiorder.lattice import filter_margin, gamma, int_kernel, iter_box
from multiorder.matrix import build
from multiorder.orders import Cmp, LinearForm, OrderSpec


@lru_cache(maxsize=None)
def host(m, seed=0):
    return from_matrix(build(m, seed))


@lru_cache(maxsize=None)
def built_forms():
    """Every row of build(m, s): the order forms and the direction."""
    out = []
    for m, seed in [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1), (5, 0)]:
        M = host(m, seed)
        out += [o.leading for o in M.orders] + [M.direction]
    return out


RV = RadicalBasis((2, 3, 5, 7))
RADICANDS = (1, 2, 3, 5, 7, 6, 10, 14, 15, 21, 35)
ratio = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


@st.composite
def drawn_forms(draw, m=None):
    """Rows like the refuter's inputs: rational and radical coefficients,
    some with several terms, some zero."""
    if m is None:
        m = draw(st.integers(1, 5))
    radicands = st.sets(st.sampled_from(RADICANDS), max_size=3)
    coeffs = [RV.scalar({d: draw(ratio) for d in draw(radicands)}) for _ in range(m)]
    if all(c.is_zero() for c in coeffs):
        coeffs[0] = RV.sqrt(2)
    return LinearForm(tuple(coeffs))


built = st.deferred(lambda: st.sampled_from(built_forms()))
forms = built | drawn_forms()
# Up to 2^60 as the walk's probes reach, and beyond int64 for endpoints.
coordinate = (
    st.integers(-(2**20), 2**20)
    | st.integers(-(2**60), 2**60)
    | st.integers(-(2**70), 2**70)
)


def weights(f):
    return np.array([f.floats()]), np.array([f.weights()])


def within(f, z, value, margin):
    """Exactly |f(z) - value| <= margin."""
    diff = f.value(z) - Fraction(value)
    return (diff - Fraction(margin)).sign() <= 0 <= (diff + Fraction(margin)).sign()


class TestErrorBound:
    @settings(max_examples=300, deadline=None)
    @given(forms, st.data())
    def test_endpoint_value_within_bound(self, f, data):
        # An endpoint: Python ints, rounded to floats inside np.dot.
        z = tuple(data.draw(st.lists(coordinate, min_size=f.rank, max_size=f.rank)))
        C, W = weights(f)
        assert within(f, z, float(np.dot(C[0], z)), filter_margin(W[0], z))

    @settings(max_examples=300, deadline=None)
    @given(forms, st.data())
    def test_probe_value_within_bound(self, f, data):
        # A probe: a float column, as the walk holds it, its integer point
        # read back from the floats.
        z = data.draw(st.lists(coordinate, min_size=f.rank, max_size=f.rank))
        Z = np.array([z], dtype=float).T
        C, W = weights(f)
        point = tuple(int(x) for x in Z[:, 0])
        assert within(f, point, (C @ Z)[0, 0], filter_margin(W, Z)[0, 0])

    def test_weights_are_the_numpy_formula(self):
        # LinearForm.weights gives the filters the same W, bit for bit, as
        # the numpy formula the witness windows used before it existed.
        for f in built_forms():
            C = np.array([f.floats()])
            W = np.array([f.float_errors()]) + gamma(f.rank + 1) * np.abs(C)
            assert np.array([f.weights()]).tobytes() == W.tobytes()

    def test_errors_are_proven_and_small(self):
        for f in built_forms():
            for c, x, e in zip(f.coeffs, f.floats(), f.float_errors()):
                size = sum(abs(float(q)) * d**0.5 for d, q in c.terms.items())
                assert 0 < e <= 1e-15 * max(1.0, size)
                assert within(LinearForm((c,)), (1,), x, e)


# -- adversarial near-ties ------------------------------------------------------


def near_tie(f, k):
    """An integer v with 0 < f(v) < 1e-9, from a continued-fraction
    convergent p/q of c_k / c_0: v = q e_k - p e_0, up to sign."""
    lo0, hi0 = f.coeffs[0].interval(256)
    lok, hik = f.coeffs[k].interval(256)
    r = ((lok + hik) / 2) / ((lo0 + hi0) / 2)
    p0, q0, p1, q1 = 1, 0, int(r // 1), 1
    x = r - p1
    while q1 < 10**9:
        x = 1 / x
        a = int(x // 1)
        x -= a
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
    v = [0] * f.rank
    v[0], v[k] = -p1, q1
    s = f.value(tuple(v)).sign()
    v = tuple(s * x for x in v)
    assert f.value(v).sign() == 1 and (f.value(v) - Fraction(1, 10**9)).sign() == -1
    return v


def plus(a, b, k=1):
    return tuple(x + k * y for x, y in zip(a, b))


def windows(M, i, z0, v):
    """Windows of order i that pass within f(v) of z0; other orders open."""
    free = [(None, None)] * M.n
    cases = [
        (plus(z0, v, -1), None),     # z0 inside by f(v)
        (plus(z0, v), None),         # z0 outside by f(v)
        (None, plus(z0, v)),         # inside
        (None, plus(z0, v, -1)),     # outside
        (plus(z0, v, -1), plus(z0, v)),      # z0 the only point nearby
        (plus(z0, v), plus(z0, v, 3)),       # no point nearby
    ]
    for bounds in cases:
        yield IntervalConstraint(tuple(free[:i] + [bounds] + free[i + 1:]))


NEAR_TIE_CASES = [
    (m, i, k, z0)
    for m, box in ((2, 4), (3, 3), (4, 2))
    for i in range(m - 1)
    for k in sorted({1, m - 1})
    for z0 in [(0,) * m, (1,) + (-1,) * (m - 1), (box,) * m]
]


class TestNearTies:
    @pytest.mark.parametrize("m, i, k, z0", NEAR_TIE_CASES)
    def test_kernel_matches_per_point_scan(self, m, i, k, z0):
        M = host(m)
        box = {2: 4, 3: 3, 4: 2}[m]
        v = near_tie(M.orders[i].leading, k)
        for n, cons in enumerate(windows(M, i, z0, v)):
            ref = next((z for z in iter_box(m, box) if satisfies(M, cons, z)), None)
            assert first_satisfying(M, cons, box) == ref
            if n == 4:  # a window of width 2 f(v): z0 and no other point
                assert ref == z0

    @pytest.mark.parametrize("m, i, k, z0", NEAR_TIE_CASES[::3])
    def test_line_walk_point_satisfies(self, m, i, k, z0):
        M = host(m)
        v = near_tie(M.orders[i].leading, k)
        for n, cons in enumerate(windows(M, i, z0, v)):
            if n == 5:  # empty near z0; the walk would need ~1e9 probes
                continue
            res = find_witness(M, cons, probe_budget=2000)
            assert satisfies(M, cons, res.point)
            if n == 4:  # the walk's first probe is z0, right at both ends
                assert (res.point, res.probes, res.backend) == (z0, 1, "line")


# -- the filtered sign of LinearForm.sign_at and OrderSpec.compare --------------


def convergents(d, count):
    """The first count continued-fraction convergents (p, q) of sqrt(d), d
    not a square: p - q sqrt(d) is about 1 / (2 q sqrt(d)) in size."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    p0, q0, p1, q1 = 1, 0, a0, 1
    out = [(p1, q1)]
    while len(out) < count:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((p1, q1))
    return out


def counted_signs(monkeypatch):
    """Count the exact FieldScalar.sign calls from here on."""
    calls = []
    exact = FieldScalar.sign

    def sign(self):
        calls.append(self)
        return exact(self)

    monkeypatch.setattr(FieldScalar, "sign", sign)
    return calls


def exact_compare(o, x, y):
    """OrderSpec.compare without the filter: lexicographic exact signs."""
    diff = tuple(a - b for a, b in zip(x, y))
    s = next((s for s in (f.value(diff).sign() for f in o.forms) if s), 0)
    return Cmp(s)


class TestSignAt:
    @settings(max_examples=300, deadline=None)
    @given(forms, st.data())
    def test_matches_exact_sign(self, f, data):
        z = tuple(data.draw(st.lists(coordinate, min_size=f.rank, max_size=f.rank)))
        assert f.sign_at(z) == f.value(z).sign()

    @settings(max_examples=200, deadline=None)
    @given(built, st.data())
    def test_matches_exact_sign_near_ties(self, f, data):
        # A multiple of a continued-fraction near-tie, plus a small offset.
        k = data.draw(st.integers(1, f.rank - 1))
        v = near_tie(f, k)
        scale = data.draw(st.integers(-(10**6), 10**6))
        shift = data.draw(st.lists(st.integers(-1, 1), min_size=f.rank, max_size=f.rank))
        z = tuple(scale * x + s for x, s in zip(v, shift))
        assert f.sign_at(z) == f.value(z).sign()

    def test_zero_vector(self, monkeypatch):
        calls = counted_signs(monkeypatch)
        for f in built_forms():
            assert f.sign_at((0,) * f.rank) == 0
        assert len(calls) == len(built_forms())

    @pytest.mark.parametrize("d", [2, 3])
    def test_convergents_of_square_roots(self, d, monkeypatch):
        # (p, -q) is a near-tie of the form (1, sqrt d); the filter decides
        # the small convergents and goes exact on the large ones.
        f = LinearForm((RV.one, RV.sqrt(d)))
        calls = counted_signs(monkeypatch)
        exact = []
        for p, q in convergents(d, 60):
            for z in [(p, -q), (-p, q), (p + 1, -q), (p, -q - 1)]:
                before = len(calls)
                s = f.sign_at(z)
                if len(calls) > before:
                    exact.append(q)
                assert s == f.value(z).sign()
        assert exact and min(exact) > 10**6

    def test_beyond_two_to_the_53(self):
        f = LinearForm((RV.one, RV.sqrt(2), RV.sqrt(3)))
        for p, q in convergents(2, 40)[25:]:
            for z in [(p, -q, 0), (2**53 + 1, -(2**60), 2**54 - 3), (p * 2**60, -q * 2**60, 1)]:
                assert f.sign_at(z) == f.value(z).sign()

    def test_overflow_takes_the_exact_route(self):
        f = LinearForm((RV.one, RV.sqrt(2)))
        big = 10**309
        for z in [(big, 0), (big, -big), (-big, 1), (1, big)]:
            with pytest.raises(OverflowError):
                float(max(z, key=abs))
            assert f.sign_at(z) == f.value(z).sign()
        assert f.sign_at((big, -big)) == -1
        # Floats of 1e308 overflow no conversion, but their partial sum
        # does: 1e308 + 1e308 is inf, though the exact value is negative.
        wide = LinearForm((RV.rational(10**300),) * 4)
        z = (10**8, 10**8, -(15 * 10**7), -(15 * 10**7))
        assert wide.sign_at(z) == wide.value(z).sign() == -1

    def test_rational_tie(self, monkeypatch):
        # (1/3, 1/2) vanishes at (3, -2); (sqrt 2, sqrt 2) at (5, -5).
        calls = counted_signs(monkeypatch)
        tie = LinearForm((RV.rational(Fraction(1, 3)), RV.rational(Fraction(1, 2))))
        assert tie.sign_at((3, -2)) == 0
        assert tie.sign_at((3 * 10**20, -2 * 10**20)) == 0
        assert LinearForm((RV.sqrt(2), RV.sqrt(2))).sign_at((5, -5)) == 0
        assert len(calls) == 3
        assert tie.sign_at((3, -1)) == 1 and len(calls) == 3

    @settings(max_examples=200, deadline=None)
    @given(forms, st.data())
    def test_compare_on_recursive_orders(self, lead, data):
        # Up to two more forms after lead, then the coordinate forms, which
        # make the order total.  The differences y - x include exact ties of
        # lead (its kernel) and near-ties (near_tie).
        m = lead.rank
        more = data.draw(st.lists(drawn_forms(m), max_size=2))
        unit = [LinearForm(tuple(RV.one if i == j else RV.zero for i in range(m)))
                for j in range(m)]
        o = OrderSpec(m, (lead, *more, *unit))
        vector = st.lists(coordinate, min_size=m, max_size=m).map(tuple)
        x = data.draw(vector)
        offsets = [(0,) * m, data.draw(vector)]
        rows = radicand_rows(lead.coeffs)
        scale = math.lcm(*(q.denominator for row in rows for q in row))
        kernel = int_kernel([[int(q * scale) for q in row] for row in rows])
        k = data.draw(st.integers(1, 10**6))
        offsets += [tuple(k * a for a in v) for v in kernel[:1]]
        if lead in built_forms():
            offsets.append(near_tie(lead, m - 1))
        for off in offsets:
            y = plus(x, off, -1)
            assert o.compare(x, y) == exact_compare(o, x, y)
            assert o.compare(y, x) == exact_compare(o, y, x)
