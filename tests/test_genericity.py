import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiorder.field import RadicalBasis
from multiorder.genericity import (
    IntervalConstraint,
    MalformedConstraintError,
    MultiOrder,
    NoDirectionError,
    UnverifiedMatrixError,
    extension_property_test,
    find_witness,
    first_satisfying,
    from_matrix,
    satisfies,
    witness,
    witness_brute,
)
from multiorder.lattice import iter_box
from multiorder.matrix import OrderMatrix, build
from multiorder.orders import Cmp, LinearForm, OrderSpec

B = RadicalBasis((2,))


@pytest.fixture(scope="module")
def m2():
    return from_matrix(build(2, 0))


@pytest.fixture(scope="module")
def m3():
    return from_matrix(build(3, 0))


@pytest.fixture(scope="module")
def m4():
    return from_matrix(build(4, 0))


def random_finite_constraint(M, rng, spread=6):
    bounds = []
    for o in M.orders:
        while True:
            x = tuple(rng.randint(-spread, spread) for _ in range(M.rank))
            y = tuple(rng.randint(-spread, spread) for _ in range(M.rank))
            c = o.compare(x, y)
            if c != 0:
                break
        bounds.append((x, y) if int(c) < 0 else (y, x))
    return IntervalConstraint(tuple(bounds))


class TestFromMatrix:
    def test_sqrt2_instance(self, m2):
        assert m2.n == 1
        b = m2.orders[0].leading.basis
        assert m2.orders[0].leading.coeffs == (b.one, b.sqrt(2))
        assert m2.direction.coeffs == (-b.sqrt(2), b.one)

    def test_counts(self, m3, m4):
        assert (m3.rank, m3.n) == (3, 2)
        assert (m4.rank, m4.n) == (4, 3)

    def test_unverified_rejected(self):
        A = build(2, 0)
        bare = OrderMatrix(A.m, A.rows, A.basis, verified=False)
        with pytest.raises(UnverifiedMatrixError):
            from_matrix(bare)

    def test_json_roundtrip(self, m3):
        back = MultiOrder.from_json(m3.to_json())
        assert back.rank == m3.rank
        assert back.orders == m3.orders


class TestWitnessBrute:
    def test_unit_interval(self, m2):
        cons = IntervalConstraint((((0, 0), (1, 1)),))
        z = witness_brute(m2, cons, 2)
        assert z is not None
        assert satisfies(m2, cons, z)

    def test_semi_infinite(self, m2):
        cons = IntervalConstraint((((0, 0), None),))
        z = witness_brute(m2, cons, 2)
        assert satisfies(m2, cons, z)

    def test_brute_is_first_in_canonical_order(self, m2):
        # Oracle: scan the canonical enumeration independently.
        from multiorder.lattice import iter_box

        cons = IntervalConstraint((((0, 0), (1, 1)),))
        expected = next(p for p in iter_box(2, 2) if satisfies(m2, cons, p))
        assert witness_brute(m2, cons, 2) == expected

    def test_not_found_in_box(self):
        # Z^1 with the usual order: nothing strictly between 0 and 1.
        o = OrderSpec(1, (LinearForm((B.one,)),))
        M = MultiOrder(1, (o,))
        cons = IntervalConstraint((((0,), (1,)),))
        assert witness_brute(M, cons, 10) is None

    def test_malformed_rejected(self, m2):
        with pytest.raises(MalformedConstraintError):
            witness_brute(m2, IntervalConstraint((((1, 1), (0, 0)),)), 2)


class TestWitness:
    def test_valid_on_unit_interval(self, m2):
        cons = IntervalConstraint((((0, 0), (1, 1)),))
        z = witness(m2, cons)
        assert satisfies(m2, cons, z)

    def test_all_infinite_gives_origin(self, m3):
        cons = IntervalConstraint((((None, None),) * m3.n))
        assert witness(m3, cons) == (0, 0, 0)

    def test_requires_direction(self):
        o = OrderSpec(1, (LinearForm((B.one,)),))
        M = MultiOrder(1, (o,))
        with pytest.raises(NoDirectionError):
            witness(M, IntervalConstraint((((0,), None),)))

    def test_deterministic(self, m3):
        rng = random.Random(11)
        cons = random_finite_constraint(m3, rng)
        assert find_witness(m3, cons) == find_witness(m3, cons)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_constraints_m3(self, m3, seed):
        rng = random.Random(seed)
        for _ in range(20):
            cons = random_finite_constraint(m3, rng)
            assert satisfies(m3, cons, witness(m3, cons))

    def test_monotone_under_relaxation(self, m3):
        rng = random.Random(5)
        for _ in range(10):
            cons = random_finite_constraint(m3, rng)
            z = witness(m3, cons)
            relaxed = IntervalConstraint(
                tuple((lo, None) for lo, _ in cons.bounds)
            )
            assert satisfies(m3, relaxed, z)

    def test_backend_agreement(self, m3):
        rng = random.Random(17)
        for _ in range(20):
            cons = random_finite_constraint(m3, rng, spread=4)
            brute = witness_brute(m3, cons, 12)
            if brute is not None:
                assert satisfies(m3, cons, witness(m3, cons))


class TestExtensionProperty:
    def test_positive_direction_m3(self, m3):
        rep = extension_property_test(m3, k=3, trials=50, box=10)
        assert rep.passed

    def test_discrete_z1_fails(self):
        o = OrderSpec(1, (LinearForm((B.one,)),))
        M = MultiOrder(1, (o,))
        rep = extension_property_test(M, k=3, trials=40, box=5)
        assert rep.failures

    def test_negative_direction_square(self):
        # two dense orders on Z^2 cannot be generic
        b = RadicalBasis((2, 3))
        o1 = OrderSpec(2, (LinearForm((b.one, b.sqrt(2))),))
        o2 = OrderSpec(2, (LinearForm((b.sqrt(3), b.one)),))
        M = MultiOrder(2, (o1, o2))
        rep = extension_property_test(M, k=4, trials=60, box=6)
        assert rep.failures

    def test_dropping_order_stays_generic(self, m4):
        for i in range(m4.n):
            rep = extension_property_test(m4.drop(i), k=3, trials=20, box=8)
            assert rep.passed


# -- the box-scan kernel against a per-point reference -------------------------

RB = RadicalBasis((2, 3, 5))
small = st.integers(-3, 3)


@st.composite
def scan_orders(draw, m):
    """A dense order (distinct radicands, so Q-independent), or a recursive
    one: a rational leading form, whose last coefficient may be zero, with a
    dense tie-breaker."""
    radicals = draw(st.permutations((1, 2, 3, 5)))[:m]
    tie = LinearForm(tuple(
        RB.rational(draw(small.filter(bool))) if d == 1
        else RB.sqrt(d, Fraction(draw(small.filter(bool)), 2))
        for d in radicals
    ))
    if m == 1 or draw(st.booleans()):
        return OrderSpec(m, (tie,))
    lead = draw(st.lists(small, min_size=m, max_size=m).filter(any))
    return OrderSpec(m, (LinearForm(tuple(RB.rational(x) for x in lead)), tie))


@st.composite
def scan_cases(draw):
    m = draw(st.integers(1, 3))
    orders = [draw(scan_orders(m)) for _ in range(draw(st.integers(1, 3)))]
    point = st.none() | st.tuples(*[st.integers(-5, 5)] * m)
    bounds = []
    for o in orders:
        lo, hi = draw(point), draw(point)
        if lo is not None and hi is not None and o.compare(lo, hi) == Cmp.GREATER:
            lo, hi = hi, lo
        bounds.append((lo, hi))
    M = MultiOrder(m, tuple(orders))
    return M, IntervalConstraint(tuple(bounds)), draw(st.integers(0, 4))


class TestBoxScanOracle:
    @settings(max_examples=150, deadline=None)
    @given(scan_cases())
    def test_first_exact_point_matches_per_point_scan(self, case):
        M, cons, box = case
        ref = next((z for z in iter_box(M.rank, box) if satisfies(M, cons, z)), None)
        assert first_satisfying(M, cons, box) == ref
