from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiorder.field import (
    BasisMismatchError,
    FieldScalar,
    PrecisionExceededError,
    RadicalBasis,
    fs_det,
    fs_row_dependency,
    precision_scope,
    q_linear_independent,
    radicand_rows,
    rational_rank,
)

from oracles import fs_det_elimination

B23 = RadicalBasis((2, 3))
B235 = RadicalBasis((2, 3, 5))


def scalar(terms):
    return B23.scalar({d: Fraction(q) for d, q in terms.items()})


class TestBasics:
    def test_add_cancels_radical(self):
        a = scalar({1: 1, 2: 1})  # 1 + sqrt(2)
        b = scalar({1: 2, 2: -1})  # 2 - sqrt(2)
        assert (a + b) == scalar({1: 3})

    def test_add_identity(self):
        x = scalar({1: Fraction(7, 3), 6: -2})
        assert (x + B23.zero) == x

    def test_add_coefficientwise(self):
        half_rt6 = scalar({6: Fraction(1, 2)})
        assert (half_rt6 + half_rt6) == scalar({6: 1})

    def test_mul_radical_merge(self):
        assert B23.sqrt(2) * B23.sqrt(3) == B23.sqrt(6)

    def test_mul_square(self):
        assert B23.sqrt(2) * B23.sqrt(2) == scalar({1: 2})

    def test_difference_of_squares(self):
        a = scalar({1: 1, 2: 1})
        b = scalar({1: 1, 2: -1})
        assert a * b == scalar({1: -1})

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatchError):
            B23.one + B235.one

    def test_bad_radicand_rejected(self):
        with pytest.raises(ValueError):
            B23.scalar({5: Fraction(1)})
        with pytest.raises(ValueError):
            B23.scalar({4: Fraction(1)})


class TestSign:
    def test_sign_one_minus_rt2(self):
        assert scalar({1: 1, 2: -1}).sign() == -1

    def test_sign_zero(self):
        assert B23.zero.sign() == 0

    def test_sign_five_minus_two_rt6(self):
        # Oracle: squaring both sides rationally, 5^2 = 25 > 24 = (2*sqrt6)^2.
        assert 5**2 > 2**2 * 6
        assert scalar({1: 5, 6: -2}).sign() == 1

    def test_sign_tight_value(self):
        # sqrt(2) + sqrt(3) - sqrt(5) is small but positive:
        # (sqrt2+sqrt3)^2 = 5 + 2*sqrt6 > 5.
        v = B235.sqrt(2) + B235.sqrt(3) - B235.sqrt(5)
        assert v.sign() == 1

    def test_precision_cap_error(self):
        v = B23.sqrt(2)
        with pytest.raises(PrecisionExceededError):
            with precision_scope(32):
                v.sign()

    def test_precision_scope_restored_on_raise(self):
        v = B23.sqrt(2)
        with pytest.raises(PrecisionExceededError):
            with precision_scope(32):
                v.sign()
        assert v.sign() == 1


class TestIsolate:
    def test_zero(self):
        assert B23.zero.isolate() == (0, 0)

    def test_rational(self):
        assert B23.rational(Fraction(-3, 7)).isolate() == (Fraction(-3, 7),) * 2

    def test_irrational_excludes_zero(self):
        # The enclosure is far tighter than to_float()'s own rounding error.
        v = B235.sqrt(2) + B235.sqrt(3) - B235.sqrt(5)
        lo, hi = v.isolate()
        assert 0 < lo and lo - 1e-12 <= v.to_float() <= hi + 1e-12
        lo, hi = (-v).isolate()
        assert hi < 0 and lo - 1e-12 <= (-v).to_float() <= hi + 1e-12

    def test_cap_error(self):
        with pytest.raises(PrecisionExceededError):
            with precision_scope(32):
                B23.sqrt(2).isolate()


class TestQLinearIndependence:
    def test_one_and_rt2(self):
        assert q_linear_independent([B23.one, B23.sqrt(2)])

    def test_explicit_dependency(self):
        assert not q_linear_independent(
            [B23.one, B23.sqrt(2), B23.one + B23.sqrt(2)]
        )

    def test_three_radicals(self):
        # Oracle: the 3x3 rational coefficient matrix is a permutation of
        # the identity, hence rank 3.
        vals = [B23.sqrt(2), B23.sqrt(3), B23.sqrt(6)]
        assert rational_rank(radicand_rows(vals)) == 3
        assert q_linear_independent(vals)


class TestInverse:
    @pytest.mark.parametrize(
        "terms",
        [
            {1: 2},
            {2: 1},
            {1: 1, 2: 1},
            {1: 1, 2: Fraction(1, 2), 3: -1, 6: Fraction(2, 7)},
        ],
    )
    def test_inverse_roundtrip(self, terms):
        v = scalar(terms)
        assert v * v.inverse() == B23.one

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            B23.zero.inverse()


class TestDeterminants:
    def test_two_routes_agree(self):
        rows = [
            (B23.one, B23.sqrt(2), B23.sqrt(3)),
            (B23.sqrt(3), B23.one, B23.sqrt(2)),
            (B23.sqrt(6), B23.sqrt(2), B23.one),
        ]
        assert fs_det(rows) == fs_det_elimination(rows)

    def test_dependency_detection(self):
        rows = [
            (B23.one, B23.sqrt(2)),
            (B23.sqrt(2), B23.scalar({1: 2})),
        ]
        dep = fs_row_dependency(rows)
        assert dep is not None
        k, coeffs = dep
        assert k == 1
        assert coeffs[0] == B23.sqrt(2)

    def test_independent_rows(self):
        rows = [(B23.one, B23.sqrt(2)), (B23.sqrt(3), B23.one)]
        assert fs_row_dependency(rows) is None


def scalars(basis=B23, radicands=(1, 2, 3, 6)):
    coeff = st.fractions(
        min_value=-8, max_value=8, max_denominator=6
    )
    return st.fixed_dictionaries(
        {}, optional={d: coeff for d in radicands}
    ).map(lambda terms: basis.scalar(terms))


class TestAlgebraicProperties:
    @settings(max_examples=60, deadline=None)
    @given(scalars(), scalars())
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(scalars(), scalars(), scalars())
    def test_associativity_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(scalars(), scalars())
    def test_sign_multiplicative(self, a, b):
        assert a.sign() * b.sign() == (a * b).sign()

    @settings(max_examples=60, deadline=None)
    @given(scalars())
    def test_zero_iff_sign_zero(self, a):
        assert a.is_zero() == (a.sign() == 0) == (not a.terms)

    @settings(max_examples=60, deadline=None)
    @given(scalars())
    def test_sign_agrees_with_256bit_interval(self, a):
        lo, hi = a.interval(256)
        s = a.sign()
        if s > 0:
            assert hi > 0
        elif s < 0:
            assert lo < 0
        else:
            assert lo <= 0 <= hi

    @settings(max_examples=40, deadline=None)
    @given(scalars())
    def test_json_roundtrip(self, a):
        assert FieldScalar.from_json(a.to_json()) == a
