import random

import pytest

from multiorder.field import RadicalBasis
from multiorder.orders import (
    BoundExhaustedError,
    Cmp,
    Cone,
    LinearForm,
    NotDenseError,
    NotTotalError,
    OrderSpec,
    RankMismatchError,
)

B = RadicalBasis((2, 3))


@pytest.fixture
def dense():
    return OrderSpec(2, (LinearForm((B.one, B.sqrt(2))),))


@pytest.fixture
def recursive():
    # leading form (1, 1) with ties broken by (0, 1)
    return OrderSpec(
        2, (LinearForm((B.one, B.one)), LinearForm((B.zero, B.one)))
    )


class TestConstruction:
    def test_totality_rejects_single_rational_form(self):
        # (1, 1) alone annihilates (1, -1)
        with pytest.raises(NotTotalError):
            OrderSpec(2, (LinearForm((B.one, B.one)),))

    def test_zero_form_rejected(self):
        with pytest.raises(ValueError):
            LinearForm((B.zero, B.zero))

    def test_dense_detection(self, dense, recursive):
        assert dense.is_dense()
        assert not recursive.is_dense()

    def test_json_roundtrip(self, recursive):
        assert OrderSpec.from_json(recursive.to_json()) == recursive


class TestCompare:
    def test_compare_example(self, dense):
        assert dense.compare((1, 0), (0, 1)) == Cmp.LESS

    def test_equal(self, dense):
        assert dense.compare((3, -4), (3, -4)) == Cmp.EQUAL

    def test_recursive_tiebreak(self, recursive):
        # tie on the first form, 0 < 1 on the second
        assert recursive.compare((1, 0), (0, 1)) == Cmp.LESS

    def test_rank_mismatch(self, dense):
        with pytest.raises(RankMismatchError):
            dense.compare((1, 0, 0), (0, 1, 0))


class TestAxioms:
    @pytest.mark.parametrize("fixture", ["dense", "recursive"])
    def test_trichotomy_transitivity(self, fixture, request):
        o = request.getfixturevalue(fixture)
        rng = random.Random(7)
        pts = [tuple(rng.randint(-30, 30) for _ in range(2)) for _ in range(40)]
        for x in pts[:15]:
            for y in pts[:15]:
                c = o.compare(x, y)
                assert (c == Cmp.EQUAL) == (x == y)
                assert int(c) == -int(o.compare(y, x))
        for _ in range(300):
            x, y, z = rng.sample(pts, 3)
            if o.compare(x, y) == Cmp.LESS and o.compare(y, z) == Cmp.LESS:
                assert o.compare(x, z) == Cmp.LESS

    def test_invariance_specific_shift(self, dense):
        assert dense.compare((1, 0), (0, 1)) == dense.compare((6, 5), (5, 6))


class TestCone:
    def test_membership_examples(self, dense):
        assert dense.cone_membership((1, 1)) == Cone.POSITIVE
        assert dense.cone_membership((0, 0)) == Cone.ZERO
        assert dense.cone_membership((-1, 0)) == Cone.NEGATIVE

    def test_partition(self, dense, recursive):
        rng = random.Random(3)
        for o in (dense, recursive):
            for _ in range(200):
                g = tuple(rng.randint(-20, 20) for _ in range(2))
                mem = o.cone_membership(g)
                neg = o.cone_membership(tuple(-x for x in g))
                assert (mem == Cone.ZERO) == (g == (0, 0))
                assert int(mem) == -int(neg)

    def test_positive_closed_under_addition(self, dense, recursive):
        rng = random.Random(4)
        for o in (dense, recursive):
            pos = []
            while len(pos) < 30:
                g = tuple(rng.randint(-10, 10) for _ in range(2))
                if o.cone_membership(g) == Cone.POSITIVE:
                    pos.append(g)
            for a in pos[:10]:
                for b in pos[:10]:
                    s = (a[0] + b[0], a[1] + b[1])
                    assert o.cone_membership(s) == Cone.POSITIVE

    def test_split_examples(self, dense):
        for p in [(1, 1), (2, 2), (3, 0)]:
            q, r = dense.cone_split(p, 4)
            assert dense.cone_membership(q) == Cone.POSITIVE
            assert dense.cone_membership(r) == Cone.POSITIVE
            assert (q[0] + r[0], q[1] + r[1]) == p

    def test_split_requires_dense(self, recursive):
        with pytest.raises(NotDenseError):
            recursive.cone_split((1, 1), 4)

    def test_split_bound_exhaustion(self, dense):
        # bound 0 only offers the zero vector
        with pytest.raises(BoundExhaustedError):
            dense.cone_split((1, 1), 0)


class TestDegenerateKernel:
    def test_rational_form_has_nonzero_kernel(self):
        # a single form with Q-dependent components misses some z != 0
        from multiorder.refuter import kernel_lattice

        basis = kernel_lattice(LinearForm((B.one, B.one)), 2)
        (z,) = basis
        assert z != (0, 0)
        assert z[0] + z[1] == 0
