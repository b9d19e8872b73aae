import itertools
import random

import pytest

from multiorder.finite import (
    Embedding,
    FiniteNOrder,
    NotAnEmbeddingError,
    amalgamate,
    embed,
    from_pattern,
    induced,
    pattern_of,
)
from multiorder.genericity import WitnessResult, from_matrix
from multiorder.matrix import build


@pytest.fixture(scope="module")
def m3():
    return from_matrix(build(3, 0))


@pytest.fixture(scope="module")
def m4():
    return from_matrix(build(4, 0))


def random_norder(rng, k, n):
    orders = [tuple(range(k))] + [
        tuple(rng.sample(range(k), k)) for _ in range(n - 1)
    ]
    return FiniteNOrder(k, n, tuple(orders))


def random_extension(rng, a, extra):
    """Extend a by `extra` new points dropped into random gaps per order;
    returns (b, f) with f an embedding of a into b."""
    k = a.k + extra
    new_labels = list(range(a.k, k))
    orders = []
    for i in range(a.n):
        seq = list(a.orders[i])
        for x in new_labels:
            seq.insert(rng.randint(0, len(seq)), x)
        orders.append(tuple(seq))
    b = FiniteNOrder(k, a.n, tuple(orders))
    return b, tuple(range(a.k))


class TestPattern:
    def test_cyclic_example(self):
        s = FiniteNOrder(3, 2, ((0, 1, 2), (1, 2, 0)))
        assert pattern_of(s) == (2, 3, 1)

    def test_identity(self):
        s = FiniteNOrder(3, 2, ((0, 1, 2), (0, 1, 2)))
        assert pattern_of(s) == (1, 2, 3)

    def test_reversal(self):
        s = FiniteNOrder(3, 2, ((0, 1, 2), (2, 1, 0)))
        assert pattern_of(s) == (3, 2, 1)

    def test_needs_two_orders(self):
        with pytest.raises(ValueError):
            pattern_of(FiniteNOrder(2, 1, ((0, 1),)))

    @pytest.mark.parametrize("k", range(1, 7))
    def test_roundtrip_all_sizes(self, k):
        for perm in itertools.permutations(range(1, k + 1)):
            assert pattern_of(from_pattern(perm)) == perm

    def test_normalization(self):
        s = FiniteNOrder(3, 2, ((2, 0, 1), (1, 2, 0)))
        t = s.normalize()
        assert t.orders[0] == (0, 1, 2)
        assert s.isomorphic(t)


class TestResultObjects:
    def test_no_instance_dict(self):
        # Slotted: an instance is about half the size of one with a __dict__.
        for obj in (
            FiniteNOrder(2, 1, ((1, 0),)),
            Embedding(((0, 0),)),
            WitnessResult((0, 0), 0, "line"),
        ):
            assert not hasattr(obj, "__dict__")

    def test_orders_stored_as_tuples(self):
        s = FiniteNOrder(3, 2, [[0, 1, 2], [2, 0, 1]])
        assert s.orders == ((0, 1, 2), (2, 0, 1))
        assert all(type(o) is tuple for o in s.orders)
        orders = ((0, 1), (1, 0))
        assert FiniteNOrder(2, 2, orders).orders is orders


class TestInduced:
    def test_two_points(self, m3):
        s = induced(m3, [(0, 0, 0), (1, 0, 0)])
        assert (s.k, s.n) == (2, 2)

    def test_duplicates_rejected(self, m3):
        with pytest.raises(ValueError):
            induced(m3, [(0, 0, 0), (0, 0, 0)])

    def test_roundtrip_with_embed(self, m3):
        rng = random.Random(2)
        for _ in range(5):
            s = random_norder(rng, 4, 2)
            e = embed(s, m3)
            assert induced(m3, list(e.points)).isomorphic(s)


class TestEmbed:
    def test_singleton_maps_to_origin(self, m3):
        s = FiniteNOrder(1, 2, ((0,), (0,)))
        assert embed(s, m3).points == ((0, 0, 0),)

    def test_all_size3_patterns(self, m3):
        for perm in itertools.permutations((1, 2, 3)):
            s = from_pattern(perm)
            e = embed(s, m3)
            assert pattern_of(induced(m3, list(e.points))) == perm

    def test_three_orders_into_z4(self, m4):
        rng = random.Random(9)
        for _ in range(5):
            s = random_norder(rng, 5, 3)
            e = embed(s, m4)
            assert induced(m4, list(e.points)).isomorphic(s)

    def test_points_distinct(self, m3):
        rng = random.Random(4)
        s = random_norder(rng, 5, 2)
        e = embed(s, m3)
        assert len(set(e.points)) == s.k


class TestAmalgamate:
    def test_trivial(self):
        a = FiniteNOrder(2, 2, ((0, 1), (1, 0)))
        c, g1, g2 = amalgamate(a, a, a, (0, 1), (0, 1))
        assert c.isomorphic(a)
        assert g1 == g2 == (0, 1)

    def test_opposite_sides_make_chain(self):
        a = FiniteNOrder(1, 1, ((0,),))
        b1 = FiniteNOrder(2, 1, ((0, 1),))
        b2 = FiniteNOrder(2, 1, ((1, 0),))
        c, g1, g2 = amalgamate(a, b1, b2, (0,), (0,))
        assert c.k == 3
        assert c.orders[0].index(g2[1]) < c.orders[0].index(g1[0])
        assert c.orders[0].index(g1[0]) < c.orders[0].index(g1[1])

    def test_same_gap_b1_first(self):
        a = FiniteNOrder(2, 2, ((0, 1), (0, 1)))
        b1, f1 = FiniteNOrder(3, 2, ((0, 2, 1), (0, 2, 1))), (0, 1)
        b2, f2 = FiniteNOrder(3, 2, ((0, 2, 1), (0, 2, 1))), (0, 1)
        c, g1, g2 = amalgamate(a, b1, b2, f1, f2)
        assert c.k == 4
        for i in range(2):
            assert c.orders[i].index(g1[2]) < c.orders[i].index(g2[2])

    def test_not_an_embedding(self):
        a = FiniteNOrder(2, 1, ((0, 1),))
        b = FiniteNOrder(2, 1, ((1, 0),))
        with pytest.raises(NotAnEmbeddingError):
            amalgamate(a, b, b, (0, 1), (1, 0))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_strong_amalgamation_properties(self, n):
        rng = random.Random(40 + n)
        for _ in range(20):
            a = random_norder(rng, rng.randint(1, 3), n)
            b1, f1 = random_extension(rng, a, rng.randint(1, 3))
            b2, f2 = random_extension(rng, a, rng.randint(1, 3))
            c, g1, g2 = amalgamate(a, b1, b2, f1, f2)
            assert c.k == b1.k + b2.k - a.k
            for lab in range(a.k):
                assert g1[f1[lab]] == g2[f2[lab]]
            for i in range(n):
                r1 = [c.orders[i].index(g1[x]) for x in b1.orders[i]]
                r2 = [c.orders[i].index(g2[x]) for x in b2.orders[i]]
                assert r1 == sorted(r1)
                assert r2 == sorted(r2)
