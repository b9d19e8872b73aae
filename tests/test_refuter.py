import hashlib
import json
import random
from fractions import Fraction

import pytest

from multiorder.field import RadicalBasis
from multiorder.genericity import IntervalConstraint
from multiorder.lattice import same_lattice
from multiorder.orders import LinearForm, OrderSpec
from multiorder.refuter import (
    TAG_DEPENDENT,
    TAG_DISCRETE_BASE,
    TAG_RATIONAL_KERNEL,
    TAG_SMALL_VOLUME,
    Certificate,
    _inverse_intervals,
    MalformedCertificateError,
    NoCertificateFound,
    kernel_lattice,
    refute,
    refute_small_volume,
    scan_box,
    verify_certificate,
)
from multiorder.serialize import certificate_from_json, certificate_to_json

from oracles import fs_det_elimination

B = RadicalBasis((2, 3, 5))
ONE, S2, S3, S5 = B.one, B.sqrt(2), B.sqrt(3), B.sqrt(5)


def dense(coeffs):
    return OrderSpec(len(coeffs), (LinearForm(tuple(coeffs)),))


def usual_z1():
    return OrderSpec(1, (LinearForm((ONE,)),))


def rational_lead_z2():
    return OrderSpec(2, (LinearForm((ONE, ONE)), LinearForm((B.zero, ONE))))


def pinned_dependent():
    # m = 3 with a negative coefficient: c3 = 2 c1 - sqrt5 c2
    a, b = (ONE, S2, S5), (S3, ONE, S2)
    c = tuple(x * B.rational(2) - y * S5 for x, y in zip(a, b))
    return [dense(a), dense(b), dense(c)]


# -- random generators per lemma path ---------------------------------------


def random_dense_form(rng, m, radicals):
    while True:
        coeffs = []
        for j in range(m):
            d = radicals[j % len(radicals)]
            q = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            r = Fraction(rng.randint(-3, 3))
            coeffs.append(B.scalar({d: q, 1: r}) if j else B.scalar({1: 1 + abs(r)}))
        try:
            form = LinearForm(tuple(coeffs))
        except ValueError:
            continue
        from multiorder.field import q_linear_independent

        if q_linear_independent(list(coeffs)):
            return form


def gen_dependent(rng, m):
    base = [dense(random_dense_form(rng, m, (2, 3, 5)[: m - 1]).coeffs)]
    mult = B.scalar({rng.choice((2, 3)): Fraction(rng.randint(1, 3))})
    last = LinearForm(tuple(mult * c for c in base[0].forms[0].coeffs))
    orders = base + [OrderSpec(m, (last,))]
    rng.shuffle(orders)
    return orders


def gen_rational_kernel(rng, m):
    lead = [Fraction(rng.randint(1, 3)) for _ in range(m)]
    tie = random_dense_form(rng, m, (2, 3, 5)[: m - 1])
    o1 = OrderSpec(m, (LinearForm(tuple(B.rational(q) for q in lead)), tie))
    rest = [dense(random_dense_form(rng, m, (2, 3, 5)[: m - 1]).coeffs) for _ in range(m - 1)]
    return [o1] + rest


def gen_small_volume(rng, m):
    # rows over distinct radicals with random rational scales; retried until
    # they are independent over the field (checked by the same exact routine
    # the dispatcher uses, so the test pins the SmallVolume path)
    from multiorder.field import fs_row_dependency, q_linear_independent

    radical_rows = {2: [(2,), (3,), (5,), (6,)], 3: [(2, 3), (5, 6), (10, 15)]}[m]
    while True:
        rows = []
        for rads in rng.sample(radical_rows, m):
            coeffs = [B.rational(Fraction(rng.randint(1, 3)))] + [
                B.sqrt(d, Fraction(rng.randint(1, 3), rng.randint(1, 2)))
                for d in rads
            ]
            rows.append(tuple(coeffs[:m]))
        if all(q_linear_independent(list(r)) for r in rows) and (
            fs_row_dependency(rows) is None
        ):
            return [dense(r) for r in rows]


class TestKernelLattice:
    def test_rational_plane(self):
        assert same_lattice(kernel_lattice(LinearForm((ONE, ONE)), 2), [(1, -1)])

    def test_mixed_radical(self):
        c = LinearForm((ONE, S2, ONE + S2))
        assert same_lattice(kernel_lattice(c, 3), [(1, 1, -1)])

    def test_scaled(self):
        c = LinearForm((B.rational(2), B.rational(4)))
        assert same_lattice(kernel_lattice(c, 2), [(2, -1)])

    def test_independent_components_rejected(self):
        with pytest.raises(ValueError):
            kernel_lattice(LinearForm((ONE, S2)), 2)


class TestDispatch:
    def test_discrete_base(self):
        orders = [usual_z1()]
        cert = refute(orders)
        assert cert.lemma_tag == TAG_DISCRETE_BASE
        assert cert.constraints.bounds[0] == ((0,), (1,))
        assert verify_certificate(orders, cert)

    def test_dependent(self):
        orders = [dense((ONE, S2)), dense((S2, B.rational(2)))]
        cert = refute(orders)
        assert cert.lemma_tag == TAG_DEPENDENT
        assert verify_certificate(orders, cert)

    def test_small_volume(self):
        orders = [dense((ONE, S2)), dense((S3, ONE))]
        cert = refute(orders)
        assert cert.lemma_tag == TAG_SMALL_VOLUME
        assert verify_certificate(orders, cert)

    def test_rational_kernel(self):
        orders = [rational_lead_z2(), dense((ONE, S2))]
        cert = refute(orders)
        assert cert.lemma_tag == TAG_RATIONAL_KERNEL
        inner = cert.evidence["inner"]
        assert inner.lemma_tag == TAG_DISCRETE_BASE
        assert verify_certificate(orders, cert)

    def test_reversed_dependency(self):
        orders = [dense((ONE, S2)), dense((-ONE, -S2 * 1))]
        cert = refute(orders)
        assert cert.lemma_tag == TAG_DEPENDENT
        assert cert.evidence["coeffs"][0].sign() < 0
        assert verify_certificate(orders, cert)

    def test_three_orders_sum_dependency(self):
        o1, o2 = dense((ONE, S2)), dense((S3, ONE))
        c3 = LinearForm(
            tuple(a + b for a, b in zip(o1.leading.coeffs, o2.leading.coeffs))
        )
        orders = [o1, o2, OrderSpec(2, (c3,))]
        cert = refute(orders)
        assert cert.lemma_tag == TAG_DEPENDENT
        assert len(cert.evidence["coeffs"]) == 2
        assert verify_certificate(orders, cert)

    def test_pinned_rational_kernel_certificate(self):
        # rational leading form with a rank-2 kernel; the inner certificate
        # is SmallVolume, so the pin covers the inverse enclosure as well
        o0 = OrderSpec(
            3, (LinearForm((ONE, B.rational(2), B.rational(3))), LinearForm((ONE, S2, S3)))
        )
        orders = [o0, dense((ONE, S2, S5)), dense((S3, ONE, S2))]
        cert = refute(orders)
        assert cert.evidence["inner"].lemma_tag == TAG_SMALL_VOLUME
        text = json.dumps(certificate_to_json(cert), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "05b78567aec1248be9df1e2e6a58308dbbd8fef13bc57e716f6e4036151698c9"
        )
        assert verify_certificate(orders, cert)

    @pytest.mark.parametrize(
        "orders, tag, digest",
        [
            (pinned_dependent(), TAG_DEPENDENT,
             "c6fb6b499ab1b1d517565560256b42aac54b015c3a1d3530b3a9bb3c0af8e9ea"),
            ([dense((ONE, S2, S5)), dense((S3, ONE, S2)), dense((S5, S3, ONE))],
             TAG_SMALL_VOLUME,
             "68bba12741ab4405e91b7f57a2bb1dc044b8ccdb494c5e458808a5f0d83c6358"),
            ([OrderSpec(1, (LinearForm((-ONE,)),))], TAG_DISCRETE_BASE,
             "41cc8e6e6157a2f66c20f0c989ac1171b6b268f22c483b09f5a131439e87aac1"),
        ],
        ids=[TAG_DEPENDENT, TAG_SMALL_VOLUME, TAG_DISCRETE_BASE],
    )
    def test_pinned_certificate(self, orders, tag, digest):
        cert = refute(orders)
        assert cert.lemma_tag == tag
        text = json.dumps(certificate_to_json(cert), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert verify_certificate(orders, cert)

    def test_no_certificate_for_single_dense_order(self):
        with pytest.raises(NoCertificateFound):
            refute([dense((ONE, S2))])

    def test_small_volume_needs_square(self):
        with pytest.raises(ValueError):
            refute_small_volume([dense((ONE, S2, S3))])


class TestRandomInstances:
    @pytest.mark.parametrize("m", [2, 3])
    def test_dependent_instances(self, m):
        rng = random.Random(100 + m)
        for _ in range(5):
            orders = gen_dependent(rng, m)
            cert = refute(orders)
            assert cert.lemma_tag == TAG_DEPENDENT
            assert verify_certificate(orders, cert)

    @pytest.mark.parametrize("m", [2, 3])
    def test_rational_kernel_instances(self, m):
        rng = random.Random(200 + m)
        for _ in range(5):
            orders = gen_rational_kernel(rng, m)
            cert = refute(orders)
            assert cert.lemma_tag == TAG_RATIONAL_KERNEL
            assert verify_certificate(orders, cert)

    @pytest.mark.parametrize("m", [2, 3])
    def test_small_volume_instances(self, m):
        rng = random.Random(300 + m)
        orders = gen_small_volume(rng, m)
        cert = refute(orders)
        assert cert.lemma_tag == TAG_SMALL_VOLUME
        assert verify_certificate(orders, cert)


class TestVerification:
    def test_tampered_interval_fails(self):
        orders = [usual_z1()]
        cert = refute(orders)
        widened = Certificate(
            IntervalConstraint((((0,), (2,)),)), cert.lemma_tag, cert.evidence
        )
        assert not verify_certificate(orders, widened)

    def test_tampered_dependent_fails(self):
        orders = [dense((ONE, S2)), dense((S2, B.rational(2)))]
        cert = refute(orders)
        (b0, b1) = cert.constraints.bounds
        widened = Certificate(
            IntervalConstraint((b0, (b1[0], (5, 5)))), cert.lemma_tag, cert.evidence
        )
        assert not verify_certificate(orders, widened)

    def test_unknown_tag_raises(self):
        orders = [usual_z1()]
        cert = refute(orders)
        bogus = Certificate(cert.constraints, "Nonsense", cert.evidence)
        with pytest.raises(MalformedCertificateError):
            verify_certificate(orders, bogus)

    def test_scan_finds_point_in_wide_region(self):
        # a fat interval pair around the origin is certainly occupied
        orders = [dense((ONE, S2)), dense((S3, ONE))]
        wide = (((-4, -4), (4, 4)), ((-4, -4), (4, 4)))
        assert scan_box(orders, wide, 10) == (0, 0)

    def test_serialization_roundtrip(self):
        cases = [
            [usual_z1()],
            [dense((ONE, S2)), dense((S2, B.rational(2)))],
            [dense((ONE, S2)), dense((S3, ONE))],
            [rational_lead_z2(), dense((ONE, S2))],
        ]
        for orders in cases:
            cert = refute(orders)
            obj = certificate_to_json(cert)
            back = certificate_from_json(obj)
            assert certificate_to_json(back) == obj
            assert back.lemma_tag == cert.lemma_tag
            assert back.constraints == cert.constraints
            assert verify_certificate(orders, back)


class TestInverseIntervals:
    @pytest.mark.parametrize(
        "rows",
        [
            [(S3,)],
            [(ONE, S2), (S3, ONE)],
            [(-ONE, S2), (S5, B.rational(3))],
            [(ONE, S2, S5), (S3, ONE, S2), (S2 + S3, B.rational(-2), ONE)],
        ],
        ids=["n1", "n2", "n2-negative-det", "n3"],
    )
    def test_encloses_exact_inverse(self, rows):
        # Cramer's rule with the elimination determinant as the oracle:
        # entry (t, i) of the inverse is det(rows with column t set to e_i) / det.
        n = len(rows)
        det = fs_det_elimination(rows)
        enclosure = _inverse_intervals(rows, det)
        for t in range(n):
            for i in range(n):
                replaced = [
                    tuple((ONE if r == i else B.zero) if c == t else rows[r][c]
                          for c in range(n))
                    for r in range(n)
                ]
                exact = fs_det_elimination(replaced) / det
                lo, hi = enclosure[t][i]
                assert lo <= hi
                assert (exact - lo).sign() >= 0 and (hi - exact).sign() >= 0
