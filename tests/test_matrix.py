import hashlib
import json

import pytest

from multiorder.field import (
    RadicalBasis,
    fs_cofactors,
    fs_det,
    fs_dot,
)
from multiorder.matrix import (
    OrderMatrix,
    build,
    verify,
)
from multiorder.orders import LinearForm

from oracles import fs_det_elimination

B = RadicalBasis((2,))
B235 = RadicalBasis((2, 3, 5))


class TestSqrt2Instance:
    def test_m2_seed0_is_alpha_rt2(self):
        A = build(2, 0)
        b = A.basis
        assert A.rows[0].coeffs == (b.one, b.sqrt(2))
        assert A.rows[1].coeffs == (-b.sqrt(2), b.one)
        assert A.verified

    def test_m2_orthogonality_cancellation(self):
        A = build(2, 0)
        assert fs_dot(A.rows[0].coeffs, A.rows[1].coeffs).is_zero()

    def test_sqrt2_matrix_verifies(self):
        b = B
        rows = (
            LinearForm((b.one, b.sqrt(2))),
            LinearForm((-b.sqrt(2), b.one)),
        )
        rep = verify(OrderMatrix(2, rows, b))
        assert rep.ok


class TestVerify:
    def test_identity_rows_not_q_independent(self):
        rows = (
            LinearForm((B.one, B.zero)),
            LinearForm((B.zero, B.one)),
        )
        rep = verify(OrderMatrix(2, rows, B))
        assert rep.rows_q_independent == [False, False]
        assert not rep.ok

    def test_duplicated_rows_not_invertible(self):
        row = LinearForm((B.one, B.sqrt(2)))
        rep = verify(OrderMatrix(2, (row, row), B))
        assert not rep.invertible

    def test_m3_build_verifies(self):
        rep = verify(build(3, 0))
        assert rep.ok


class TestBuild:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_builds_verify(self, m):
        for seed in range(3):
            A = build(m, seed)
            assert verify(A).ok

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            build(1, 0)

    def test_negative_seed(self):
        # primes_from(-1, ...) would start at 2, as seed 0 does.
        with pytest.raises(ValueError, match="seed must be >= 0"):
            build(3, -1)

    def test_deterministic_in_seed(self):
        a1 = build(3, 5)
        a2 = build(3, 5)
        assert [r.coeffs for r in a1.rows] == [r.coeffs for r in a2.rows]

    @pytest.mark.parametrize(
        "m, digest",
        [
            (3, "c401d0cbf100e8b6efe7501c76584b50d867c61be7b12479d81fad1f73146361"),
            (4, "fea8c807232eb346cdd6eb9bca643281de9fcca4e5fd61f79a1bff0fd8d59dd5"),
            (5, "02d44b5e11664d72c07d83dc6d40d028f29d724648d45d7350154c0fd3de9876"),
        ],
        ids=["m3", "m4", "m5"],
    )
    def test_golden_matrix(self, m, digest):
        text = json.dumps(build(m, 0).to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_json_roundtrip(self):
        A = build(3, 0)
        back = OrderMatrix.from_json(A.to_json())
        assert [r.coeffs for r in back.rows] == [r.coeffs for r in A.rows]
        assert not back.verified  # verification status never deserializes


class TestDeterminantRoutes:
    @pytest.mark.parametrize("m,seed", [(2, 0), (3, 0), (3, 4), (4, 1)])
    def test_cofactor_vs_elimination(self, m, seed):
        A = build(m, seed)
        rows = [r.coeffs for r in A.rows]
        assert fs_det(rows) == fs_det_elimination(rows)

    @pytest.mark.parametrize(
        "rows",
        [
            [r.coeffs for r in build(2, 0).rows[:-1]],
            [r.coeffs for r in build(3, 0).rows[:-1]],
            [r.coeffs for r in build(3, 4).rows[:-1]],
            [
                (B235.one, B235.sqrt(2), B235.sqrt(3), B235.sqrt(5)),
                (B235.sqrt(3), B235.one, B235.sqrt(5), B235.sqrt(2)),
                (B235.sqrt(5), B235.sqrt(2), B235.one, B235.sqrt(6)),
            ],
        ],
        ids=["m2", "m3", "m3-seed4", "m4"],
    )
    def test_cofactors_expand_the_determinant(self, rows):
        cof = fs_cofactors(rows)
        for r in rows:
            assert fs_dot(r, cof).is_zero()
        b = rows[0][0].basis
        v = tuple(b.sqrt(b.primes[-1]) + j for j in range(len(cof)))
        assert fs_dot(v, cof) == fs_det_elimination([v] + rows)
        assert not fs_dot(v, cof).is_zero()
