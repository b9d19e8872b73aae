"""Construction and exact verification of the square order-defining matrix.

The first m-1 rows carry square roots of distinct primes, so each has
Q-linearly-independent components; the last row is the generalized cross
product of the others, hence exactly orthogonal to all of them.  Every
matrix is verified exactly before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .field import (
    RadicalBasis,
    fs_cofactors,
    fs_det,
    fs_dot,
    primes_from,
    q_linear_independent,
)
from .orders import LinearForm


@dataclass(frozen=True)
class VerifyReport:
    invertible: bool
    rows_q_independent: list[bool]
    last_row_orthogonal: list[bool]

    @property
    def ok(self) -> bool:
        return (
            self.invertible
            and all(self.rows_q_independent)
            and all(self.last_row_orthogonal)
        )

    def to_json(self) -> dict:
        return {
            "invertible": self.invertible,
            "rows_q_independent": self.rows_q_independent,
            "last_row_orthogonal": self.last_row_orthogonal,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class OrderMatrix:
    m: int
    rows: tuple[LinearForm, ...]
    basis: RadicalBasis
    verified: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.rows) != self.m:
            raise ValueError("row count differs from m")
        for r in self.rows:
            if r.rank != self.m:
                raise ValueError("row length differs from m")

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "rows": [r.to_json() for r in self.rows],
        }

    @staticmethod
    def from_json(obj: dict) -> OrderMatrix:
        rows = tuple(LinearForm.from_json(r) for r in obj["rows"])
        return OrderMatrix(obj["m"], rows, rows[0].basis)


def cross_row(rows: list[LinearForm]) -> LinearForm:
    """The generalized cross product of an (m-1) x m matrix: its negated
    cofactors, orthogonal to every input row.  Sign convention fixed so
    that the single row (1, sqrt(2)) yields (-sqrt(2), 1)."""
    return LinearForm(tuple(-c for c in fs_cofactors([r.coeffs for r in rows])))


def verify(A: OrderMatrix) -> VerifyReport:
    """Decide conditions (a) invertible, (b) per-row Q-independence,
    (c) last row orthogonal to the others — all exactly."""
    det = fs_det([r.coeffs for r in A.rows])
    rows_qi = [q_linear_independent(list(r.coeffs)) for r in A.rows]
    last = A.rows[-1].coeffs
    orth = [fs_dot(last, r.coeffs).is_zero() for r in A.rows[:-1]]
    return VerifyReport(
        invertible=not det.is_zero(),
        rows_q_independent=rows_qi,
        last_row_orthogonal=orth,
    )


def build(m: int, seed: int) -> OrderMatrix:
    """A verified OrderMatrix with radical entries, deterministic in seed.

    Row i (i < m-1) is (1, sqrt(p_1), ..., sqrt(p_{m-1})) over its own
    m-1 primes, drawn consecutively from the seed-th prime on; the last
    row is the cross product of the others.  verify() always passes: the
    entries of each row are distinct radicals; entry j of the last row is
    a sum of monomials whose prime set determines j, so its entries are
    Q-independent; and det = +-(sum of the squared cross entries) > 0.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    primes = primes_from(seed, (m - 1) ** 2)
    basis = RadicalBasis(tuple(primes))
    rows = []
    for i in range(m - 1):
        chunk = primes[i * (m - 1) : (i + 1) * (m - 1)]
        rows.append(LinearForm((basis.one,) + tuple(basis.sqrt(p) for p in chunk)))
    A = OrderMatrix(m, tuple(rows) + (cross_row(rows),), basis)
    if not verify(A).ok:
        raise RuntimeError(f"build({m}, {seed}) failed verification")
    return OrderMatrix(m, A.rows, basis, verified=True)
