"""Exact arithmetic in multiquadratic real fields Q(sqrt(p1), ..., sqrt(pk)).

Values are stored as rational coefficients over the square-free radicals
sqrt(d), where d ranges over products of subsets of the basis primes
(d = 1 for the rational part).  Those radicals are linearly independent
over Q, so zero-testing is purely syntactic and every sign question is
decidable.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Sequence

DEFAULT_PRECISION_CAP = 16384

_precision_cap = ContextVar("precision_cap", default=DEFAULT_PRECISION_CAP)
_ZERO = Fraction(0)

_SQRT_FLOOR_CACHE: dict[tuple[int, int], int] = {}


class BasisMismatchError(ValueError):
    """Raised when two scalars over different radical bases are combined."""


class PrecisionExceededError(ArithmeticError):
    """Sign determination hit the precision cap; indicates a bug, not math."""


@contextmanager
def precision_scope(cap: int) -> Iterator[None]:
    """Make cap the precision cap of sign() and isolate() inside the block."""
    token = _precision_cap.set(cap)
    try:
        yield
    finally:
        _precision_cap.reset(token)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def primes_from(start_index: int, count: int) -> list[int]:
    """The `count` consecutive primes starting at the `start_index`-th prime."""
    out = []
    p = 2
    idx = 0
    while len(out) < count:
        if is_prime(p):
            if idx >= start_index:
                out.append(p)
            idx += 1
        p += 1
    return out


def _sqrt_floor(d: int, bits: int) -> int:
    key = (d, bits)
    s = _SQRT_FLOOR_CACHE.get(key)
    if s is None:
        s = isqrt(d << (2 * bits))
        _SQRT_FLOOR_CACHE[key] = s
    return s


@dataclass(frozen=True)
class RadicalBasis:
    """An ordered tuple of distinct primes p1 < ... < pk."""

    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "primes", tuple(self.primes))
        for p in self.primes:
            if not is_prime(p):
                raise ValueError(f"basis entry {p} is not prime")
        if list(self.primes) != sorted(set(self.primes)):
            raise ValueError("basis primes must be strictly increasing")

    def _check_radicand(self, d: int) -> None:
        if d < 1:
            raise ValueError(f"radicand {d} must be positive")
        rest = d
        for p in self.primes:
            if rest % p == 0:
                rest //= p
                if rest % p == 0:
                    raise ValueError(f"radicand {d} is not square-free")
        if rest != 1:
            raise ValueError(f"radicand {d} not generated by basis {self.primes}")

    def scalar(self, terms: dict[int, Fraction | int]) -> FieldScalar:
        for d in terms:
            self._check_radicand(d)
        return FieldScalar(self, {d: Fraction(q) for d, q in terms.items()})

    def rational(self, q: Fraction | int) -> FieldScalar:
        return FieldScalar(self, {1: Fraction(q)})

    def sqrt(self, d: int, coeff: Fraction | int = 1) -> FieldScalar:
        self._check_radicand(d)
        return FieldScalar(self, {d: Fraction(coeff)})

    @property
    def zero(self) -> FieldScalar:
        return FieldScalar(self, {})

    @property
    def one(self) -> FieldScalar:
        return FieldScalar(self, {1: Fraction(1)})


class FieldScalar:
    """An immutable element of the multiquadratic field over a RadicalBasis."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: RadicalBasis, terms: dict[int, Fraction]):
        self.basis = basis
        self.terms = {d: q for d, q in terms.items() if q}

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return set(self.terms) <= {1}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.basis.rational(other)
        if not isinstance(other, FieldScalar):
            return NotImplemented
        return self.basis == other.basis and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.basis, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for d in sorted(self.terms):
            q = self.terms[d]
            if d == 1:
                parts.append(str(q))
            else:
                parts.append(f"{q}*sqrt({d})")
        return " + ".join(parts)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self.basis.rational(other)
        if isinstance(other, FieldScalar):
            if other.basis != self.basis:
                raise BasisMismatchError(
                    f"bases differ: {self.basis.primes} vs {other.basis.primes}"
                )
            return other
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for d, q in o.terms.items():
            terms[d] = terms.get(d, Fraction(0)) + q
        return FieldScalar(self.basis, terms)

    __radd__ = __add__

    def __neg__(self):
        return FieldScalar(self.basis, {d: -q for d, q in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FieldScalar(self.basis, {d: c * q for d, c in self.terms.items()})
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for d1, q1 in self.terms.items():
            for d2, q2 in o.terms.items():
                g = gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                terms[d] = terms.get(d, Fraction(0)) + q1 * q2 * g
        return FieldScalar(self.basis, terms)

    __rmul__ = __mul__

    def inverse(self) -> FieldScalar:
        if not self.terms:
            raise ZeroDivisionError("inverse of zero field element")
        present = [p for p in self.basis.primes if any(d % p == 0 for d in self.terms)]
        if not present:
            return self.basis.rational(1 / self.terms[1])
        # Split off the largest prime: a = b + sqrt(p)*c with b, c free of p;
        # a * (b - sqrt(p)*c) = b^2 - p*c^2 lives in the smaller subfield.
        p = present[-1]
        b = FieldScalar(self.basis, {d: q for d, q in self.terms.items() if d % p})
        c = FieldScalar(
            self.basis, {d // p: q for d, q in self.terms.items() if d % p == 0}
        )
        sqrt_p = self.basis.sqrt(p)
        conj = b - sqrt_p * c
        norm = b * b - p * (c * c)
        return conj * norm.inverse()

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- sign and approximation --------------------------------------------

    def interval(self, bits: int) -> tuple[Fraction, Fraction]:
        """An outward-rounded rational enclosure at the given precision."""
        lo = Fraction(0)
        hi = Fraction(0)
        scale = 1 << bits
        for d, q in self.terms.items():
            if d == 1:
                lo += q
                hi += q
                continue
            s = _sqrt_floor(d, bits)
            slo = Fraction(s, scale)
            shi = Fraction(s + 1, scale)
            if q > 0:
                lo += q * slo
                hi += q * shi
            else:
                lo += q * shi
                hi += q * slo
        return lo, hi

    def isolate(self) -> tuple[Fraction, Fraction]:
        """A rational enclosure (lo, hi) of the value that excludes 0 unless
        the value is 0.

        A rational value q, 0 included, gives (q, q).  Otherwise the
        precision doubles from 64 bits up to the cap of precision_scope
        until the enclosure excludes 0.
        """
        if self.is_rational():
            q = self.terms.get(1, _ZERO)
            return q, q
        cap = _precision_cap.get()
        bits = 64
        while bits <= cap:
            lo, hi = self.interval(bits)
            if lo.numerator > 0 or hi.numerator < 0:
                return lo, hi
            bits *= 2
        raise PrecisionExceededError(
            f"sign undecided at precision cap {cap} bits: {self!r}"
        )

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, read off the enclosure of isolate()."""
        lo, hi = self.isolate()
        # The sign of a Fraction is the sign of its numerator; comparing
        # integers is much cheaper than comparing a Fraction with 0.
        return (lo.numerator > 0) - (hi.numerator < 0)

    def to_float(self) -> float:
        out = 0.0
        for d, q in self.terms.items():
            out += float(q) * (d**0.5)
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "basis": list(self.basis.primes),
            "terms": [
                {"radicand": d, "num": q.numerator, "den": q.denominator}
                for d, q in sorted(self.terms.items())
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> FieldScalar:
        basis = RadicalBasis(tuple(obj["basis"]))
        terms = {}
        for t in obj["terms"]:
            if t["den"] == 0:
                raise ValueError(f"malformed input: term {t!r} has denominator 0")
            terms[t["radicand"]] = Fraction(t["num"], t["den"])
        return basis.scalar(terms)


# -- rational linear algebra on coefficient vectors -------------------------


def rational_rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by plain Gaussian elimination."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / prow[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def radicand_rows(vals: Sequence[FieldScalar]) -> list[list[Fraction]]:
    """The rational expansion of a vector of field values: one row per
    radicand d occurring in it (ascending), holding each value's
    coefficient of sqrt(d).  An integer vector z has sum(z_i * vals_i) = 0
    exactly when every row annihilates z."""
    radicands = sorted({d for v in vals for d in v.terms})
    return [[v.terms.get(d, _ZERO) for v in vals] for d in radicands]


def q_linear_independent(vals: list[FieldScalar]) -> bool:
    """True iff the values are linearly independent over Q."""
    if not vals:
        return True
    b = vals[0].basis
    for v in vals[1:]:
        if v.basis != b:
            raise BasisMismatchError("mixed bases in q_linear_independent")
    # One row per value (the transpose): the elimination then stops after
    # len(vals) pivots instead of clearing one row per radicand.
    return rational_rank(list(zip(*radicand_rows(vals)))) == len(vals)


# -- linear algebra over the field ------------------------------------------


def fs_dot(u: tuple[FieldScalar, ...], v: tuple[FieldScalar, ...]) -> FieldScalar:
    if len(u) != len(v):
        raise ValueError("length mismatch in dot product")
    acc = u[0].basis.zero
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc


def fs_det(rows: list[tuple[FieldScalar, ...]]) -> FieldScalar:
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix not square")
    if n == 1:
        return rows[0][0]
    basis = rows[0][0].basis
    acc = basis.zero
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        minor = [tuple(r[t] for t in range(n) if t != j) for r in rows[1:]]
        term = entry * fs_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def fs_cofactors(rows: list[tuple[FieldScalar, ...]]) -> tuple[FieldScalar, ...]:
    """The signed maximal minors of an (n-1) x n matrix: entry j is (-1)^j
    times the minor without column j.

    So det([v] + rows) == fs_dot(v, fs_cofactors(rows)) for every v, and
    the result is orthogonal to every row (a determinant with a repeated
    row vanishes).
    """
    n = len(rows) + 1
    out = []
    for j in range(n):
        minor = fs_det([r[:j] + r[j + 1 :] for r in rows])
        out.append(minor if j % 2 == 0 else -minor)
    return tuple(out)


def fs_row_dependency(
    rows: list[tuple[FieldScalar, ...]],
) -> tuple[int, list[FieldScalar]] | None:
    """First row expressible over the field in terms of the earlier rows.

    Returns (k, coeffs) with rows[k] = sum(coeffs[j] * rows[j] for j < k),
    or None when all rows are independent.
    """
    if not rows:
        return None
    basis = rows[0][0].basis
    zero, one = basis.zero, basis.one
    echelon: list[tuple[list[FieldScalar], dict[int, FieldScalar], int]] = []
    for i, row in enumerate(rows):
        vec = list(row)
        combo: dict[int, FieldScalar] = {i: one}
        for pvec, pcombo, pcol in echelon:
            if vec[pcol].is_zero():
                continue
            f = vec[pcol] * pvec[pcol].inverse()
            vec = [a - f * b for a, b in zip(vec, pvec)]
            for j, c in pcombo.items():
                combo[j] = combo.get(j, zero) - f * c
        pivcol = next((t for t, v in enumerate(vec) if not v.is_zero()), None)
        if pivcol is None:
            # combo encodes sum(combo[j]*rows[j]) = 0 with combo[i] = 1
            coeffs = [-(combo.get(j, zero)) for j in range(i)]
            return i, coeffs
        echelon.append((vec, combo, pivcol))
    return None
