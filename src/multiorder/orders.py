"""Right-invariant total orders on Z^m given by sequences of linear forms.

A single form with Q-linearly-independent components gives a dense
archimedean order; a longer sequence resolves ties on the kernel of the
leading form (the non-archimedean case).  All notation is additive.
"""

from __future__ import annotations

import math
from enum import IntEnum
from fractions import Fraction

from .field import (
    FieldScalar,
    RadicalBasis,
    q_linear_independent,
    radicand_rows,
    rational_rank,
)
from .lattice import _MARGIN_ROUNDING, IntVec, gamma, iter_box, vec_sub


class Cmp(IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class Cone(IntEnum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


class RankMismatchError(ValueError):
    pass


class NotTotalError(ValueError):
    """The forms do not define a total order: a nonzero vector kills them all."""


class NotDenseError(ValueError):
    pass


class BoundExhaustedError(RuntimeError):
    pass


class LinearForm:
    """A nonzero vector of field scalars, paired with lattice vectors by dot."""

    __slots__ = ("coeffs", "_floats", "_errors", "_weights")

    def __init__(self, coeffs: tuple[FieldScalar, ...]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("empty linear form")
        basis = coeffs[0].basis
        for c in coeffs[1:]:
            if c.basis != basis:
                raise ValueError("mixed bases in linear form")
        if all(c.is_zero() for c in coeffs):
            raise ValueError("zero linear form")
        self.coeffs = coeffs
        self._floats: tuple[float, ...] | None = None
        self._errors: tuple[float, ...] | None = None
        self._weights: tuple[float, ...] | None = None

    @property
    def basis(self) -> RadicalBasis:
        return self.coeffs[0].basis

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def value(self, z: IntVec) -> FieldScalar:
        terms: dict[int, Fraction] = {}
        for zi, c in zip(z, self.coeffs):
            if zi:
                for d, q in c.terms.items():
                    terms[d] = terms.get(d, Fraction(0)) + q * zi
        return FieldScalar(self.basis, terms)

    def floats(self) -> tuple[float, ...]:
        if self._floats is None:
            self._floats = tuple(c.to_float() for c in self.coeffs)
        return self._floats

    def float_errors(self) -> tuple[float, ...]:
        """Proven bounds e_j >= |c_j - floats()[j]| + 2^-1075, read off the
        64-bit enclosure of c_j: the nearest float to that distance, one ulp
        up.  The 2^-1075 covers a product with a subnormal coefficient
        (lattice.filter_margin)."""
        if self._errors is None:
            errors = []
            for c, f in zip(self.coeffs, self.floats()):
                lo, hi = c.interval(64)
                n, d = f.as_integer_ratio()
                # Each int / int is the nearest float to the exact quotient.
                e = max(
                    (hi.numerator * d - n * hi.denominator) / (hi.denominator * d),
                    (n * lo.denominator - lo.numerator * d) / (lo.denominator * d),
                )
                errors.append(math.nextafter(e, math.inf))
            self._errors = tuple(errors)
        return self._errors

    def weights(self) -> tuple[float, ...]:
        """The weights w_j = e_j + gamma_{m+1} |floats()[j]| of the filter
        bound E(x) = sum_j w_j |x_j| (lattice.filter_margin)."""
        if self._weights is None:
            g = gamma(self.rank + 1)
            self._weights = tuple(
                e + g * abs(c) for e, c in zip(self.float_errors(), self.floats())
            )
        return self._weights

    def sign_at(self, z: IntVec) -> int:
        """Exact sign of value(z), in exact arithmetic only near a tie.

        The float dot product v of floats() and z is within E(z) of value(z)
        (lattice.filter_margin), so |v| > E(z) proves the sign of v.  A
        finite v means that no partial sum overflowed; an infinite E(z)
        never passes.  Otherwise, and for |z_j| beyond the float range
        (OverflowError), the sign is value(z).sign().
        """
        v = e = 0.0
        try:
            for c, w, x in zip(self.floats(), self.weights(), z):
                v += c * x
                e += w * abs(x)
        except OverflowError:
            return self.value(z).sign()
        if e * _MARGIN_ROUNDING < abs(v) < math.inf:
            return 1 if v > 0 else -1
        return self.value(z).sign()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinearForm) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"LinearForm({list(self.coeffs)!r})"

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    @staticmethod
    def from_json(obj: list) -> LinearForm:
        return LinearForm(tuple(FieldScalar.from_json(c) for c in obj))


class OrderSpec:
    """A right-invariant total order on Z^m, lexicographic over its forms."""

    __slots__ = ("rank", "forms")

    def __init__(self, rank: int, forms: tuple[LinearForm, ...]):
        forms = tuple(forms)
        if not forms:
            raise ValueError("OrderSpec needs at least one form")
        for f in forms:
            if f.rank != rank:
                raise RankMismatchError("form length differs from rank")
        self.rank = rank
        self.forms = forms
        self._validate_totality()

    def _validate_totality(self) -> None:
        # Each form contributes one rational constraint row per radicand;
        # the order is total iff the stacked rows have full column rank.
        rows = [row for f in self.forms for row in radicand_rows(f.coeffs)]
        if rational_rank(rows) != self.rank:
            raise NotTotalError(
                "nonzero integer vectors are annihilated by every form"
            )

    @property
    def leading(self) -> LinearForm:
        return self.forms[0]

    def is_dense(self) -> bool:
        return len(self.forms) == 1 and q_linear_independent(
            list(self.forms[0].coeffs)
        )

    def compare(self, x: IntVec, y: IntVec) -> Cmp:
        if len(x) != self.rank or len(y) != self.rank:
            raise RankMismatchError("vector rank differs from order rank")
        diff = vec_sub(x, y)
        for f in self.forms:
            s = f.sign_at(diff)
            if s:
                return Cmp.LESS if s < 0 else Cmp.GREATER
        return Cmp.EQUAL

    def cone_membership(self, g: IntVec) -> Cone:
        c = self.compare((0,) * self.rank, g)
        if c == Cmp.LESS:
            return Cone.POSITIVE
        if c == Cmp.GREATER:
            return Cone.NEGATIVE
        return Cone.ZERO

    def cone_split(self, p: IntVec, bound: int) -> tuple[IntVec, IntVec]:
        """Split a positive p as q + r with q, r positive, by box search."""
        if not self.is_dense():
            raise NotDenseError("cone_split requires a dense order")
        if self.cone_membership(p) != Cone.POSITIVE:
            raise ValueError("p must be positive")
        for q in iter_box(self.rank, bound):
            if self.cone_membership(q) != Cone.POSITIVE:
                continue
            r = vec_sub(p, q)
            if self.cone_membership(r) == Cone.POSITIVE:
                return q, r
        raise BoundExhaustedError(f"no split of {p} within bound {bound}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, OrderSpec)
            and self.rank == other.rank
            and self.forms == other.forms
        )

    def __repr__(self) -> str:
        return f"OrderSpec(rank={self.rank}, forms={list(self.forms)!r})"

    def to_json(self) -> dict:
        return {"rank": self.rank, "forms": [f.to_json() for f in self.forms]}

    @staticmethod
    def from_json(obj: dict) -> OrderSpec:
        return OrderSpec(
            obj["rank"], tuple(LinearForm.from_json(f) for f in obj["forms"])
        )

