"""The constructed generic multiorder on Z^m and its witness finders.

The one witness route, find_witness, walks anchor points along the
cylinder axis (the direction orthogonal to every order's leading form),
rounds to the nearest lattice point and validates exactly; a brute-force
box enumeration is both the ground-truth oracle and the fallback.  The
axis is the stored direction, or for n = m - 1 orders the cross row of
their leading forms, which those forms fix; without one the route is the
box scan alone.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field as dc_field

import numpy as np

from .lattice import IntVec, filter_margin, first_in_box
from .matrix import OrderMatrix, cross_row
from .orders import Cmp, LinearForm, OrderSpec

DEFAULT_PROBE_BUDGET = 10**6


class UnverifiedMatrixError(ValueError):
    pass


class MalformedConstraintError(ValueError):
    pass


class ProbeBudgetExhaustedError(RuntimeError):
    pass


@dataclass(frozen=True)
class MultiOrder:
    rank: int
    orders: tuple[OrderSpec, ...]
    direction: LinearForm | None = None

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError(f"rank {self.rank} must be at least 1")
        for o in self.orders:
            if o.rank != self.rank:
                raise ValueError("order rank differs from ambient rank")
        if self.direction is not None:
            if self.direction.rank != self.rank:
                raise ValueError("direction rank differs from ambient rank")
            from .field import fs_dot

            for o in self.orders:
                if not fs_dot(self.direction.coeffs, o.leading.coeffs).is_zero():
                    raise ValueError("direction not orthogonal to an order form")

    @property
    def n(self) -> int:
        return len(self.orders)

    @functools.cached_property
    def walk_direction(self) -> LinearForm | None:
        """The axis of the line walk: the stored direction, or else, for
        n = m - 1 leading forms over one radical basis, their cross row when
        it is nonzero (the forms are independent); None otherwise.  Derived
        on first use only, so multiorders that never walk never pay for it."""
        if self.direction is not None:
            return self.direction
        forms = [o.leading for o in self.orders]
        if self.n != self.rank - 1 or len({f.basis for f in forms}) != 1:
            return None
        try:
            return cross_row(forms)
        except ValueError:  # all cofactors zero: the forms are dependent
            return None

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "orders": [o.to_json() for o in self.orders],
            "direction": self.direction.to_json() if self.direction else None,
        }

    @staticmethod
    def from_json(obj: dict) -> MultiOrder:
        direction = (
            LinearForm.from_json(obj["direction"]) if obj.get("direction") else None
        )
        return MultiOrder(
            obj["rank"],
            tuple(OrderSpec.from_json(o) for o in obj["orders"]),
            direction,
        )


@dataclass(frozen=True)
class IntervalConstraint:
    """Per order: an open interval with lattice or infinite endpoints."""

    bounds: tuple[tuple[IntVec | None, IntVec | None], ...]

    def validate(self, M: MultiOrder) -> None:
        if len(self.bounds) != M.n:
            raise MalformedConstraintError("one interval per order required")
        for (lo, hi), o in zip(self.bounds, M.orders):
            for e in (lo, hi):
                if e is not None and len(e) != M.rank:
                    raise MalformedConstraintError("endpoint rank mismatch")
            if lo is not None and hi is not None:
                if o.compare(lo, hi) != Cmp.LESS:
                    raise MalformedConstraintError(
                        f"lower {lo} not below upper {hi} in its order"
                    )

    def to_json(self) -> list:
        out = []
        for lo, hi in self.bounds:
            out.append(
                {
                    "lower": list(lo) if lo is not None else "-inf",
                    "upper": list(hi) if hi is not None else "+inf",
                }
            )
        return out

    @staticmethod
    def from_json(obj: list) -> IntervalConstraint:
        bounds = []
        for e in obj:
            lo = None if e["lower"] == "-inf" else tuple(e["lower"])
            hi = None if e["upper"] == "+inf" else tuple(e["upper"])
            bounds.append((lo, hi))
        ends = [e for bound in bounds for e in bound if e is not None]
        if not all(type(x) is int for e in ends for x in e):
            raise TypeError("interval endpoints must be integer vectors")
        return IntervalConstraint(tuple(bounds))


@dataclass(frozen=True, slots=True)
class WitnessResult:
    point: IntVec
    probes: int
    backend: str


@dataclass(frozen=True)
class ExtensionReport:
    trials: int
    failures: list = dc_field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def from_matrix(A: OrderMatrix) -> MultiOrder:
    """n = m-1 dense orders from the first rows; direction = last row."""
    if not A.verified:
        raise UnverifiedMatrixError("matrix must pass verify() before use")
    orders = tuple(OrderSpec(A.m, (row,)) for row in A.rows[:-1])
    return MultiOrder(A.m, orders, A.rows[-1])


def satisfies(M: MultiOrder, cons: IntervalConstraint, z: IntVec) -> bool:
    """Exact check that z lies strictly inside every interval."""
    for (lo, hi), o in zip(cons.bounds, M.orders):
        if lo is not None and o.compare(lo, z) != Cmp.LESS:
            return False
        if hi is not None and o.compare(z, hi) != Cmp.LESS:
            return False
    return True


def _float_windows(
    M: MultiOrder, cons: IntervalConstraint
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Leading-form float matrix C, outer value windows (-inf/+inf open),
    the weights W of the filter bound (lattice.filter_margin) for C's rows,
    and per row the bound for the windows' finite endpoints.

    A side whose float value overflows is left open and out of the bound:
    the filter then admits more points, and satisfies still decides."""
    forms = [o.leading for o in M.orders]
    C = np.array([f.floats() for f in forms], dtype=float)
    W = np.array([f.weights() for f in forms])
    lo = np.full(M.n, -np.inf)
    hi = np.full(M.n, np.inf)
    ends = np.zeros(M.n)
    for i, bound in enumerate(cons.bounds):
        for side, e in zip((lo, hi), bound):
            if e is None:
                continue
            try:
                value = float(np.dot(C[i], e))
            except OverflowError:  # a coordinate beyond the float range
                continue
            if math.isfinite(value):
                side[i] = value
                ends[i] = max(ends[i], filter_margin(W[i], e))
    return C, lo, hi, W, ends


def first_satisfying(
    M: MultiOrder, cons: IntervalConstraint, box: int
) -> IntVec | None:
    """First point of [-box, box]^m in (max-norm, lex) order satisfying all
    constraints, or None: the certified float filter drops only points
    certainly outside a window, satisfies decides."""
    C, lo, hi, W, ends = _float_windows(M, cons)
    slack = filter_margin(W, [box] * M.rank) + ends
    return first_in_box(C, lo, hi, slack, box, lambda z: satisfies(M, cons, z))


def witness_brute(
    M: MultiOrder, cons: IntervalConstraint, box: int
) -> IntVec | None:
    """First point of [-box, box]^m in (max-norm, lex) order satisfying all
    constraints, or None (NotFoundInBox)."""
    cons.validate(M)
    return first_satisfying(M, cons, box)


# The walk's first chunk of signed offsets 0, 1, -1, 2, -2, ...; the chunk
# from an even probe index s is _T0 + (s // 2) * _PARITY, exact below 2^53.
_T0 = np.array([(j + 1) // 2 if j % 2 else -(j // 2) for j in range(8192)], float)
_PARITY = np.where(np.arange(8192) % 2, 1.0, -1.0)
_T0.flags.writeable = _PARITY.flags.writeable = False


def brute_box(m: int) -> int:
    """The box of the brute-force fallback in rank m: the largest b <= 1024
    whose box [-b, b]^m holds at most 3e7 points; beyond that the line walk
    is the only viable engine."""
    return next(b for b in range(1024, -1, -1) if (2 * b + 1) ** m <= 3 * 10**7)


def find_witness(
    M: MultiOrder,
    cons: IntervalConstraint,
    probe_budget: int = DEFAULT_PROBE_BUDGET,
) -> WitnessResult:
    """The one witness route: a walk along M.walk_direction, exact validation.

    Without a walk direction, or once the walk has spent probe_budget
    probes, one brute scan of the box brute_box(m) decides; the existence
    engine is Kronecker's theorem, which gives no effective bound.  Every
    smaller box is a prefix of that scan in canonical order, so the scan
    returns the first point of the smallest box that holds one.
    """
    cons.validate(M)
    m = M.rank
    if all(lo is None and hi is None for lo, hi in cons.bounds):
        return WitnessResult((0,) * m, 0, "line")

    probes = 0
    direction = M.walk_direction
    if direction is not None:
        C, lo, hi, W, ends = _float_windows(M, cons)
        # Synthesize unit-width windows on semi-infinite sides for the anchor.
        alo, ahi = lo.copy(), hi.copy()
        for i in range(M.n):
            if np.isinf(alo[i]) and np.isinf(ahi[i]):
                alo[i], ahi[i] = -0.5, 0.5
            elif np.isinf(alo[i]):
                alo[i] = ahi[i] - 1.0
            elif np.isinf(ahi[i]):
                ahi[i] = alo[i] + 1.0
        mids = (alo + ahi) / 2.0

        d = np.array(direction.floats())
        d = d / np.linalg.norm(d)
        system = np.vstack([C, d])
        rhs = np.concatenate([mids, [0.0]])
        try:
            p0 = np.linalg.solve(system, rhs)
        except np.linalg.LinAlgError:  # n != m - 1, or dependent forms
            p0 = np.linalg.lstsq(system, rhs, rcond=None)[0]

        # Above 2^53 many probes round to one point; check each point once.
        checked: set[IntVec] = set()
        while probes < probe_budget:
            count = min(_T0.size, probe_budget - probes)
            ts = _T0[:count] + (probes // 2) * _PARITY[:count]
            # One row per coordinate, one column per probe: few long numpy loops.
            Z = np.rint(p0[:, None] + d[:, None] * ts)
            # A probe is dropped only when it is certainly outside a window: its
            # value differs from an endpoint's by more than both error bounds.
            V = C @ Z
            S = filter_margin(W, Z) + ends[:, None]
            mask = np.all((V - lo[:, None] >= -S) & (V - hi[:, None] <= S), axis=0)
            for idx in np.flatnonzero(mask):
                z = tuple(int(v) for v in Z[:, idx])
                if z in checked:
                    continue
                checked.add(z)
                if satisfies(M, cons, z):
                    return WitnessResult(z, probes + int(idx) + 1, "line")
            probes += count

    z = witness_brute(M, cons, brute_box(m))
    if z is None:
        raise ProbeBudgetExhaustedError(
            "witness not found within probe budget and brute box"
        )
    return WitnessResult(z, probes, "brute")


def witness(
    M: MultiOrder,
    cons: IntervalConstraint,
    probe_budget: int = DEFAULT_PROBE_BUDGET,
) -> IntVec:
    return find_witness(M, cons, probe_budget).point


def interval_around(
    M: MultiOrder, points: list[IntVec], choices: list[int]
) -> IntervalConstraint:
    """The constraint picking, per order, the choices[i]-th of the k+1
    intervals into which the points divide the order."""
    bounds = []
    for o, t in zip(M.orders, choices):
        ranked = sorted(points, key=_cmp_key(o))
        lo = ranked[t - 1] if t > 0 else None
        hi = ranked[t] if t < len(points) else None
        bounds.append((lo, hi))
    return IntervalConstraint(tuple(bounds))


def _cmp_key(o: OrderSpec):
    return functools.cmp_to_key(lambda a, b: int(o.compare(a, b)))


def extension_property_test(
    M: MultiOrder,
    k: int,
    trials: int,
    box: int,
    rng_seed: int = 0,
) -> ExtensionReport:
    """Randomized corroboration of the k-point extension property.

    For each trial: sample k distinct points of the box [-box, box]^m,
    choose one of the k+1 intervals per order, and search for a common
    point with find_witness; a query it exhausts is recorded as a failure.
    """
    if box < 0 or not 1 <= k <= (2 * box + 1) ** M.rank:
        raise ValueError("need box >= 0 and 1 <= k <= (2 * box + 1)^m points")
    rng = random.Random(rng_seed)
    failures = []
    for _ in range(trials):
        points: set[IntVec] = set()
        while len(points) < k:
            points.add(tuple(rng.randint(-box, box) for _ in range(M.rank)))
        pts = sorted(points)
        choices = [rng.randint(0, k) for _ in range(M.n)]
        cons = interval_around(M, pts, choices)
        try:
            find_witness(M, cons)
        except ProbeBudgetExhaustedError:
            failures.append((pts, choices, cons))
    return ExtensionReport(trials=trials, failures=failures)
