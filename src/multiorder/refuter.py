"""Constructive refutation certificates for non-generic order tuples.

Dispatch mirrors the induction of the non-existence proof: dependent
defining forms, a form with rationally dependent components (recurse on
its kernel sublattice), or all forms dense with a small-volume empty
parallelepiped.  Rank one bottoms out in the discrete base case.  Every
certificate carries only what the checker cannot recompute: its tag, its
intervals and the witnesses that are cheaper to check than to find.
verify_certificate re-checks it without trusting the refuter.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd

from .field import (
    FieldScalar,
    fs_cofactors,
    fs_det,
    fs_row_dependency,
    q_linear_independent,
    radicand_rows,
)
from .genericity import (
    IntervalConstraint,
    MalformedConstraintError,
    MultiOrder,
    first_satisfying,
    satisfies,
)
from .lattice import IntVec, int_kernel, iter_box, same_lattice, vec_scale, vec_sub
from .orders import Cmp, LinearForm, OrderSpec

DEFAULT_SCAN_BOX = 50
# SmallVolume's search bounds: the box of its width vectors, and the box of
# its cell shifts.
WIDTH_BOX_CAP = 64
MAX_SHIFT = 64

TAG_DEPENDENT = "Dependent"
TAG_RATIONAL_KERNEL = "RationalKernel"
TAG_SMALL_VOLUME = "SmallVolume"
TAG_DISCRETE_BASE = "DiscreteBase"


class NoCertificateFound(Exception):
    """No refutation exists within budget (expected when m > n)."""


class MalformedCertificateError(ValueError):
    pass


class SearchBudgetExhaustedError(RuntimeError):
    pass


@dataclass(frozen=True)
class Certificate:
    constraints: IntervalConstraint
    lemma_tag: str
    evidence: dict


# Each lemma's evidence fields and their kinds, the one schema the codec in
# serialize.py reads: int, Certificate, or a list of FieldScalar or of
# integer vectors.  A field is kept only when the checker cannot recompute
# it from the orders and the intervals.
EVIDENCE = {
    TAG_DEPENDENT: {"coeffs": [FieldScalar]},
    TAG_RATIONAL_KERNEL: {"order": int, "kernel_basis": [tuple], "inner": Certificate},
    TAG_SMALL_VOLUME: {},
    TAG_DISCRETE_BASE: {"order": int},
}


def _common_rank(orders: list[OrderSpec]) -> int:
    if not orders:
        raise ValueError("no orders given")
    m = orders[0].rank
    for o in orders:
        if o.rank != m:
            raise ValueError("orders have mixed ranks")
    return m


def _infinite_bounds(n: int) -> list[tuple[IntVec | None, IntVec | None]]:
    return [(None, None) for _ in range(n)]


# -- exact emptiness scanning ------------------------------------------------


def scan_box(
    orders: list[OrderSpec],
    bounds: tuple[tuple[IntVec | None, IntVec | None], ...],
    box: int,
) -> IntVec | None:
    """First point of [-box, box]^m meeting all open intervals, or None.

    Float prefilter on the leading forms (a necessary condition even for
    recursive orders), exact confirmation of every candidate.
    """
    M = MultiOrder(orders[0].rank, tuple(orders))
    return first_satisfying(M, IntervalConstraint(tuple(bounds)), box)


def _sanity_box(m: int) -> int:
    if m <= 3:
        return DEFAULT_SCAN_BOX
    return max(8, int(round(5e6 ** (1.0 / m))) // 2)


# -- small helpers -----------------------------------------------------------


def _search_sign_vector(form: LinearForm, want: int) -> IntVec:
    """First lattice vector whose form value has the wanted sign.  A form is
    never zero, so +-e_j for some c_j != 0 gives each sign: the unit shell
    always holds one."""
    return next(v for v in iter_box(form.rank, 1) if form.value(v).sign() == want)


def _min_positive_vector(form: LinearForm, box: int) -> tuple[IntVec, FieldScalar]:
    """Lattice vector with the smallest positive form value in the box; a
    nonzero form is positive somewhere on the unit shell."""
    best_v: IntVec | None = None
    best_val: FieldScalar | None = None
    for v in iter_box(form.rank, box):
        val = form.value(v)
        if val.sign() <= 0:
            continue
        if best_val is None or (val - best_val).sign() < 0:
            best_v, best_val = v, val
    return best_v, best_val


# -- lemma paths -------------------------------------------------------------


def _refute_discrete_base(orders: list[OrderSpec]) -> Certificate:
    o = orders[0]
    g = (1,) if o.compare((0,), (1,)) == Cmp.LESS else (-1,)
    bounds = _infinite_bounds(len(orders))
    bounds[0] = ((0,), g)
    return Certificate(
        IntervalConstraint(tuple(bounds)), TAG_DISCRETE_BASE, {"order": 0}
    )


def refute_dependent(
    orders: list[OrderSpec], k: int, coeffs: list[FieldScalar]
) -> Certificate:
    """Certificate from an exact field dependency c_k = sum a_j c_j (j < k).

    Orders j with a_j > 0 get the interval (0, p_j) with p_j positive,
    those with a_j < 0 get (q_j, 0) with q_j negative, pinning the
    combination a_j * (c_j . z) >= 0; order k gets an interval whose
    values are strictly negative, which no common point can reach.
    """
    forms = [o.leading for o in orders]
    signs = [a.sign() for a in coeffs]
    bounds = _infinite_bounds(len(orders))
    for j, s in enumerate(signs):
        if s == 0:
            continue
        p = _search_sign_vector(forms[j], s)
        zero = (0,) * orders[j].rank
        bounds[j] = (zero, p) if s > 0 else (p, zero)
    yk = _search_sign_vector(forms[k], -1)
    xk = vec_scale(2, yk)
    bounds[k] = (xk, yk)
    return Certificate(
        IntervalConstraint(tuple(bounds)), TAG_DEPENDENT, {"coeffs": list(coeffs)}
    )


def kernel_lattice(c: LinearForm, m: int) -> list[IntVec]:
    """Basis of the pure sublattice {z in Z^m : c . z = 0}, computed from
    the rational expansion of c over its radicands."""
    if c.rank != m:
        raise ValueError("form length differs from m")
    rows: list[list[int]] = []
    for frac_row in radicand_rows(c.coeffs):
        denom = 1
        for q in frac_row:
            denom = denom * q.denominator // gcd(denom, q.denominator)
        rows.append([int(q * denom) for q in frac_row])
    basis = int_kernel(rows)
    if not basis:
        raise ValueError("components are Q-independent; kernel is zero")
    return basis


def _pullback_order(o: OrderSpec, basis: list[IntVec]) -> OrderSpec:
    """Restriction of an order to the sublattice spanned by basis rows,
    expressed on Z^rank(basis) through those coordinates."""
    forms = []
    for f in o.forms:
        coeffs = [f.value(b) for b in basis]
        if all(c.is_zero() for c in coeffs):
            continue
        forms.append(LinearForm(tuple(coeffs)))
    return OrderSpec(len(basis), tuple(forms))


def _lift(v: IntVec | None, basis: list[IntVec]) -> IntVec | None:
    if v is None:
        return None
    m = len(basis[0])
    return tuple(sum(v[s] * basis[s][j] for s in range(len(basis))) for j in range(m))


def refute_rational_kernel(orders: list[OrderSpec], i: int) -> Certificate:
    """Recurse on the kernel sublattice of order i's leading form.

    The order-i interval has both endpoints inside the kernel with equal
    (zero) leading values, so every point of the open interval lies in the
    sublattice; the recursive certificate then empties the intersection.
    The recursion drops order i; when that finds no certificate, it keeps
    order i's tail, and order i's interval is then the lift of its inner
    interval, or (0, b0) if the inner certificate leaves it open.
    """
    m = _common_rank(orders)
    c_i = orders[i].leading
    basis = kernel_lattice(c_i, m)
    order_map = [j for j in range(len(orders)) if j != i]
    inner = None
    if order_map:
        with contextlib.suppress(NoCertificateFound):
            inner = refute([_pullback_order(orders[j], basis) for j in order_map])
    if inner is None:
        # On the kernel, order i's tail is still a total order.
        order_map = list(range(len(orders)))
        inner = refute([_pullback_order(o, basis) for o in orders])
    bounds = _infinite_bounds(len(orders))
    for j, (lo, hi) in zip(order_map, inner.constraints.bounds):
        bounds[j] = (_lift(lo, basis), _lift(hi, basis))
    if bounds[i] == (None, None):
        b0 = basis[0]
        zero = (0,) * m
        less = orders[i].compare(zero, b0) == Cmp.LESS
        bounds[i] = (zero, b0) if less else (b0, zero)
    return Certificate(
        IntervalConstraint(tuple(bounds)),
        TAG_RATIONAL_KERNEL,
        {"order": i, "kernel_basis": [tuple(b) for b in basis], "inner": inner},
    )


# -- small-volume path -------------------------------------------------------


def _imul(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]):
    prods = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return min(prods), max(prods)


def _iadd(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]):
    return a[0] + b[0], a[1] + b[1]


def _inverse_intervals(
    rows: list[tuple[FieldScalar, ...]], det: FieldScalar
) -> list[list[tuple[Fraction, Fraction]]]:
    """Outward rational enclosures of the entries of the matrix inverse.

    Entry (t, i) is adj[t][i] / det, and column i of the adjugate is
    (-1)^i times the cofactors of the rows other than row i.
    """
    dlo, dhi = det.isolate()
    rec = (1 / dhi, 1 / dlo)
    n = len(rows)
    if n == 1:
        return [[rec]]
    adj_cols = []
    for i in range(n):
        col = fs_cofactors(rows[:i] + rows[i + 1 :])
        adj_cols.append(col if i % 2 == 0 else tuple(-c for c in col))
    return [[_imul(adj_cols[i][t].isolate(), rec) for i in range(n)] for t in range(n)]


def _parallelepiped_empty(
    orders: list[OrderSpec],
    bounds: tuple[tuple[IntVec, IntVec], ...],
    inv_intervals: list[list[tuple[Fraction, Fraction]]],
) -> bool:
    """Exact emptiness of a bounded open slab intersection.

    The certified rational enclosure of C^{-1} maps the closed value box
    to integer coordinate ranges; every candidate is tested exactly.
    """
    n = len(orders)
    windows = []
    for (lo_pt, hi_pt), o in zip(bounds, orders):
        vlo = o.leading.value(lo_pt).isolate()
        vhi = o.leading.value(hi_pt).isolate()
        windows.append((min(vlo[0], vhi[0]), max(vlo[1], vhi[1])))
    ranges = []
    for t in range(n):
        acc = (Fraction(0), Fraction(0))
        for i in range(n):
            acc = _iadd(acc, _imul(inv_intervals[t][i], windows[i]))
        ranges.append((ceil(acc[0]), floor(acc[1])))
    M, cons = MultiOrder(n, tuple(orders)), IntervalConstraint(bounds)
    for z in itertools.product(*[range(lo, hi + 1) for lo, hi in ranges]):
        if satisfies(M, cons, z):
            return False
    return True


def refute_small_volume(orders: list[OrderSpec]) -> Certificate:
    """All forms independent and dense with m = n: build slab intervals of
    total volume below |det| and shift them until the parallelepiped
    contains no lattice point."""
    m = _common_rank(orders)
    n = len(orders)
    if n != m:
        raise ValueError("small-volume path needs as many orders as the rank")
    forms = [o.leading for o in orders]
    det = fs_det([f.coeffs for f in forms])
    s = det.sign()
    if s == 0:
        raise ValueError("forms are dependent; use the dependent path")
    absdet = det if s > 0 else -det

    box = 2
    while True:
        ps: list[IntVec] = []
        eps: list[FieldScalar] = []
        for f in forms:
            p, val = _min_positive_vector(f, box)
            ps.append(p)
            eps.append(val)
        prod = forms[0].basis.one
        for e in eps:
            prod = prod * e
        if (absdet - prod).sign() > 0:
            break
        box *= 2
        if box > WIDTH_BOX_CAP:
            raise SearchBudgetExhaustedError("width search box cap exceeded")

    inv_intervals = _inverse_intervals([f.coeffs for f in forms], det)
    for cell in iter_box(n, MAX_SHIFT):
        if any(k < 0 for k in cell):
            continue
        bounds = tuple((vec_scale(k, p), vec_scale(k + 1, p)) for k, p in zip(cell, ps))
        if _parallelepiped_empty(orders, bounds, inv_intervals):
            return Certificate(IntervalConstraint(bounds), TAG_SMALL_VOLUME, {})
    raise SearchBudgetExhaustedError("no empty translate within shift budget")


# -- dispatch ----------------------------------------------------------------


def refute(orders: list[OrderSpec]) -> Certificate:
    """Produce a verified certificate that the order tuple is not generic."""
    m = _common_rank(orders)
    n = len(orders)
    if m == 1:
        return _refute_discrete_base(orders)
    dep = fs_row_dependency([o.leading.coeffs for o in orders])
    if dep is not None:
        k, coeffs = dep
        return refute_dependent(orders, k, coeffs)
    for i, o in enumerate(orders):
        if not q_linear_independent(list(o.leading.coeffs)):
            return refute_rational_kernel(orders, i)
    if n >= m:
        return refute_small_volume(orders)
    raise NoCertificateFound(
        f"{n} independent dense orders on rank {m}: no certificate expected"
    )


# -- verification ------------------------------------------------------------


def _verify_dependent(orders: list[OrderSpec], cert: Certificate) -> bool:
    coeffs = cert.evidence["coeffs"]
    k = len(coeffs)
    forms = [o.leading for o in orders]
    basis = forms[0].basis
    if not 0 < k < len(orders) or any(c.basis != basis for c in coeffs):
        raise MalformedCertificateError("bad dependency coefficients")
    # exact dependency identity
    for t in range(orders[0].rank):
        acc = basis.zero
        for j in range(k):
            acc = acc + coeffs[j] * forms[j].coeffs[t]
        if not (acc - forms[k].coeffs[t]).is_zero():
            return False
    bounds = cert.constraints.bounds
    lower_sum = basis.zero
    for j in range(k):
        s = coeffs[j].sign()
        if s == 0:
            continue
        lo, hi = bounds[j]
        if lo is None or hi is None:
            return False
        anchor = lo if s > 0 else hi
        lower_sum = lower_sum + coeffs[j] * forms[j].value(anchor)
    lo_k, hi_k = bounds[k]
    if hi_k is None:
        return False
    return (forms[k].value(hi_k) - lower_sum).sign() < 0


def _verify_rational_kernel(orders: list[OrderSpec], cert: Certificate) -> bool:
    ev = cert.evidence
    i = ev["order"]
    basis = ev["kernel_basis"]
    inner: Certificate = ev["inner"]
    m = orders[0].rank
    if not (0 <= i < len(orders)) or not basis or any(len(b) != m for b in basis):
        raise MalformedCertificateError("bad kernel evidence")
    c_i = orders[i].leading
    for b in basis:
        if not c_i.value(b).is_zero():
            return False
    try:
        full = kernel_lattice(c_i, m)
    except ValueError:
        return False
    # A spanning set as large as the kernel's rank is a basis of it.
    if len(basis) != len(full) or not same_lattice(basis, full):
        return False
    lo_i, hi_i = cert.constraints.bounds[i]
    if lo_i is None or hi_i is None:
        return False
    if not (c_i.value(lo_i).is_zero() and c_i.value(hi_i).is_zero()):
        return False
    # The inner certificate covers the other orders, or all n orders; then
    # order i's interval is the lift of its inner one unless that is open.
    order_map = [j for j in range(len(orders)) if j != i]
    if len(inner.constraints.bounds) == len(orders):
        order_map = list(range(len(orders)))
    if not order_map:
        return False
    pulled = [_pullback_order(orders[j], basis) for j in order_map]
    # The inner check fits its intervals to the pulled-back orders, so only
    # then are its endpoints safe to lift.
    if not verify_certificate(pulled, inner):
        return False
    return all(
        cert.constraints.bounds[j] == (_lift(lo, basis), _lift(hi, basis))
        for j, (lo, hi) in zip(order_map, inner.constraints.bounds)
        if j != i or (lo, hi) != (None, None)
    )


def _verify_small_volume(orders: list[OrderSpec], cert: Certificate) -> bool:
    if len(orders) != orders[0].rank:
        return False
    forms = [o.leading for o in orders]
    det = fs_det([f.coeffs for f in forms])
    if det.is_zero():
        return False
    prod = forms[0].basis.one
    for f, (lo, hi) in zip(forms, cert.constraints.bounds):
        if lo is None or hi is None:
            return False
        width = f.value(vec_sub(hi, lo))
        if width.sign() <= 0:
            return False
        prod = prod * width
    absdet = det if det.sign() > 0 else -det
    if (absdet - prod).sign() <= 0:
        return False
    inv_intervals = _inverse_intervals([f.coeffs for f in forms], det)
    return _parallelepiped_empty(orders, cert.constraints.bounds, inv_intervals)


def _verify_discrete_base(orders: list[OrderSpec], cert: Certificate) -> bool:
    i = cert.evidence["order"]
    if not 0 <= i < len(orders):
        raise MalformedCertificateError("bad discrete-base order")
    # The intervals are validated, so lo lies below hi in order i; on Z they
    # are neighbours when they differ by one.
    lo, hi = cert.constraints.bounds[i]
    return orders[0].rank == 1 and None not in (lo, hi) and abs(hi[0] - lo[0]) == 1


_VERIFIERS = {
    TAG_DEPENDENT: _verify_dependent,
    TAG_RATIONAL_KERNEL: _verify_rational_kernel,
    TAG_SMALL_VOLUME: _verify_small_volume,
    TAG_DISCRETE_BASE: _verify_discrete_base,
}


def verify_certificate(orders: list[OrderSpec], cert: Certificate) -> bool:
    """Exact, refuter-independent validation of a certificate, plus a
    box-bounded brute scan confirming no common point exists.

    Intervals that do not fit the orders make a certificate invalid;
    malformed evidence or an unknown tag raises MalformedCertificateError.
    """
    m = _common_rank(orders)
    try:
        cert.constraints.validate(MultiOrder(m, tuple(orders)))
    except MalformedConstraintError:
        return False
    if cert.lemma_tag not in _VERIFIERS:
        raise MalformedCertificateError(f"unknown lemma tag {cert.lemma_tag!r}")
    if not _VERIFIERS[cert.lemma_tag](orders, cert):
        return False
    return scan_box(orders, cert.constraints.bounds, _sanity_box(m)) is None
