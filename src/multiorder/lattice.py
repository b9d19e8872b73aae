"""Integer lattice utilities: kernels, Hermite reduction, box enumeration."""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

IntVec = tuple[int, ...]


def vec_sub(a: IntVec, b: IntVec) -> IntVec:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(k: int, a: IntVec) -> IntVec:
    return tuple(k * x for x in a)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _echelon(work: list[list[int]], ncols: int) -> int:
    """Row-reduce work in place over its first ncols columns by unimodular
    row operations, into echelon form with positive pivots; the rank.

    A pivot row is made positive only after its column is done, so the
    rows past the rank never depend on pivot signs.
    """
    row = 0
    for col in range(ncols):
        for i in range(row + 1, len(work)):
            if work[i][col] == 0:
                continue
            a, b = work[row][col], work[i][col]
            if a == 0:
                work[row], work[i] = work[i], work[row]
                continue
            g, x, y = _xgcd(a, b)
            p, q = a // g, b // g
            work[row], work[i] = (
                [x * u + y * v for u, v in zip(work[row], work[i])],
                [-q * u + p * v for u, v in zip(work[row], work[i])],
            )
        if work[row][col] != 0:
            if work[row][col] < 0:
                work[row] = [-v for v in work[row]]
            row += 1
            if row == len(work):
                break
    return row


def int_kernel(rows: list[list[int]]) -> list[IntVec]:
    """Z-basis of {z in Z^m : A z = 0} for an integer matrix A (list of rows).

    Reduces [A^T | I] over the columns of A^T: the identity part of each
    row past the rank is a unimodular combination mapped to 0 by A.  The
    kernel of an integer matrix is a saturated (pure) sublattice, so the
    returned basis generates every integer solution.
    """
    if not rows:
        raise ValueError("empty constraint matrix")
    m = len(rows[0])
    r = len(rows)
    work = [[a[j] for a in rows] + [int(i == j) for i in range(m)] for j in range(m)]
    rank = _echelon(work, r)
    return [tuple(w[r:]) for w in work[rank:]]


def hermite_form(basis: list[IntVec]) -> list[list[int]]:
    """Row-style Hermite echelon of the given generators (zero rows dropped)."""
    if not basis:
        return []
    work = [list(b) for b in basis]
    return work[: _echelon(work, len(work[0]))]


def in_lattice(basis: list[IntVec], v: IntVec) -> bool:
    """Membership of v in the integer row span of basis."""
    h = hermite_form(basis)
    rest = list(v)
    for row in h:
        col = next(j for j, x in enumerate(row) if x)
        if rest[col] % row[col] != 0:
            return False
        f = rest[col] // row[col]
        rest = [a - f * b for a, b in zip(rest, row)]
    return all(x == 0 for x in rest)


def same_lattice(a: list[IntVec], b: list[IntVec]) -> bool:
    return all(in_lattice(b, v) for v in a) and all(in_lattice(a, v) for v in b)


# -- canonical box enumeration ----------------------------------------------


def iter_box(m: int, bound: int) -> Iterator[IntVec]:
    """Points of [-bound, bound]^m ordered by (max-norm, lexicographic)."""
    for s in range(bound + 1):
        yield from _iter_shell(m, s)


def _iter_shell(m: int, s: int) -> Iterator[IntVec]:
    if s == 0:
        yield (0,) * m
        return
    if m == 1:
        yield (-s,)
        yield (s,)
        return
    for a in range(-s, s + 1):
        if abs(a) == s:
            for rest in _iter_full_box(m - 1, s):
                yield (a,) + rest
        else:
            for rest in _iter_shell(m - 1, s):
                yield (a,) + rest


def _iter_full_box(m: int, s: int) -> Iterator[IntVec]:
    if m == 0:
        yield ()
        return
    for a in range(-s, s + 1):
        for rest in _iter_full_box(m - 1, s):
            yield (a,) + rest


def shell_blocks(m: int, s: int) -> Iterator[np.ndarray]:
    """The max-norm-s shell in lexicographic order, as one array block."""
    yield np.array(list(_iter_shell(m, s)), dtype=np.int64).reshape(-1, m)


# -- the certified float filter -----------------------------------------------

UNIT_ROUNDOFF = 2.0**-53
# 1 + 2^-30 outweighs 2^20 further roundings of non-negative terms, each by
# a relative UNIT_ROUNDOFF at most; no margin takes more than a handful.
_MARGIN_ROUNDING = 1.0 + 2.0**-30


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for the unit roundoff u = 2^-53."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def filter_margin(W: np.ndarray, X) -> np.ndarray:
    """The error bound sum_j W[i, j] |X[j]| of every float filter, rounded up.

    W holds one row of weights per form, X one integer vector (or a stack
    of them as columns, or the corner (b, ..., b) of a box).  Take a form with exact
    coefficients c_j, floats c'_j = LinearForm.floats() and proven e_j >=
    |c_j - c'_j| (LinearForm.float_errors), and an integer vector x of
    length m.  Converting x to floats rounds x_j by a relative u = 2^-53 at
    most, and only when |x_j| > 2^53.  The float dot product V = fl(c' . x)
    puts each term through that conversion, one product and at most m - 1
    additions, so in any summation order (numpy, BLAS)

        |c . x - V| <= sum_j e_j |x_j| + |c' . x - V|
                    <= sum_j (e_j + gamma_{m+1} |c'_j|) |x_j| = E(x)

    (Higham, "Accuracy and Stability of Numerical Algorithms", 3.1).  So
    the weights are w_j = e_j + gamma_{m+1} |c'_j| (LinearForm.weights),
    and LinearForm.sign_at applies the same bound to one sign.  A float
    held probe needs no conversion, which leaves its bound with room to
    spare.  A product with a subnormal c'_j errs by up to 2^-1075, which
    e_j includes; an overflow makes numpy warn.  Computing the bound rounds it down by a
    relative u per operation, and so does every later sum, quotient or
    comparison of margins; the factor 1 + 2^-30 outweighs them all.

    A filter drops x only when fl(V - L) < -(E(x) + E(l)) for the float
    value L of a lower end l (and alike for an upper end).  That proves
    c . x < c . l, so x is certainly outside the window: a true witness is
    never dropped.  Open sides are -inf/+inf and margins are finite, so no
    inf - inf and no NaN ever arises.
    """
    return (W @ np.abs(np.asarray(X, dtype=float))) * _MARGIN_ROUNDING


# -- the box-scan kernel ------------------------------------------------------

_PREFIX_CHUNK = 1 << 15


def first_in_box(
    C: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    slack: np.ndarray,
    box: int,
    accept: Callable[[IntVec], bool],
) -> IntVec | None:
    """First z of [-box, box]^m in (max-norm, lex) order with accept(z), or None.

    C is an n x m float matrix; lo and hi hold n float windows, -inf/+inf
    for an open side, and slack n margins (filter_margin).  Every z whose
    exact value C z, taken over the floats in C, lies in [lo - slack, hi +
    slack] is a candidate and goes to the exact predicate accept, in order;
    the kernel's own rounding only ever adds candidates.  The filter is
    affine in the last coordinate t, so each line z = (p, t) admits one
    interval of t.  The prefix radius doubles up to box, so a point near
    the origin costs little in a large box.
    """
    return next(filter(accept, _candidates(C, lo, hi, slack, box)), None)


def _candidates(
    C: np.ndarray, lo: np.ndarray, hi: np.ndarray, slack: np.ndarray, box: int
) -> Iterator[IntVec]:
    """The points first_in_box hands to accept, in order."""
    reaches = [box]
    while reaches[-1] > 8:
        reaches.append((reaches[-1] + 1) // 2)
    start = 0
    m = C.shape[1]
    for reach in reversed(reaches):
        # The prefix dot product p . C[:, :-1] is off by gamma_{m-1} |C| |p|.
        err = slack + filter_margin(gamma(m - 1) * np.abs(C[:, :-1]), [reach] * (m - 1))
        total = (2 * reach + 1) ** (m - 1)
        parts = [
            _lines(C, lo, hi, err, reach, k, min(k + _PREFIX_CHUNK, total))
            for k in range(0, total, _PREFIX_CHUNK)
        ]
        P, a, b = (np.concatenate(x) for x in zip(*parts))
        # Line p meets the shells max(|p|, min |t|) .. max(|p|, max |t|): at
        # s = |p| with each t in [-s, s], beyond it with t = -s and t = s.
        r = np.abs(P).max(axis=1, initial=0)
        s_min = np.maximum(r, np.maximum(a, -b))
        s_max = np.maximum(r, np.maximum(-a, b))
        for s in range(start, reach + 1):
            for k in np.flatnonzero((s_min <= s) & (s <= s_max)):
                p, ak, bk = tuple(int(x) for x in P[k]), int(a[k]), int(b[k])
                if r[k] == s:
                    ts = range(max(ak, -s), min(bk, s) + 1)
                else:
                    ts = [t for t in (-s, s) if ak <= t <= bk]
                yield from (p + (t,) for t in ts)
        start = reach + 1


def _lines(
    C: np.ndarray, lo: np.ndarray, hi: np.ndarray, err: np.ndarray,
    reach: int, first: int, stop: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The prefixes first..stop-1 of [-reach, reach]^(m-1) in lex order that
    admit a t in [-reach, reach] with lo - slack <= C (p, t) <= hi + slack,
    and the bounds of those t.  err is slack plus the error of the prefix
    values v = fl(p . C[:, :-1]).

    For c = C[i, -1] > 0, t >= (lo_i - slack_i - p . C[i, :-1]) / c (the
    upper side and c < 0 are alike).  The subtraction and the division
    round by a relative u = 2^-53 each, so x = fl(fl(lo_i - v) / c) is
    within (err_i - slack_i) / c + 3 u |x| of the exact quotient.  Only
    |x| <= reach + 1 matters, so lowering x by err_i / c + 8 u (reach + 1)
    stays below the exact bound, the spare ulps covering the rounding of
    the lowering itself.  A form with c = 0 filters the prefix through the
    same bounds, with 1 in place of c.
    """
    P = np.empty((stop - first, C.shape[1] - 1))
    rest = np.arange(first, stop)
    for j in reversed(range(P.shape[1])):
        rest, P[:, j] = np.divmod(rest, 2 * reach + 1)
    P -= reach
    t_lo, t_hi = np.full(len(P), -reach, float), np.full(len(P), reach, float)
    edge = reach + 1.0
    with np.errstate(over="ignore"):  # a quotient that overflows is clipped
        for c, l, h, e in zip(C, lo, hi, err):
            v = P @ c[:-1]
            below, above = (v - h, v - l) if c[-1] < 0 else (l - v, h - v)
            scale = abs(c[-1]) or 1.0
            # Bounds beyond the edge reach + 1 decide the same when clipped
            # to it, which leaves no inf to meet another in an inf - inf.
            wide = e / scale + 8 * UNIT_ROUNDOFF * edge
            below = np.minimum(below / scale, edge) - wide
            above = np.maximum(above / scale, -edge) + wide
            if c[-1] == 0:  # the form filters the prefix, not t
                t_lo[(below > 0) | (above < 0)] = reach + 1
                continue
            t_lo = np.maximum(t_lo, below)
            t_hi = np.minimum(t_hi, above)
    a, b = np.ceil(t_lo), np.floor(t_hi)
    keep = a <= b
    return P[keep], a[keep], b[keep]
