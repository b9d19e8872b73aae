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


# -- the box-scan kernel ------------------------------------------------------

_PREFIX_CHUNK = 1 << 15


def first_in_box(
    C: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    box: int,
    accept: Callable[[IntVec], bool],
) -> IntVec | None:
    """First z of [-box, box]^m in (max-norm, lex) order with accept(z), or None.

    C is an n x m float matrix; lo and hi hold n float windows, -inf/+inf
    for an open side.  Every z with lo - margin <= C z <= hi + margin is a
    candidate and goes to the exact predicate accept, in order.  The filter
    is affine in the last coordinate t, so each line z = (p, t) admits one
    interval of t.  The prefix radius doubles up to box, so a point near
    the origin costs little in a large box.
    """
    return next(filter(accept, _candidates(C, lo, hi, box)), None)


def _candidates(
    C: np.ndarray, lo: np.ndarray, hi: np.ndarray, box: int
) -> Iterator[IntVec]:
    """The points first_in_box hands to accept, in order."""
    margin = 1e-6 * (1.0 + box) * (1.0 + float(np.abs(C).max())) * C.shape[1]
    lo, hi = lo - margin, hi + margin
    reaches = [box]
    while reaches[-1] > 8:
        reaches.append((reaches[-1] + 1) // 2)
    start = 0
    for reach in reversed(reaches):
        total = (2 * reach + 1) ** (C.shape[1] - 1)
        parts = [
            _lines(C, lo, hi, reach, k, min(k + _PREFIX_CHUNK, total))
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
    C: np.ndarray, lo: np.ndarray, hi: np.ndarray, reach: int, first: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The prefixes first..stop-1 of [-reach, reach]^(m-1) in lex order that
    admit a t in [-reach, reach] with lo <= C (p, t) <= hi, and the bounds
    of those t."""
    P = np.empty((stop - first, C.shape[1] - 1))
    rest = np.arange(first, stop)
    for j in reversed(range(P.shape[1])):
        rest, P[:, j] = np.divmod(rest, 2 * reach + 1)
    P -= reach
    t_lo, t_hi = np.full(len(P), -reach, float), np.full(len(P), reach, float)
    for c, l, h in zip(C, lo, hi):
        u = P @ c[:-1]
        below, above = l - u, h - u
        if c[-1] == 0:  # the form filters the prefix, not t
            t_lo[(below > 0) | (above < 0)] = reach + 1
            continue
        if c[-1] < 0:
            below, above = above, below
        t_lo = np.maximum(t_lo, below / c[-1])
        t_hi = np.minimum(t_hi, above / c[-1])
    # Outward by a relative 1e-9 for the division (the margin covers the
    # forms); x -> x -+ eps |x| is monotone, so rounding the max rounds all.
    a = np.ceil(t_lo - 1e-9 * np.abs(t_lo))
    b = np.floor(t_hi + 1e-9 * np.abs(t_hi))
    keep = a <= b
    return P[keep], a[keep], b[keep]
