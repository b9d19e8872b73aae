"""Independent reference routes that the tests check the library against."""

from __future__ import annotations

import numpy as np

from multiorder.field import FieldScalar
from multiorder.genericity import (
    IntervalConstraint,
    MultiOrder,
    ProbeBudgetExhaustedError,
    WitnessResult,
    _float_windows,
    brute_box,
    satisfies,
    witness_brute,
)
from multiorder.lattice import IntVec, filter_margin


def fs_det_elimination(rows: list[tuple[FieldScalar, ...]]) -> FieldScalar:
    """Determinant by Gaussian elimination with exact division, a route
    independent of field.fs_det's cofactor expansion."""
    n = len(rows)
    work = [list(r) for r in rows]
    basis = rows[0][0].basis
    det = basis.one
    for col in range(n):
        piv = next((i for i in range(col, n) if not work[i][col].is_zero()), None)
        if piv is None:
            return basis.zero
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        pivot = work[col][col]
        det = det * pivot
        inv = pivot.inverse()
        for i in range(col + 1, n):
            if work[i][col].is_zero():
                continue
            f = work[i][col] * inv
            work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return det


def signed_walk(start: int, count: int) -> np.ndarray:
    """The line walk's offsets 0, 1, -1, 2, -2, ... from probe index start,
    computed from the indices themselves."""
    idx = np.arange(start, start + count)
    k = (idx + 1) // 2
    sign = np.where(idx == 0, 1, np.where(idx % 2 == 1, 1, -1))
    return (k * sign).astype(float)


def line_walk_reference(
    M: MultiOrder, cons: IntervalConstraint, probe_budget: int
) -> WitnessResult:
    """genericity.find_witness as it was before the precomputed probe
    schedule: every chunk builds its offsets with signed_walk."""
    cons.validate(M)
    m = M.rank
    if all(lo is None and hi is None for lo, hi in cons.bounds):
        return WitnessResult((0,) * m, 0, "line")

    C, lo, hi, W, ends = _float_windows(M, cons)
    alo, ahi = lo.copy(), hi.copy()
    for i in range(M.n):
        if np.isinf(alo[i]) and np.isinf(ahi[i]):
            alo[i], ahi[i] = -0.5, 0.5
        elif np.isinf(alo[i]):
            alo[i] = ahi[i] - 1.0
        elif np.isinf(ahi[i]):
            ahi[i] = alo[i] + 1.0
    mids = (alo + ahi) / 2.0

    d = np.array(M.direction.floats())
    d = d / np.linalg.norm(d)
    system = np.vstack([C, d])
    rhs = np.concatenate([mids, [0.0]])
    try:
        p0 = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        p0 = np.linalg.lstsq(system, rhs, rcond=None)[0]

    chunk = 8192
    probes = 0
    checked: set[IntVec] = set()
    while probes < probe_budget:
        count = min(chunk, probe_budget - probes)
        Z = np.rint(p0[:, None] + d[:, None] * signed_walk(probes, count))
        V = C @ Z
        S = filter_margin(W, Z) + ends[:, None]
        mask = np.all((V - lo[:, None] >= -S) & (V - hi[:, None] <= S), axis=0)
        for j in np.flatnonzero(mask):
            z = tuple(int(v) for v in Z[:, j])
            if z in checked:
                continue
            checked.add(z)
            if satisfies(M, cons, z):
                return WitnessResult(z, probes + int(j) + 1, "line")
        probes += count

    z = witness_brute(M, cons, brute_box(m))
    if z is None:
        raise ProbeBudgetExhaustedError(
            "witness not found within probe budget and brute box"
        )
    return WitnessResult(z, probes, "brute")
