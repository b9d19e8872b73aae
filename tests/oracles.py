"""Independent reference routes that the tests check the library against."""

from __future__ import annotations

from multiorder.field import FieldScalar


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
