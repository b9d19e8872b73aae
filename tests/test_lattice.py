import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from multiorder.lattice import (
    first_in_box,
    hermite_form,
    in_lattice,
    int_kernel,
    iter_box,
    same_lattice,
    shell_blocks,
)


class TestKernel:
    def test_sum_zero_plane(self):
        basis = int_kernel([[1, 1]])
        assert same_lattice(basis, [(1, -1)])

    def test_scaled_row(self):
        basis = int_kernel([[2, 4]])
        assert same_lattice(basis, [(2, -1)])

    def test_two_constraints(self):
        # x1 + x3 = 0 and x2 + x3 = 0
        basis = int_kernel([[1, 0, 1], [0, 1, 1]])
        assert same_lattice(basis, [(1, 1, -1)])

    def test_kernel_is_saturated(self):
        basis = int_kernel([[6, 10, 15]])
        assert len(basis) == 2
        # every small solution must be generated
        for z in itertools.product(range(-8, 9), repeat=3):
            if 6 * z[0] + 10 * z[1] + 15 * z[2] == 0:
                assert in_lattice(basis, z)

    @pytest.mark.parametrize(
        "rows, want",
        [
            ([[6, 10, 15]], [(-5, 3, 0), (-30, 15, 2)]),
            ([[3, -1, 2, 5], [1, 1, 1, 1]], [(3, 1, -4, 0), (9, 4, -14, 1)]),
            # zero leading entries: the elimination swaps rows
            ([[0, 0, 2, -3]], [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -3, -2)]),
        ],
    )
    def test_pinned_bases(self, rows, want):
        assert int_kernel(rows) == want

    def test_kernel_members_annihilate(self):
        rows = [[3, -1, 2, 5], [1, 1, 1, 1]]
        for b in int_kernel(rows):
            for r in rows:
                assert sum(x * y for x, y in zip(r, b)) == 0


class TestMembership:
    def test_hermite_and_membership(self):
        basis = [(2, 0), (0, 3)]
        assert in_lattice(basis, (4, -3))
        assert not in_lattice(basis, (1, 0))
        h = hermite_form(basis)
        assert len(h) == 2


class TestEnumeration:
    def test_canonical_order_oracle(self):
        # Oracle: explicit sort of the full box by (max-norm, lex).
        pts = list(iter_box(2, 3))
        box = list(itertools.product(range(-3, 4), repeat=2))
        expected = sorted(box, key=lambda p: (max(abs(x) for x in p), p))
        assert pts == expected

    def test_no_duplicates_m3(self):
        pts = list(iter_box(3, 2))
        assert len(pts) == 5**3
        assert len(set(pts)) == len(pts)

    def test_shell_blocks_match_iter(self):
        for m in (1, 2, 3):
            for s in (0, 1, 2):
                from multiorder.lattice import _iter_shell

                got = np.concatenate(list(shell_blocks(m, s)))
                want = np.array(list(_iter_shell(m, s)))
                assert np.array_equal(got, want)


def integer_windows(C, lo, hi):
    """Float inputs for first_in_box and the exact predicate they stand for:
    integer forms C and half-integer windows make the float filter exact,
    so the slack is zero."""
    def accept(z):
        return all(l < sum(c * x for c, x in zip(row, z)) < h
                   for row, l, h in zip(C, lo, hi))
    C = np.array(C, dtype=float)
    return C, np.array(lo, dtype=float), np.array(hi, dtype=float), np.zeros(len(C)), accept


class TestBoxScanKernel:
    @pytest.mark.parametrize(
        "C, lo, hi, box, want",
        [
            # only the outer shell, at |t| = box with an inner prefix
            ([[1, 0], [0, 1]], [-0.5, 3.5], [0.5, 4.5], 4, (0, 4)),
            # only the outer shell, at |p| = box with an inner t
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [-0.5, -4.5, -0.5], [0.5, -3.5, 0.5], 4, (0, -4, 0)),
            # negative last coefficient: -t in (3.5, 4.5)
            ([[1, 0], [2, -1]], [-0.5, 3.5], [0.5, 4.5], 4, (0, -4)),
            # zero last coefficient: the form filters the prefix only
            ([[3, 0], [1, 1]], [5.5, 0.5], [6.5, 2.5], 4, (2, -1)),
            # m = 1, both signs of the coefficient
            ([[-2]], [-8.5], [-7.5], 4, (4,)),
            ([[3]], [-3.5], [-2.5], 4, (-1,)),
            # solution just outside the box
            ([[1, 0], [0, 1]], [-0.5, 3.5], [0.5, 4.5], 3, None),
            # open sides: every point qualifies, the origin comes first
            ([[1, 1]], [-np.inf], [np.inf], 4, (0, 0)),
            # a box scanned in several radii, the point on its outer shell
            ([[1, 0, 0], [0, 1, 0], [1, 1, 1]], [-0.5, 2.5, -17.5], [0.5, 3.5, -16.5], 20, (0, 3, -20)),
        ],
    )
    def test_cases_match_iter_box(self, C, lo, hi, box, want):
        C, lo, hi, slack, accept = integer_windows(C, lo, hi)
        seen = []
        got = first_in_box(C, lo, hi, slack, box, lambda z: seen.append(z) or accept(z))
        ref = next((z for z in iter_box(C.shape[1], box) if accept(z)), None)
        assert got == ref == want
        # The filter is exact here, so no candidate may fail the check.
        assert seen == ([want] if want else [])

    def test_candidates_in_canonical_order(self):
        # x + 2y - t in {-1, 0, 1}: many lines, several points on each.
        C, lo, hi, slack, accept = integer_windows([[1, 2, -1]], [-1.5], [1.5])
        seen = []
        assert first_in_box(C, lo, hi, slack, 12, lambda z: seen.append(z) or False) is None
        assert seen == [z for z in iter_box(3, 12) if accept(z)]


def _rounded(q, direction):
    """The float next to the rational q on the given side (-inf or +inf)."""
    f = float(q)
    if (Fraction(f) - q) * direction < 0:
        f = math.nextafter(f, direction)
    return f


def tight_windows(rng):
    """Float forms and a point z of [-4, 4]^m with windows of one or two
    ulps around the exact values C z, so the t-bounds of z's line lie a
    few ulps from an integer.  Entries have full 53-bit mantissas, so the
    kernel's products, differences and quotients round; some are zero."""
    m, n = rng.randint(1, 4), rng.randint(1, 3)
    C = [[rng.choice((0, rng.randint(-(2**53), 2**53))) * 2.0**-49 for _ in range(m)]
         for _ in range(n)]
    z = tuple(rng.randint(-4, 4) for _ in range(m))
    exact = [sum(Fraction(c) * x for c, x in zip(row, z)) for row in C]
    lo = [_rounded(v, -math.inf) for v in exact]
    hi = [_rounded(v, math.inf) for v in exact]
    return np.array(C), np.array(lo), np.array(hi), z


# Cases of tight_windows where the computed t-bound of z's line lies one
# ulp inside z's last coordinate: unwidened, the lower bound (first two) or
# the upper bound (last two) drops z.
ONE_ULP_CASES = [
    ([[-15.295629145220872, 0.0, 1.9411336537111765], [-15.120614769593487, 0.0, 0.0],
      [1.3064211551620435, -0.1434424923445654, -10.669675626117897]],
     [-24.767857329308214, -30.241229539186975, -29.683069552718734],
     [-24.767857329308214, -30.241229539186975, -29.683069552718734], (2, 2, 3)),
    ([[10.972785664126222, 14.594692833388393], [-14.479277376173894, -5.801417363227584],
      [0.7530446550114309, 7.173255565705942]],
     [-54.75686416429141, 31.883529465856643, -22.272811352129256],
     [-54.7568641642914, 31.883529465856647, -22.272811352129256], (-1, -3)),
    ([[9.685625702528906, 9.829902113515063, -2.30039204199009, 3.121694585620636],
      [-4.551079045821448, 0.0, 0.0, -8.230472679469685],
      [-0.12055254469903964, 0.0, 0.0, 6.9824878394210455]],
     [-53.78228377525018, -11.038180900944711, 21.309121152360255],
     [-53.78228377525018, -11.038180900944711, 21.309121152360255], (-3, -3, 2, 3)),
    ([[1.1199926202656751, -5.840361436007983], [0.0, 0.0]],
     [20.881062168820975, 0.0], [20.881062168820975, 0.0], (3, -3)),
]


class TestKernelRounding:
    @pytest.mark.parametrize("C, lo, hi, z", ONE_ULP_CASES)
    def test_one_ulp_cases(self, C, lo, hi, z):
        got = first_in_box(np.array(C), np.array(lo), np.array(hi), np.zeros(len(C)), 4,
                           lambda p: p == z)
        assert got == z

    def test_point_on_window_ends_is_a_candidate(self):
        # No slack: the kernel's own rounding of each line's t-interval
        # must still keep a point whose exact value lies in the window.
        rng = random.Random(0)
        for _ in range(400):
            C, lo, hi, z = tight_windows(rng)
            got = first_in_box(C, lo, hi, np.zeros(len(C)), 4, lambda p: p == z)
            assert got == z
