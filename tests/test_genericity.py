import functools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiorder import genericity
from multiorder.field import RadicalBasis
from multiorder.genericity import (
    IntervalConstraint,
    MalformedConstraintError,
    MultiOrder,
    NoDirectionError,
    ProbeBudgetExhaustedError,
    UnverifiedMatrixError,
    brute_box,
    extension_property_test,
    find_witness,
    first_satisfying,
    from_matrix,
    interval_around,
    satisfies,
    witness,
    witness_brute,
)
from multiorder.lattice import iter_box
from multiorder.matrix import OrderMatrix, build
from multiorder.orders import Cmp, LinearForm, OrderSpec
from oracles import line_walk_reference, signed_walk

B = RadicalBasis((2,))


@pytest.fixture(scope="module")
def m2():
    return from_matrix(build(2, 0))


@pytest.fixture(scope="module")
def m3():
    return from_matrix(build(3, 0))


@pytest.fixture(scope="module")
def m4():
    return from_matrix(build(4, 0))


def random_finite_constraint(M, rng, spread=6):
    bounds = []
    for o in M.orders:
        while True:
            x = tuple(rng.randint(-spread, spread) for _ in range(M.rank))
            y = tuple(rng.randint(-spread, spread) for _ in range(M.rank))
            c = o.compare(x, y)
            if c != 0:
                break
        bounds.append((x, y) if int(c) < 0 else (y, x))
    return IntervalConstraint(tuple(bounds))


class TestFromMatrix:
    def test_sqrt2_instance(self, m2):
        assert m2.n == 1
        b = m2.orders[0].leading.basis
        assert m2.orders[0].leading.coeffs == (b.one, b.sqrt(2))
        assert m2.direction.coeffs == (-b.sqrt(2), b.one)

    def test_counts(self, m3, m4):
        assert (m3.rank, m3.n) == (3, 2)
        assert (m4.rank, m4.n) == (4, 3)

    def test_unverified_rejected(self):
        A = build(2, 0)
        bare = OrderMatrix(A.m, A.rows, A.basis, verified=False)
        with pytest.raises(UnverifiedMatrixError):
            from_matrix(bare)

    def test_json_roundtrip(self, m3):
        back = MultiOrder.from_json(m3.to_json())
        assert back.rank == m3.rank
        assert back.orders == m3.orders


class TestWitnessBrute:
    def test_unit_interval(self, m2):
        cons = IntervalConstraint((((0, 0), (1, 1)),))
        z = witness_brute(m2, cons, 2)
        assert z is not None
        assert satisfies(m2, cons, z)

    def test_semi_infinite(self, m2):
        cons = IntervalConstraint((((0, 0), None),))
        z = witness_brute(m2, cons, 2)
        assert satisfies(m2, cons, z)

    def test_brute_is_first_in_canonical_order(self, m2):
        # Oracle: scan the canonical enumeration independently.
        from multiorder.lattice import iter_box

        cons = IntervalConstraint((((0, 0), (1, 1)),))
        expected = next(p for p in iter_box(2, 2) if satisfies(m2, cons, p))
        assert witness_brute(m2, cons, 2) == expected

    def test_not_found_in_box(self):
        # Z^1 with the usual order: nothing strictly between 0 and 1.
        o = OrderSpec(1, (LinearForm((B.one,)),))
        M = MultiOrder(1, (o,))
        cons = IntervalConstraint((((0,), (1,)),))
        assert witness_brute(M, cons, 10) is None

    def test_malformed_rejected(self, m2):
        with pytest.raises(MalformedConstraintError):
            witness_brute(m2, IntervalConstraint((((1, 1), (0, 0)),)), 2)


class TestWitness:
    def test_valid_on_unit_interval(self, m2):
        cons = IntervalConstraint((((0, 0), (1, 1)),))
        z = witness(m2, cons)
        assert satisfies(m2, cons, z)

    def test_all_infinite_gives_origin(self, m3):
        cons = IntervalConstraint((((None, None),) * m3.n))
        assert witness(m3, cons) == (0, 0, 0)

    def test_requires_direction(self):
        o = OrderSpec(1, (LinearForm((B.one,)),))
        M = MultiOrder(1, (o,))
        with pytest.raises(NoDirectionError):
            witness(M, IntervalConstraint((((0,), None),)))

    def test_repeated_order_walks_from_least_squares_anchor(self, m3):
        # The anchor system is square but singular: two equal leading forms.
        M = MultiOrder(3, (m3.orders[0], m3.orders[0]), m3.direction)
        cons = IntervalConstraint((((0, 0, 0), (5, 5, 5)), (None, None)))
        res = find_witness(M, cons)
        assert res.backend == "line"
        assert satisfies(M, cons, res.point)

    def test_budget_ends_in_brute_box(self, m3):
        # Two copies of one order whose windows meet only in (99, 100): the
        # walk holds the value at the anchor's least-squares 75, so all
        # 10,000 probes (one full chunk and one partial) miss, and the
        # brute box places the point.
        M = MultiOrder(3, (m3.orders[0], m3.orders[0]), m3.direction)
        cons = IntervalConstraint(
            (((0, 0, 0), (27, 21, 25)), ((26, 21, 25), (28, 21, 25)))
        )
        res = find_witness(M, cons, probe_budget=10_000)
        assert (res.point, res.probes, res.backend) == ((24, 24, 24), 10_000, "brute")

    def test_one_exact_check_per_point(self, m3, monkeypatch):
        # Above 2^53 many probes round to one point; each point is checked
        # once, and the witness and its probe count stay as pinned by the
        # CLI test of huge coordinates.
        checked = []

        def counted(M, cons, z):
            checked.append(z)
            return satisfies(M, cons, z)

        monkeypatch.setattr(genericity, "satisfies", counted)
        cons = IntervalConstraint(
            (((10**20, 0, 0), None), (None, (10**20 + 5, 1, 0)))
        )
        res = find_witness(m3, cons)
        assert len(checked) == len(set(checked))
        assert res.point == (
            98870961813840379904, -7855284390155188224, 7065663347481272320
        )
        assert (res.probes, res.backend) == (50819, "line")

    def test_deterministic(self, m3):
        rng = random.Random(11)
        cons = random_finite_constraint(m3, rng)
        assert find_witness(m3, cons) == find_witness(m3, cons)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_constraints_m3(self, m3, seed):
        rng = random.Random(seed)
        for _ in range(20):
            cons = random_finite_constraint(m3, rng)
            assert satisfies(m3, cons, witness(m3, cons))

    def test_monotone_under_relaxation(self, m3):
        rng = random.Random(5)
        for _ in range(10):
            cons = random_finite_constraint(m3, rng)
            z = witness(m3, cons)
            relaxed = IntervalConstraint(
                tuple((lo, None) for lo, _ in cons.bounds)
            )
            assert satisfies(m3, relaxed, z)

    def test_backend_agreement(self, m3):
        rng = random.Random(17)
        for _ in range(20):
            cons = random_finite_constraint(m3, rng, spread=4)
            brute = witness_brute(m3, cons, 12)
            if brute is not None:
                assert satisfies(m3, cons, witness(m3, cons))


class TestBruteBox:
    def test_sizes(self):
        want = [1024, 1024, 154, 36, 15, 8, 5, 3, 2, 2] + [1] * 5 + [0] * 5
        assert [brute_box(m) for m in range(1, 21)] == want

    def test_one_scan_equals_escalating_schedule(self, m2, m3, m4):
        # In (max-norm, lex) order every box is a prefix of a larger one, so
        # the one scan of brute_box(m) returns the first point of the
        # smallest capped box of 8, 16, ..., 1024 that holds one.  The
        # schedule-based fallback that this scan replaced passes it too.
        def schedule(M, cons):
            for b in (8, 16, 32, 64, 128, 256, 512, 1024):
                z = witness_brute(M, cons, min(b, brute_box(M.rank)))
                if z is not None:
                    return z
            return None

        rng = random.Random(17)
        ends = {"brute": 0, "exhausted": 0}
        for q in range(120):
            M = (m2, m3, m4)[q % 3]
            pts = {tuple(rng.randint(-6, 6) for _ in range(M.rank)) for _ in range(4)}
            pts = sorted(pts)
            cons = interval_around(M, pts, [rng.randint(0, len(pts)) for _ in M.orders])
            try:
                res = find_witness(M, cons, probe_budget=1)
            except ProbeBudgetExhaustedError:
                ends["exhausted"] += 1
                assert schedule(M, cons) is None
                continue
            if res.backend == "brute":
                ends["brute"] += 1
                assert (res.point, res.probes) == (schedule(M, cons), 1)
        assert sum(ends.values()) >= 30, ends


class TestExtensionProperty:
    def test_positive_direction_m3(self, m3):
        rep = extension_property_test(m3, k=3, trials=50, box=10)
        assert rep.passed

    def test_discrete_z1_fails(self):
        o = OrderSpec(1, (LinearForm((B.one,)),))
        M = MultiOrder(1, (o,))
        rep = extension_property_test(M, k=3, trials=40, box=5)
        assert rep.failures

    def test_negative_direction_square(self):
        # two dense orders on Z^2 cannot be generic
        b = RadicalBasis((2, 3))
        o1 = OrderSpec(2, (LinearForm((b.one, b.sqrt(2))),))
        o2 = OrderSpec(2, (LinearForm((b.sqrt(3), b.one)),))
        M = MultiOrder(2, (o1, o2))
        rep = extension_property_test(M, k=4, trials=60, box=6)
        assert rep.failures

    def test_more_points_than_box_rejected(self, m2):
        # The box [0, 0]^2 holds one point, so four distinct points can
        # never be sampled; the sampler used to loop forever.
        with pytest.raises(ValueError, match="k <="):
            extension_property_test(m2, k=4, trials=1, box=0)

    def test_negative_box_rejected(self, m2):
        # Rejected before sampling, not by random.randrange's empty range.
        with pytest.raises(ValueError, match="box >= 0"):
            extension_property_test(m2, k=1, trials=1, box=-1)

    def test_dropping_order_stays_generic(self, m4):
        for i in range(m4.n):
            kept = tuple(o for j, o in enumerate(m4.orders) if j != i)
            M = MultiOrder(m4.rank, kept, m4.direction)
            rep = extension_property_test(M, k=3, trials=20, box=8)
            assert rep.passed


# -- the box-scan kernel against a per-point reference -------------------------

RB = RadicalBasis((2, 3, 5))
small = st.integers(-3, 3)


@st.composite
def scan_orders(draw, m):
    """A dense order (distinct radicands, so Q-independent), or a recursive
    one: a rational leading form, whose last coefficient may be zero, with a
    dense tie-breaker."""
    radicals = draw(st.permutations((1, 2, 3, 5)))[:m]
    tie = LinearForm(tuple(
        RB.rational(draw(small.filter(bool))) if d == 1
        else RB.sqrt(d, Fraction(draw(small.filter(bool)), 2))
        for d in radicals
    ))
    if m == 1 or draw(st.booleans()):
        return OrderSpec(m, (tie,))
    lead = draw(st.lists(small, min_size=m, max_size=m).filter(any))
    return OrderSpec(m, (LinearForm(tuple(RB.rational(x) for x in lead)), tie))


@st.composite
def scan_cases(draw):
    m = draw(st.integers(1, 3))
    orders = [draw(scan_orders(m)) for _ in range(draw(st.integers(1, 3)))]
    point = st.none() | st.tuples(*[st.integers(-5, 5)] * m)
    bounds = []
    for o in orders:
        lo, hi = draw(point), draw(point)
        if lo is not None and hi is not None and o.compare(lo, hi) == Cmp.GREATER:
            lo, hi = hi, lo
        bounds.append((lo, hi))
    M = MultiOrder(m, tuple(orders))
    return M, IntervalConstraint(tuple(bounds)), draw(st.integers(0, 4))


class TestBoxScanOracle:
    @settings(max_examples=150, deadline=None)
    @given(scan_cases())
    def test_first_exact_point_matches_per_point_scan(self, case):
        M, cons, box = case
        ref = next((z for z in iter_box(M.rank, box) if satisfies(M, cons, z)), None)
        assert first_satisfying(M, cons, box) == ref


# -- golden witnesses: the float filter may not move any of them --------------

# Narrow windows far from the origin (max-norm about 1e5), each holding a
# point planted near the direction line: the windows, the witness and the
# probe count of the line walk.
GOLDEN_WITNESSES = [
    (3, [[[86320, -99885, -97512], [86286, -99883, -97494]], [[86259, -99907, -97464], [86226, -99923, -97438]]],
     [86289, -99879, -97499], 328),
    (3, [[[-100036, 58104, 49235], [-100025, 58095, 49236]], [[-100008, 58155, 49183], [-100028, 58132, 49210]]],
     [-100040, 58135, 49212], 753),
    (3, [[[-100004, 57539, 48197], [-100006, 57500, 48230]], [[-100027, 57475, 48262], [-100059, 57455, 48291]]],
     [-100020, 57505, 48234], 379),
    (3, [[[54972, 82051, 100009], [54956, 82017, 100046]], [[54969, 82017, 100033], [54937, 81997, 100062]]],
     [55000, 82041, 100001], 5),
    (4, [[[-99898, -14969, 21196, -66513], [-99897, -14970, 21204, -66519]], [[-99893, -14979, 21198, -66511], [-99891, -14972, 21194, -66513]], [[-99898, -14970, 21191, -66511], [-99905, -14974, 21192, -66507]]],
     [-99890, -14975, 21195, -66512], 434),
    (4, [[[99954, -25094, -69564, 23496], [99950, -25091, -69568, 23499]], [[99968, -25086, -69559, 23481], [99969, -25091, -69564, 23489]], [[99961, -25082, -69563, 23483], [99961, -25084, -69560, 23482]]],
     [99962, -25087, -69564, 23488], 149),
    (4, [[[-36656, 91453, 100094, 66094], [-36648, 91457, 100090, 66091]], [[-36652, 91457, 100094, 66089], [-36649, 91461, 100091, 66088]], [[-36647, 91459, 100089, 66091], [-36641, 91464, 100084, 66090]]],
     [-36654, 91457, 100087, 66096], 464),
    (4, [[[70905, -47062, 100028, 82514], [70899, -47063, 100031, 82515]], [[70906, -47060, 100035, 82506], [70904, -47060, 100028, 82513]], [[70909, -47054, 100034, 82501], [70907, -47057, 100034, 82504]]],
     [70910, -47059, 100033, 82506], 176),
    (5, [[[34875, -100027, 37514, -58110, 93420], [34878, -100030, 37517, -58107, 93416]], [[34877, -100024, 37513, -58113, 93421], [34881, -100023, 37512, -58116, 93423]], [[34875, -100022, 37513, -58111, 93418], [34879, -100023, 37511, -58110, 93419]], [[34879, -100022, 37514, -58114, 93419], [34882, -100025, 37511, -58113, 93423]]],
     [34879, -100025, 37517, -58113, 93418], 238),
    (5, [[[22742, 19789, 17396, -45708, 99989], [22746, 19786, 17397, -45711, 99991]], [[22743, 19784, 17398, -45706, 99989], [22744, 19781, 17397, -45704, 99990]], [[22742, 19788, 17398, -45707, 99987], [22739, 19789, 17399, -45705, 99984]], [[22741, 19791, 17392, -45705, 99988], [22738, 19789, 17389, -45703, 99991]]],
     [22739, 19787, 17394, -45705, 99990], 47),
    (5, [[[-25811, 89659, -61184, -99959, 6119], [-25807, 89657, -61181, -99963, 6120]], [[-25812, 89660, -61176, -99964, 6117], [-25810, 89664, -61178, -99967, 6118]], [[-25808, 89658, -61180, -99965, 6122], [-25808, 89662, -61178, -99966, 6118]], [[-25812, 89659, -61180, -99963, 6120], [-25815, 89656, -61180, -99964, 6124]]],
     [-25812, 89658, -61180, -99961, 6119], 252),
    (5, [[[14884, -100009, 2277, 25782, -41763], [14881, -100011, 2273, 25783, -41759]], [[14877, -100007, 2275, 25789, -41767], [14874, -100008, 2271, 25793, -41766]], [[14877, -100004, 2276, 25782, -41764], [14873, -100007, 2275, 25783, -41761]], [[14882, -100004, 2271, 25789, -41767], [14881, -100008, 2275, 25788, -41766]]],
     [14880, -100006, 2273, 25785, -41763], 60),
    # Planted further along the line: more than 4,000 probes each, and the
    # last one in the walk's second chunk of 8192.
    (3, [[[99771, 9919, 30354], [99736, 9956, 30344]], [[99744, 9884, 30396], [99711, 9868, 30422]]],
     [99755, 9885, 30391], 4603),
    (4, [[[-35750, -100852, 41365, -43413], [-35757, -100853, 41366, -43410]], [[-35740, -100858, 41376, -43422], [-35737, -100854, 41373, -43423]], [[-35747, -100854, 41372, -43420], [-35744, -100858, 41374, -43419]]],
     [-35746, -100859, 41371, -43415], 5557),
    (5, [[[-65159, 98224, -25427, -100899, -17431], [-65155, 98227, -25423, -100901, -17435]], [[-65159, 98225, -25422, -100901, -17434], [-65156, 98226, -25424, -100905, -17430]], [[-65155, 98227, -25426, -100901, -17433], [-65153, 98228, -25428, -100897, -17436]], [[-65156, 98226, -25423, -100906, -17430], [-65157, 98223, -25422, -100904, -17430]]],
     [-65156, 98227, -25426, -100903, -17431], 5813),
    (4, [[[45441, 2540, -97855, -26268], [45442, 2543, -97858, -26268]], [[45442, 2532, -97845, -26272], [45440, 2538, -97847, -26274]], [[45450, 2526, -97849, -26265], [45447, 2528, -97848, -26267]]],
     [45446, 2533, -97847, -26272], 11464),
]

# Narrow windows near the origin: m, box, the windows and the first point
# of the box in (max-norm, lex) order inside them.
GOLDEN_BRUTE = [
    (3, 16, [[[-7, 8, 7], [-3, 4, 8]], [[0, 1, 9], [-2, -4, 14]]],
     [-1, 5, 6]),
    (3, 16, [[[2, -3, -9], [6, -7, -8]], [[1, -8, -4], [-1, -13, 1]]],
     [0, -4, -7]),
    (4, 8, [[[-4, -5, 4, 0], [-6, -3, 1, 2]], [[0, -4, 6, -4], [0, -4, 5, -3]], [[-1, -5, 6, -3], [0, -5, 8, -5]]],
     [-2, -6, 5, -1]),
    (4, 8, [[[2, -5, 6, -1], [1, -2, 3, 0]], [[0, -2, 4, 0], [-1, -3, 3, 2]], [[-2, -4, 5, 1], [-1, -1, 2, 1]]],
     [-1, -4, 7, -1]),
    (5, 5, [[[0, 6, 0, 7, -2], [-1, 4, 2, 5, 0]], [[0, 2, 2, 8, -2], [2, 3, 3, 7, -3]], [[-1, 2, 2, 6, 0], [-1, 2, 3, 4, 1]], [[0, 2, 1, 8, -1], [2, 3, 3, 6, -2]]],
     [1, 5, 0, 5, 0]),
    (5, 5, [[[-2, -2, 8, 3, -1], [0, 0, 7, 3, -2]], [[-3, 2, 4, 4, -1], [-2, 4, 2, 4, -1]], [[-4, 0, 6, 4, -1], [-6, -2, 6, 4, 1]], [[-4, 0, 5, 5, -1], [-5, 0, 3, 5, 1]]],
     [-4, 1, 4, 4, 0]),
]


def _constraint(bounds):
    return IntervalConstraint(tuple((tuple(lo), tuple(hi)) for lo, hi in bounds))


@pytest.fixture(scope="module")
def hosts():
    return {m: from_matrix(build(m, 0)) for m in (3, 4, 5)}


class TestGoldenWitnesses:
    @pytest.mark.parametrize("m, bounds, point, probes", GOLDEN_WITNESSES)
    def test_line_walk_pinned(self, hosts, m, bounds, point, probes):
        res = find_witness(hosts[m], _constraint(bounds))
        assert (list(res.point), res.probes, res.backend) == (point, probes, "line")

    @pytest.mark.parametrize("m, box, bounds, point", GOLDEN_BRUTE)
    def test_brute_pinned(self, hosts, m, box, bounds, point):
        assert list(witness_brute(hosts[m], _constraint(bounds), box)) == point


# -- the line walk's probe schedule --------------------------------------------


class TestProbeSchedule:
    @pytest.mark.parametrize("name", ["_T0", "_PARITY"])
    def test_read_only(self, name):
        with pytest.raises(ValueError):
            getattr(genericity, name)[0] = 7.0

    @pytest.mark.parametrize(
        "start, count",
        [(0, 8192), (8192, 8192), (8192 * 121, 8192), (999_424, 576)],
        ids=["first", "second", "chunk-121", "last-of-default-budget"],
    )
    def test_shifted_chunk_is_signed_walk(self, start, count):
        # 999,424 = 122 * 8192: the 576 probes that end the default budget.
        T0, parity = genericity._T0[:count], genericity._PARITY[:count]
        ts = T0 + (start // 2) * parity
        assert ts.tobytes() == signed_walk(start, count).tobytes()


# -- the line walk against the reference walk ----------------------------------

# m -> radius of the table of short vectors that set the windows' widths, and
# the range of widths: narrow enough that many walks leave the first chunk.
WALK_TABLES = {
    2: (300, 1e-3, 1e-1),
    3: (30, 1e-3, 1e-1),
    4: (8, 1e-2, 0.3),
    5: (4, 4e-2, 0.5),
}


@functools.lru_cache(maxsize=None)
def walk_host(m, seed):
    """A matrix-built host and, per order, the vectors of a box whose leading
    value lies in (0, 1], sorted by that value."""
    M = from_matrix(build(m, seed))
    axis = np.arange(-WALK_TABLES[m][0], WALK_TABLES[m][0] + 1)
    grid = np.stack(np.meshgrid(*[axis] * m, indexing="ij"), -1).reshape(-1, m)
    tables = []
    for o in M.orders:
        values = grid @ np.array(o.leading.floats())
        idx = np.argsort(values)
        idx = idx[(values[idx] > 1e-9) & (values[idx] <= 1.0)]
        tables.append((values[idx], grid[idx]))
    return M, tables


@st.composite
def walk_cases(draw):
    """A host, one window per order of the drawn width around a centre near
    the origin or far out, and a budget that may end in any chunk."""
    m = draw(st.integers(2, 5))
    M, tables = walk_host(m, draw(st.integers(0, 2)))
    reach = draw(st.sampled_from([20, 100_000]))
    centre = [draw(st.integers(-reach, reach)) for _ in range(m)]
    _, narrow, wide = WALK_TABLES[m]
    bounds = []
    for values, vectors in tables:
        width = narrow * (wide / narrow) ** (draw(st.integers(0, 8)) / 8)
        v = vectors[min(int(np.searchsorted(values, width)), len(values) - 1)]
        lo = tuple(c + draw(st.integers(-2, 2)) for c in centre)
        bounds.append((lo, tuple(a + int(b) for a, b in zip(lo, v))))
    # Whole chunks, then a partial one or a few probes past a boundary.
    budget = draw(st.integers(0, 2)) * 8192 + draw(st.integers(1, 8192 + 17))
    return M, IntervalConstraint(tuple(bounds)), budget


def _walk(finder, M, cons, budget):
    try:
        res = finder(M, cons, budget)
    except ProbeBudgetExhaustedError:
        return "exhausted"
    return res.point, res.probes, res.backend


class TestLineWalkReference:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(walk_cases())
    def test_find_witness_matches_reference(self, case):
        M, cons, budget = case
        assert _walk(find_witness, M, cons, budget) == _walk(
            line_walk_reference, M, cons, budget
        )
