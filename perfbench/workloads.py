"""The four benchmark workloads: seeded inputs, one operation, its check.

A workload's `setup(seed, tiny, workdir)` builds every input the timed loop
will use and returns it as a list of rounds.  A round is a short, fixed mix
of operations; the runner only stops between rounds, so every run measures
the same mix and the ratio of cheap to expensive operations never depends
on where the clock ran out.  Each `Op` has `run()`, which is what gets
timed, and `check(output)`, which runs after the timed region.

The library is always reached through its module attributes
(`genericity.find_witness`, `cli.run`, ...) so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import math
import os
import random
import tempfile
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from multiorder import cli, field, finite, genericity, matrix, refuter
from multiorder.orders import LinearForm, OrderSpec


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    path: str | None = None


# -- witness-narrow ---------------------------------------------------------

# m -> (box radius of the vector table, narrowest and widest window width,
# largest planted distance along the direction line).  Widths are
# log-uniform per order.  The line walk's probe count otherwise has an
# exponential tail, and its cost grows faster than linearly in the probe
# count because more probes need an exact check far out; a handful of
# queries would then decide a run's throughput.  Each query therefore
# plants a witness at a distance drawn from a stratified sequence up to
# the last entry, which caps the walk near twice that many probes.
WITNESS_HOSTS = {
    3: (40, 2e-3, 1.5e-2, 3_000),
    4: (8, 1.2e-2, 5e-2, 2_000),
    5: (4, 4e-2, 1.2e-1, 1_000),
}
WITNESS_HOSTS_TINY = {3: (12, 0.1, 0.3, 50)}
WITNESS_ROUNDS = 400
# Max-norm of the windows' centre.  The line walk's float filter widens its
# margin with the norm of the probed points, so far from the origin most
# probes need an exact check, which is the cost the certified filter targets.
BASE_NORM = 100_000


class _VectorTable:
    """Lattice vectors of a box sorted by one order's positive leading value."""

    def __init__(self, order: OrderSpec, radius: int):
        axis = np.arange(-radius, radius + 1)
        grid = np.stack(np.meshgrid(*[axis] * order.rank, indexing="ij"), axis=-1)
        points = grid.reshape(-1, order.rank)
        values = points @ np.array(order.leading.floats())
        keep = values > 0
        idx = np.argsort(values[keep], kind="stable")
        self.values = values[keep][idx]
        self.points = points[keep][idx]

    def index_at_least(self, value: float) -> int:
        return min(int(np.searchsorted(self.values, value)), len(self.values) - 1)

    def vector(self, j: int) -> tuple[int, ...]:
        return tuple(int(x) for x in self.points[j])


def _witness_op(M: genericity.MultiOrder, cons: genericity.IntervalConstraint) -> Op:
    def run():
        return genericity.find_witness(M, cons)

    def check(result) -> bool:
        return genericity.satisfies(M, cons, result.point)

    return Op(f"m{M.rank}", run, check)


def _stratified(rng: random.Random, dims: int):
    """Points of [0, 1)^dims from the additive recurrence with generalized
    golden-ratio steps, shifted by a seeded offset.  Any run of consecutive
    points covers the cube evenly, so every run meets the same spread of
    window widths and planted distances, whatever the seed."""
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    steps = [phi ** -(j + 1) for j in range(dims)]
    point = [rng.random() for _ in range(dims)]
    while True:
        yield point
        point = [(x + a) % 1.0 for x, a in zip(point, steps)]


def _planted_constraint(rng, M, tables, lo, hi, reach, u):
    """Windows of log-uniform width, all holding one planted lattice point
    at up to `reach` along the direction line from the windows' centre.

    `u` holds 2n + 1 coordinates in [0, 1): n log-widths, n positions of
    the planted point inside its window, and the planted distance."""
    n = len(tables)
    d = np.array(M.direction.floats())
    d /= np.linalg.norm(d)
    q = np.array([rng.uniform(-1.0, 1.0) for _ in range(M.rank)])
    q -= (q @ d) * d
    q *= BASE_NORM / np.abs(q).max()
    z = np.rint(q + rng.choice((-1, 1)) * u[2 * n] * reach * d).astype(np.int64)
    bounds = []
    for i, table in enumerate(tables):
        jv = table.index_at_least(math.exp(lo + u[i] * (hi - lo)))
        inside = (0.1 + 0.8 * u[n + i]) * table.values[jv]
        ju = min(table.index_at_least(inside), jv - 1)
        lower = tuple(int(a - b) for a, b in zip(z, table.points[ju]))
        bounds.append((lower, tuple(a + b for a, b in zip(lower, table.vector(jv)))))
    return genericity.IntervalConstraint(tuple(bounds))


def setup_witness_narrow(seed: int, tiny: bool, workdir: str) -> list[list[Op]]:
    rng = random.Random(seed)
    hosts = WITNESS_HOSTS_TINY if tiny else WITNESS_HOSTS
    per_host = []
    for m, (radius, narrow, wide, reach) in hosts.items():
        M = genericity.from_matrix(matrix.build(m, 0))
        tables = [_VectorTable(o, radius) for o in M.orders]
        samples = _stratified(rng, 2 * M.n + 1)
        per_host.append((M, tables, math.log(narrow), math.log(wide), reach, samples))
    rounds = []
    for _ in range(WITNESS_ROUNDS if not tiny else 4):
        ops = []
        for M, tables, lo, hi, reach, samples in per_host:
            cons = _planted_constraint(rng, M, tables, lo, hi, reach, next(samples))
            ops.append(_witness_op(M, cons))
        rounds.append(ops)
    return rounds


# -- embed-age --------------------------------------------------------------

EMBED_ROUNDS = 1600
# m -> (fewest, most) points of an embedded structure, and (most points of
# the shared part, most points each extension adds) for an amalgam.  Every
# point after the first few must land between two placed points, and the
# walk puts it anywhere inside its window, so some gaps end up very narrow.
# Such an embedding takes 20 ms to seconds instead of 3 ms: one in 400 at
# 6 points on m = 3, one in 200 at 7, one in 30 at 16-20.  At these sizes
# it happens about once in a run, well below the ten samples the tail
# latency looks past; the narrow-window queries themselves are
# witness-narrow's to measure.
EMBED_SIZES = {3: ((4, 5), (2, 2)), 4: ((4, 5), (2, 1))}


def _random_norder(rng: random.Random, k: int, n: int) -> finite.FiniteNOrder:
    orders = [tuple(range(k))] + [tuple(rng.sample(range(k), k)) for _ in range(n - 1)]
    return finite.FiniteNOrder(k, n, tuple(orders))


def _random_structure(rng: random.Random, M: genericity.MultiOrder) -> finite.FiniteNOrder:
    fewest, most = EMBED_SIZES[M.rank][0]
    return _random_norder(rng, rng.randint(fewest, most), M.n)


def _random_extension(rng: random.Random, a: finite.FiniteNOrder, extra: int):
    k = a.k + extra
    orders = []
    for seq in a.orders:
        seq = list(seq)
        for label in range(a.k, k):
            seq.insert(rng.randint(0, len(seq)), label)
        orders.append(tuple(seq))
    return finite.FiniteNOrder(k, a.n, tuple(orders)), tuple(range(a.k))


def _embeds(M: genericity.MultiOrder, s: finite.FiniteNOrder, emb) -> bool:
    points = list(emb.points)
    return len(points) == s.k and finite.induced(M, points).isomorphic(s)


def _embed_op(M: genericity.MultiOrder, s: finite.FiniteNOrder) -> Op:
    def run():
        return finite.embed(s, M)

    return Op(f"embed/m{M.rank}", run, lambda emb: _embeds(M, s, emb))


def _amalgam_op(M: genericity.MultiOrder, rng: random.Random) -> Op:
    shared, extra = EMBED_SIZES[M.rank][1]
    a = _random_norder(rng, rng.randint(1, shared), M.n)
    b1, f1 = _random_extension(rng, a, rng.randint(1, extra))
    b2, f2 = _random_extension(rng, a, rng.randint(1, extra))

    def run():
        c, g1, g2 = finite.amalgamate(a, b1, b2, f1, f2)
        return c, g1, g2, finite.embed(c, M)

    def check(out) -> bool:
        c, g1, g2, emb = out
        if c.k != b1.k + b2.k - a.k:
            return False
        if any(g1[f1[x]] != g2[f2[x]] for x in range(a.k)):
            return False
        for i in range(a.n):
            for b, g in ((b1, g1), (b2, g2)):
                ranks = [c.orders[i].index(g[x]) for x in b.orders[i]]
                if ranks != sorted(ranks):
                    return False
        return _embeds(M, c, emb)

    return Op(f"amalgam/m{M.rank}", run, check)


def setup_embed_age(seed: int, tiny: bool, workdir: str) -> list[list[Op]]:
    rng = random.Random(seed)
    m3 = genericity.from_matrix(matrix.build(3, 0))
    m4 = genericity.from_matrix(matrix.build(4, 0))
    rounds = []
    for _ in range(EMBED_ROUNDS if not tiny else 2):
        if tiny:
            ops = [_embed_op(m3, _random_norder(rng, 4, 2)), _amalgam_op(m3, rng)]
        else:
            ops = [_embed_op(m3, _random_structure(rng, m3)) for _ in range(4)]
            ops.append(_embed_op(m4, _random_structure(rng, m4)))
            ops += [_amalgam_op(m3, rng), _amalgam_op(m4, rng)]
        rounds.append(ops)
    return rounds


# -- refute-verify ----------------------------------------------------------

BASIS = field.RadicalBasis((2, 3, 5, 7))
# Radicands per dense row: a row of rank m takes one rational entry and m - 1
# radicals, which keeps its components Q-independent.
RADICALS = {
    2: [(2,), (3,), (5,), (7,)],
    3: [(2, 3), (5, 7), (2, 7), (3, 5)],
    4: [(2, 3, 5), (7, 6, 10), (14, 15, 21), (3, 7, 10), (2, 15, 35)],
}
TAGS = ("Dependent", "RationalKernel", "SmallVolume")
COND_LIMIT = 1000.0
INSTANCES_PER_CLASS = 8
# Ops of each (tag, m) class run alongside one m = 4 instance.  The m <= 3
# ops (many small scan calls) then take a little over half of the time and
# the m = 4 ops (few large scan calls) the rest, and the median op lies in
# the middle of the m = 2 ops, not on the edge between two classes.
SUB_ROUND = [("DiscreteBase", 1)] + [(t, 2) for t in TAGS] * 2 + [(t, 3) for t in TAGS]
SUB_ROUND_TINY = [("DiscreteBase", 1)] + [(t, 2) for t in TAGS]


def _dense_row(rng: random.Random, m: int, radicals: tuple[int, ...]):
    while True:
        coeffs = [BASIS.rational(Fraction(rng.randint(1, 3)))]
        for d in radicals[: m - 1]:
            coeffs.append(BASIS.sqrt(d, Fraction(rng.randint(1, 3), rng.randint(1, 2))))
        rng.shuffle(coeffs)
        if field.q_linear_independent(coeffs):
            return tuple(coeffs)


def _dense(coeffs) -> OrderSpec:
    return OrderSpec(len(coeffs), (LinearForm(tuple(coeffs)),))


def _leading_dependency(orders: list[OrderSpec]):
    return field.fs_row_dependency([o.leading.coeffs for o in orders])


def _gen_discrete_base(rng: random.Random, m: int) -> list[OrderSpec]:
    q = Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))
    return [OrderSpec(1, (LinearForm((BASIS.rational(q),)),))]


def _gen_dependent(rng: random.Random, m: int) -> list[OrderSpec]:
    rows = [_dense_row(rng, m, r) for r in rng.sample(RADICALS[m], m - 1)]
    mult = BASIS.scalar({rng.choice((2, 3)): Fraction(rng.randint(1, 3))})
    rows.append(tuple(mult * c for c in rows[0]))
    rng.shuffle(rows)
    return [_dense(r) for r in rows]


def _well_conditioned(forms: np.ndarray) -> bool:
    """Whether the small-volume path stays fast on these leading forms.

    It enumerates every lattice point of a box around a parallelepiped whose
    size grows with the condition number of the forms.  Above the limit a
    refute or verify can take minutes (one instance at m = 4 with pulled-back
    forms of condition 7e3 ran for over a minute), which would not fit a
    run; those instances are drawn again."""
    return bool(np.linalg.cond(forms) <= COND_LIMIT)


def _gen_rational_kernel(rng: random.Random, m: int) -> list[OrderSpec]:
    while True:
        lead = LinearForm(tuple(BASIS.rational(Fraction(rng.randint(1, 3))) for _ in range(m)))
        tie = LinearForm(_dense_row(rng, m, (2, 3, 5)))
        rest = [_dense(_dense_row(rng, m, r)) for r in rng.sample(RADICALS[m], m - 1)]
        orders = [OrderSpec(m, (lead, tie))] + rest
        kernel = np.array(refuter.kernel_lattice(lead, m), dtype=float)
        pulled = np.array([o.leading.floats() for o in rest]) @ kernel.T
        if _leading_dependency(orders) is None and _well_conditioned(pulled):
            return orders


def _gen_small_volume(rng: random.Random, m: int) -> list[OrderSpec]:
    while True:
        orders = [_dense(_dense_row(rng, m, r)) for r in rng.sample(RADICALS[m], m)]
        forms = np.array([o.leading.floats() for o in orders])
        if _leading_dependency(orders) is None and _well_conditioned(forms):
            return orders


GENERATORS = {
    "DiscreteBase": _gen_discrete_base,
    "Dependent": _gen_dependent,
    "RationalKernel": _gen_rational_kernel,
    "SmallVolume": _gen_small_volume,
}


def _cli(argv: list[str]) -> tuple[int, dict | None]:
    """`multiorder <argv>` in-process: exit code and its one JSON line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    text = out.getvalue().strip()
    return code, json.loads(text) if text else None


def _refute_verify_op(tag: str, m: int, orders_path: str) -> Op:
    # Each certificate goes to a new file: rewriting an existing file makes
    # some filesystems flush on close, which would time the disk, not the CLI.
    serial = itertools.count()

    def run():
        refuted = _cli(["refute", "--orders", orders_path])
        cert_path = f"{orders_path[: -len('.json')]}.{next(serial)}.cert.json"
        with open(cert_path, "w", encoding="utf-8") as fh:
            json.dump(refuted[1]["certificate"], fh)
        verified = _cli(["verify-cert", "--orders", orders_path, "--cert", cert_path])
        os.remove(cert_path)
        return refuted, verified

    def check(out) -> bool:
        (code, payload), (vcode, verdict) = out
        return (
            code == cli.EXIT_OK
            and payload["certificate"]["lemma_tag"] == tag
            and vcode == cli.EXIT_OK
            and verdict["valid"] is True
        )

    return Op(f"{tag}/m{m}", run, check, orders_path)


def tampered(certificate: dict) -> dict:
    """The certificate with the endpoints of its first finite interval swapped."""
    bad = copy.deepcopy(certificate)
    for interval in bad["constraints"]:
        if isinstance(interval["lower"], list) and isinstance(interval["upper"], list):
            interval["lower"], interval["upper"] = interval["upper"], interval["lower"]
            return bad
    raise ValueError("certificate has no finite interval to tamper with")


def tamper_rejected(orders_path: str, certificate: dict) -> bool:
    """True when `verify-cert` rejects the tampered certificate with exit 4."""
    bad_path = orders_path[: -len(".json")] + ".tampered.json"
    with open(bad_path, "w", encoding="utf-8") as fh:
        json.dump(tampered(certificate), fh)
    code, verdict = _cli(["verify-cert", "--orders", orders_path, "--cert", bad_path])
    return code == cli.EXIT_CERT_INVALID and verdict is not None and verdict["valid"] is False


def setup_refute_verify(seed: int, tiny: bool, workdir: str) -> list[list[Op]]:
    rng = random.Random(seed)
    workdir = tempfile.mkdtemp(dir=workdir)
    cheap = SUB_ROUND_TINY if tiny else SUB_ROUND
    heavy = [] if tiny else [(t, 4) for t in TAGS]
    count = 1 if tiny else INSTANCES_PER_CLASS
    pools: dict[tuple[str, int], list[Op]] = {}
    for tag, m in list(dict.fromkeys(cheap)) + heavy:
        pools[(tag, m)] = []
        for i in range(count):
            orders = GENERATORS[tag](rng, m)
            path = os.path.join(workdir, f"{tag}-m{m}-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([o.to_json() for o in orders], fh)
            pools[(tag, m)].append(_refute_verify_op(tag, m, path))
    used: Counter = Counter()

    def take(c: tuple[str, int]) -> Op:
        used[c] += 1
        return pools[c][(used[c] - 1) % count]

    rounds = []
    for _ in range(count):
        ops = []
        for c in heavy or [None]:
            ops += [take(k) for k in cheap]
            if c is not None:
                ops.append(take(c))
        rounds.append(ops)
    return rounds


def refute_verify_extra_checks(records) -> list[bool]:
    """One tampered certificate per tag, taken from the smallest instance."""
    first: dict[str, tuple[int, Op, dict]] = {}
    for op, output in records:
        if output is None:
            continue
        (code, payload), _ = output
        cert = payload and payload.get("certificate")
        if code != cli.EXIT_OK or not cert:
            continue
        tag = cert["lemma_tag"]
        rank = int(op.kind.rsplit("/m", 1)[1])
        if tag not in first or rank < first[tag][0]:
            first[tag] = (rank, op, cert)
    results = [tamper_rejected(op.path, cert) for _, op, cert in first.values()]
    missing = set(GENERATORS) - set(first)
    return results + [False] * len(missing)


# -- construct --------------------------------------------------------------

CONSTRUCT_SEEDS = 3
CONSTRUCT_SEED_RANGE = 20


def _construct_op(m: int, build_seed: int) -> Op:
    def run():
        A = matrix.build(m, build_seed)
        report = matrix.verify(A)
        M = genericity.from_matrix(A)
        M2 = genericity.MultiOrder.from_json(json.loads(json.dumps(M.to_json())))
        return A, report, M, M2

    def check(out) -> bool:
        A, report, M, M2 = out
        return A.verified and report.ok and M.n == m - 1 and M2 == M

    return Op(f"m{m}", run, check)


def setup_construct(seed: int, tiny: bool, workdir: str) -> list[list[Op]]:
    rng = random.Random(seed)
    seeds = rng.sample(range(CONSTRUCT_SEED_RANGE), CONSTRUCT_SEEDS)
    small = (2, 3) if tiny else (2, 3, 4, 5)
    rounds = []
    for r in range(CONSTRUCT_SEEDS):
        ops = [_construct_op(m, s) for s in seeds for m in small]
        if not tiny:
            ops.append(_construct_op(6, seeds[r]))
        rounds.append(ops)
    return rounds


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, bool, str], list[list[Op]]]
    extra_checks: Callable[[list], list[bool]] = lambda records: []


WORKLOADS = {
    "witness-narrow": Workload(setup_witness_narrow),
    "embed-age": Workload(setup_embed_age),
    "refute-verify": Workload(setup_refute_verify, refute_verify_extra_checks),
    "construct": Workload(setup_construct),
}
