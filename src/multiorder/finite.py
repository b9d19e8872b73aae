"""Finite n-orders: permutation patterns, amalgamation, and embedding into
a generic multiorder one point at a time."""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .genericity import (
    DEFAULT_PROBE_BUDGET,
    IntervalConstraint,
    MultiOrder,
    find_witness,
)
from .lattice import IntVec


class NotAnEmbeddingError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class FiniteNOrder:
    """k points carrying n total orders, each stored as the sequence of
    labels in ascending order."""

    k: int
    n: int
    orders: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        orders = self.orders
        if type(orders) is not tuple or any(type(o) is not tuple for o in orders):
            object.__setattr__(self, "orders", tuple(map(tuple, orders)))
        if len(self.orders) != self.n:
            raise ValueError("order count differs from n")
        for o in self.orders:
            if sorted(o) != list(range(self.k)):
                raise ValueError("each order must be a permutation of the labels")

    @property
    def is_normalized(self) -> bool:
        return self.orders[0] == tuple(range(self.k))

    def normalize(self) -> FiniteNOrder:
        """Relabel so that labels coincide with first-order ranks."""
        relabel = {lab: r for r, lab in enumerate(self.orders[0])}
        return FiniteNOrder(
            self.k,
            self.n,
            tuple(tuple(relabel[lab] for lab in o) for o in self.orders),
        )

    def rank_in(self, order_index: int, label: int) -> int:
        return self.orders[order_index].index(label)

    def isomorphic(self, other: FiniteNOrder) -> bool:
        return (
            self.k == other.k
            and self.n == other.n
            and self.normalize().orders == other.normalize().orders
        )

    def to_json(self) -> dict:
        return {"k": self.k, "n": self.n, "orders": [list(o) for o in self.orders]}

    @staticmethod
    def from_json(obj: dict) -> FiniteNOrder:
        return FiniteNOrder(obj["k"], obj["n"], tuple(tuple(o) for o in obj["orders"]))


@dataclass(frozen=True, slots=True)
class Embedding:
    """Label -> lattice point map realizing a finite n-order inside a
    multiorder."""

    points: tuple[IntVec, ...]

    def to_json(self) -> list:
        return [list(p) for p in self.points]


def pattern_of(s: FiniteNOrder) -> tuple[int, ...]:
    """For a 2-order: first-order ranks (1-based) read in second-order
    sequence; the usual permutation-pattern encoding."""
    if s.n != 2:
        raise ValueError("pattern_of needs exactly two orders")
    s = s.normalize()
    return tuple(lab + 1 for lab in s.orders[1])


def from_pattern(perm: tuple[int, ...]) -> FiniteNOrder:
    k = len(perm)
    if sorted(perm) != list(range(1, k + 1)):
        raise ValueError("not a permutation of 1..k")
    return FiniteNOrder(k, 2, (tuple(range(k)), tuple(p - 1 for p in perm)))


def induced(M: MultiOrder, points: list[IntVec]) -> FiniteNOrder:
    """The finite n-order the multiorder induces on distinct points; label
    j refers to points[j]."""
    if len(set(points)) != len(points):
        raise ValueError("points must be distinct")
    orders = []
    for o in M.orders:
        key = functools.cmp_to_key(
            lambda a, b, o=o: int(o.compare(points[a], points[b]))
        )
        orders.append(tuple(sorted(range(len(points)), key=key)))
    return FiniteNOrder(len(points), M.n, tuple(orders))


def embed(
    s: FiniteNOrder,
    M: MultiOrder,
    probe_budget: int = DEFAULT_PROBE_BUDGET,
) -> Embedding:
    """Place the points one at a time, each via a witness call constrained
    by its position relative to the already-placed points in every order."""
    if s.n != M.n:
        raise ValueError("order count mismatch")
    if not s.is_normalized:
        s = s.normalize()
    placed: dict[int, IntVec] = {}
    for label in s.orders[0]:
        bounds = []
        for i in range(s.n):
            seq = s.orders[i]
            pos = seq.index(label)
            lo = next(
                (placed[seq[t]] for t in range(pos - 1, -1, -1) if seq[t] in placed),
                None,
            )
            hi = next(
                (placed[seq[t]] for t in range(pos + 1, s.k) if seq[t] in placed),
                None,
            )
            bounds.append((lo, hi))
        cons = IntervalConstraint(tuple(bounds))
        placed[label] = find_witness(M, cons, probe_budget=probe_budget).point
    emb = Embedding(tuple(placed[lab] for lab in range(s.k)))
    if not induced(M, list(emb.points)).isomorphic(s):
        raise NotAnEmbeddingError("witness placement failed to realize the structure")
    return emb


def _check_embedding(a: FiniteNOrder, b: FiniteNOrder, f: tuple[int, ...]) -> None:
    if len(f) != a.k or len(set(f)) != a.k or any(not 0 <= x < b.k for x in f):
        raise NotAnEmbeddingError("map is not injective into the codomain")
    if a.n != b.n:
        raise NotAnEmbeddingError("order counts differ")
    for i in range(a.n):
        ranks = [b.rank_in(i, f[lab]) for lab in a.orders[i]]
        if ranks != sorted(ranks):
            raise NotAnEmbeddingError(f"map does not preserve order {i}")


def amalgamate(
    a: FiniteNOrder,
    b1: FiniteNOrder,
    b2: FiniteNOrder,
    f1: tuple[int, ...],
    f2: tuple[int, ...],
) -> tuple[FiniteNOrder, tuple[int, ...], tuple[int, ...]]:
    """Strong amalgam of b1 and b2 over a: the disjoint union glued along
    the image of a, merged order by order; new points of b1 and b2 landing
    in the same gap between a-points interleave with the b1 points first.

    Returns (c, g1, g2) with g1 . f1 == g2 . f2 pointwise on a.
    """
    _check_embedding(a, b1, f1)
    _check_embedding(a, b2, f2)
    # C labels: b1 labels keep their names; extra b2 labels are appended.
    g1 = tuple(range(b1.k))
    g2_map = {f2[lab]: f1[lab] for lab in range(a.k)}
    extra_b2 = [x for x in range(b2.k) if x not in g2_map]
    g2_map.update((x, b1.k + t) for t, x in enumerate(extra_b2))
    g2 = tuple(g2_map[x] for x in range(b2.k))
    kc = b1.k + len(extra_b2)

    # Each point of C sorts by (gap, source, position): the gap counts the
    # a-points before it in its own structure, and the source puts new b1
    # points (0) before new b2 points (1) before the a-point closing the gap.
    sides = ((b1, set(f1), g1, 0), (b2, set(f2), g2, 1))
    orders_c = []
    for i in range(a.n):
        keyed = [(gap, 2, 0, f1[lab]) for gap, lab in enumerate(a.orders[i])]
        for b, images, g, source in sides:
            gap = 0
            for pos, x in enumerate(b.orders[i]):
                if x in images:
                    gap += 1
                else:
                    keyed.append((gap, source, pos, g[x]))
        orders_c.append(tuple(label for *_, label in sorted(keyed)))
    c = FiniteNOrder(kc, a.n, tuple(orders_c))
    return c, g1, g2
