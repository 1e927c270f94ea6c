"""Poset induction over colored divisors: subscheme lattices, monotone
maps, fiber ranks, and product-coordinate data at generic configurations.

The rank layer is pure order combinatorics.  The value layer attaches to
every monotone system of subdivisors the product of evaluated pair
kernels inside each member, normalized so the empty system has value 1;
factorization over disjoint supports is checked exactly through the
canonical pair-kernel trivialization scalars.  Only configurations with
pairwise distinct points, under distinct ids, enter the value layer.
Each point pair is evaluated once (``pair_value``, through
``thom.evaluate_kernel``) into a table keyed by the sorted ids; every
system's value and every cross term of the factorization is a product
read from that table.  The factorization check compares those products
with each combined member's word kernel evaluated whole
(``member_value``), so a wrong pair table fails it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction as Frac
from typing import Dict, FrozenSet, Iterator, List, Mapping, Sequence, Tuple

from .fixedpoints import DegreeOverflowError
from .locality import PointConfig, TauPoint, check_colors, check_points, is_m_tau_disjoint
from .quiver import read_json
from .symalg import PoleError, SymalgError
from .thom import KernelContext, evaluate_kernel


class NonGenericError(SymalgError):
    """The configuration violates the genericity the value layer needs."""


class PosetFormatError(SymalgError):
    """Malformed poset description."""


class Poset:
    """Finite poset: elements plus the reflexive-transitive closure."""

    def __init__(self, elements: Sequence[str], relations: Sequence[Tuple[str, str]]):
        self.elements: Tuple[str, ...] = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise PosetFormatError("duplicate poset elements")
        idx = {e: i for i, e in enumerate(self.elements)}
        # Row i is the bitset of the j with i <= j, closed by Warshall:
        # whoever is below k is below everything above k.
        rows = [1 << i for i in range(len(self.elements))]
        for a, b in relations:
            if a not in idx or b not in idx:
                raise PosetFormatError(f"relation uses unknown element ({a}, {b})")
            rows[idx[a]] |= 1 << idx[b]
        for k in range(len(rows)):
            bit, row_k = 1 << k, rows[k]
            rows = [r | row_k if r & bit else r for r in rows]
        # i <= j <= i makes the two closed rows equal, and equal rows
        # contain each other's element.
        if len(set(rows)) != len(rows):
            raise PosetFormatError("relation closure violates antisymmetry")
        self._idx = idx
        self._rows = rows

    def leq(self, a: str, b: str) -> bool:
        return bool(self._rows[self._idx[a]] >> self._idx[b] & 1)

    def __len__(self) -> int:
        return len(self.elements)

    def earlier_bounds(self) -> Tuple[List[List[int]], List[List[int]]]:
        """For each element k, by position: the maximal elements among the
        earlier ones below k, and the minimal ones among those above k."""
        rows = self._rows
        cols = [0] * len(rows)  # column j: the bitset of the i with i <= j
        for i, row in enumerate(rows):
            for j in _bits(row):
                cols[j] |= 1 << i
        below, above = [], []
        for k in range(len(rows)):
            earlier = (1 << k) - 1
            down, up = cols[k] & earlier, rows[k] & earlier
            below.append([j for j in _bits(down) if rows[j] & down == 1 << j])
            above.append([j for j in _bits(up) if cols[j] & up == 1 << j])
        return below, above

    @staticmethod
    def chain(m: int) -> "Poset":
        if m < 1:
            raise PosetFormatError("chain length must be positive")
        els = [f"p{i}" for i in range(1, m + 1)]
        rels = [(els[i], els[i + 1]) for i in range(m - 1)]
        return Poset(els, rels)

    @staticmethod
    def antichain(k: int) -> "Poset":
        if k < 1:
            raise PosetFormatError("antichain size must be positive")
        return Poset([f"p{i}" for i in range(1, k + 1)], [])

    @staticmethod
    def parse(spec: str) -> "Poset":
        """DSL: chain:m | antichain:k | a JSON file path with
        {"elements": [...], "relations": [[a, b], ...]}."""
        if spec.startswith("chain:"):
            return Poset.chain(int(spec.split(":", 1)[1]))
        if spec.startswith("antichain:"):
            return Poset.antichain(int(spec.split(":", 1)[1]))
        data = read_json(spec)
        if not (
            isinstance(data, dict)
            and isinstance(data.get("elements"), list)
            and isinstance(data.get("relations", []), list)
            and all(isinstance(r, list) and len(r) == 2 for r in data.get("relations", []))
        ):
            raise PosetFormatError(
                'a poset file is {"elements": [...], "relations": [[a, b], ...]}'
            )
        return Poset(
            [str(e) for e in data["elements"]],
            [(str(a), str(b)) for a, b in data.get("relations", [])],
        )


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class DivisorPoint:
    pid: str
    color: str
    multiplicity: int


@dataclass
class ColoredDivisor:
    points: List[DivisorPoint]
    coords: Dict[str, Frac] = field(default_factory=dict)

    def __post_init__(self):
        # Subdivisors, coordinates and pair values are all keyed by id.
        seen = set()
        for pt in self.points:
            if pt.pid in seen:
                raise PosetFormatError(f"point id {pt.pid!r} is repeated")
            seen.add(pt.pid)
            if pt.multiplicity < 1:
                raise PosetFormatError("multiplicities must be at least 1")

    @staticmethod
    def parse(spec: str) -> "ColoredDivisor":
        """Comma list of id:color:multiplicity entries."""
        pts = []
        if spec.strip():
            for chunk in spec.split(","):
                try:
                    pid, color, mult = chunk.strip().split(":")
                    pts.append(DivisorPoint(pid, color, int(mult)))
                except ValueError:
                    raise PosetFormatError(f"{chunk!r} is not id:color:multiplicity") from None
        return ColoredDivisor(pts)


SubMultiplicity = Tuple[Tuple[str, int], ...]  # ((pid, k), ...) sorted by pid


def subscheme_lattice(divisor: ColoredDivisor) -> List[SubMultiplicity]:
    """All subdivisors as sub-multiplicity tuples; a product of chains."""
    pids = sorted(pt.pid for pt in divisor.points)
    ranges = {pt.pid: range(pt.multiplicity + 1) for pt in divisor.points}
    out = []
    for combo in itertools.product(*(ranges[p] for p in pids)):
        out.append(tuple(zip(pids, combo)))
    return out


# The most monotone systems a fiber may have: the sl2-lattice state budget.
SYSTEM_CAP = 2 ** 16


def _systems(poset: Poset, divisor: ColoredDivisor) -> Iterator[Tuple[SubMultiplicity, ...]]:
    """The subdivisors of every monotone system, depth first without
    recursion; raises ``DegreeOverflowError`` past ``SYSTEM_CAP`` systems."""
    els = poset.elements
    if not els:
        yield ()
        return
    # The constant systems alone number one per subdivisor.
    if math.prod(pt.multiplicity + 1 for pt in divisor.points) > SYSTEM_CAP:
        raise DegreeOverflowError(f"the subdivisors alone exceed the cap of {SYSTEM_CAP} systems")
    lattice = {tuple(k for _, k in sub): sub for sub in subscheme_lattice(divisor)}
    top = next(reversed(lattice))
    bottom = (0,) * len(top)
    below, above = poset.earlier_bounds()
    picked: List[Tuple[int, ...]] = []  # the multiplicities of the elements so far
    subs: List[SubMultiplicity] = []  # and their subdivisors

    def box():
        """The candidates for the next element: between the picks below and
        above it.  The picks so far are monotone, so the largest pick below
        is a maximal element's and the smallest above a minimal one's."""
        k = len(picked)
        lo = map(max, bottom, *(picked[j] for j in below[k])) if below[k] else bottom
        hi = map(min, top, *(picked[j] for j in above[k])) if above[k] else top
        return itertools.product(*map(range, lo, map((1).__add__, hi)))

    tries, count = [box()], 0
    while tries:
        candidate = next(tries[-1], None)
        if candidate is None:
            tries.pop()
            if picked:
                picked.pop()
                subs.pop()
        elif len(tries) < len(els):
            picked.append(candidate)
            subs.append(lattice[candidate])
            tries.append(box())
        else:
            count += 1
            if count > SYSTEM_CAP:
                raise DegreeOverflowError(f"more monotone systems than the cap of {SYSTEM_CAP}")
            yield (*subs, lattice[candidate])


def monotone_maps(poset: Poset, divisor: ColoredDivisor) -> Iterator[Dict[str, SubMultiplicity]]:
    return (dict(zip(poset.elements, system)) for system in _systems(poset, divisor))


def ind_rank(poset: Poset, divisor: ColoredDivisor) -> int:
    return sum(1 for _ in _systems(poset, divisor))


# ---------------------------------------------------------------------------
# Value layer
# ---------------------------------------------------------------------------

def pair_value(
    ctx: KernelContext,
    u: DivisorPoint,
    v: DivisorPoint,
    coords: Mapping[str, Frac],
    tau: TauPoint,
) -> Frac:
    """Evaluated pair kernel of two single points, in id order."""
    return member_value(ctx, sorted((u, v), key=lambda p: p.pid), coords, tau)


def member_value(
    ctx: KernelContext,
    points: Sequence[DivisorPoint],
    coords: Mapping[str, Frac],
    tau: TauPoint,
) -> Frac:
    """The word kernel of the points' colors, in the given order, evaluated
    whole at tau and x[g, color, 1] = the g-th point's coordinate; 1 for
    no point."""
    if not points:
        return Frac(1)
    kernel = ctx.word_kernel([p.color for p in points])
    assignment = dict(tau)
    for (g, _), xs in kernel.chart.blocks.items():
        assignment.update(zip(xs, [Frac(coords[points[g - 1].pid])]))
    value, culprits = evaluate_kernel(kernel, assignment)
    if value is None:
        raise PoleError(", ".join(rec.label() for kind, rec in culprits if kind == "pole"))
    return value


@dataclass
class IndFiberData:
    poset: Poset
    divisor: ColoredDivisor
    maps: List[Dict[str, SubMultiplicity]]
    values: List[Frac]
    pairs: Dict[Tuple[str, str], Frac]  # pair_value of every two points, by sorted ids

    @property
    def rank(self) -> int:
        return len(self.maps)


def ind_fiber(
    ctx: KernelContext,
    poset: Poset,
    divisor: ColoredDivisor,
    tau: TauPoint,
) -> IndFiberData:
    """Coordinates of the product-of-particles point over the subdivisor
    basis: each monotone system maps to the product over its members of
    the within-member pair-kernel values (empty system = 1)."""
    if any(pt.multiplicity != 1 for pt in divisor.points):
        raise NonGenericError("the value layer needs multiplicity-one points")
    missing = [pt.pid for pt in divisor.points if pt.pid not in divisor.coords]
    if missing:
        raise NonGenericError(f"points without coordinates: {missing}")
    check_colors(ctx.quiver, ((f"point {pt.pid}", pt.color) for pt in divisor.points))
    check_points(ctx.law, tau, ((f"coord of point {pid}", x) for pid, x in divisor.coords.items()))
    pairs: Dict[Tuple[str, str], Frac] = {}
    for a, b in itertools.combinations(divisor.points, 2):
        cfg_a, cfg_b = (PointConfig({p.color: [divisor.coords[p.pid]]}) for p in (a, b))
        if not is_m_tau_disjoint(ctx, cfg_a, cfg_b, tau):
            raise NonGenericError(f"points {a.pid}, {b.pid} collide under the shifts")
        pairs[min(a.pid, b.pid), max(a.pid, b.pid)] = pair_value(ctx, a, b, divisor.coords, tau)

    maps = list(monotone_maps(poset, divisor))
    values: List[Frac] = []
    for system in maps:
        total = Frac(1)
        for sub in system.values():  # sorted by id, so each pair comes sorted
            for pair in itertools.combinations([pid for pid, k in sub if k == 1], 2):
                total *= pairs[pair]
        values.append(total)
    return IndFiberData(poset, divisor, maps, values, pairs)


@dataclass
class FactorizationReport:
    rank_product_ok: bool
    lines: List[Tuple[str, bool]]

    @property
    def ok(self) -> bool:
        return self.rank_product_ok and all(flag for _, flag in self.lines)


def generic_fiber_factorization(
    ctx: KernelContext,
    poset: Poset,
    left: ColoredDivisor,
    right: ColoredDivisor,
    tau: TauPoint,
) -> FactorizationReport:
    """Exact factorization of the fiber data over a disjoint union.

    The coordinate of a combined system, each member's word kernel
    evaluated whole (``member_value``), equals the product of the two
    restricted coordinates times the pair-kernel trivialization scalar
    between the two halves, member by member; the restricted coordinates
    and the cross terms are read from the pair tables.
    """
    if {p.pid for p in left.points} & {p.pid for p in right.points}:
        raise NonGenericError("supports must use distinct point ids")
    combined = ColoredDivisor(
        left.points + right.points, {**left.coords, **right.coords}
    )
    fiber = ind_fiber(ctx, poset, combined, tau)
    fl = ind_fiber(ctx, poset, left, tau)
    fr = ind_fiber(ctx, poset, right, tau)

    left_ids = frozenset(p.pid for p in left.points)
    right_ids = frozenset(p.pid for p in right.points)

    def restrict(system: Dict[str, SubMultiplicity], ids: FrozenSet[str]):
        """The system on the points ``ids``, as sorted items."""
        return tuple((e, tuple((pid, k) for pid, k in sub if pid in ids))
                     for e, sub in sorted(system.items()))

    index_l = {restrict(m, left_ids): v for m, v in zip(fl.maps, fl.values)}
    index_r = {restrict(m, right_ids): v for m, v in zip(fr.maps, fr.values)}

    points = {p.pid: p for p in combined.points}
    whole: Dict[Tuple[str, ...], Frac] = {}  # member_value by member, ids sorted
    lines: List[Tuple[str, bool]] = []
    for system in fiber.maps:
        value = cross = Frac(1)
        for sub in system.values():
            ids = tuple(pid for pid, k in sub if k == 1)
            if ids not in whole:
                whole[ids] = member_value(ctx, [points[pid] for pid in ids], combined.coords, tau)
            value *= whole[ids]
            for u in left_ids.intersection(ids):
                for v in right_ids.intersection(ids):
                    cross *= fiber.pairs[min(u, v), max(u, v)]
        halves = index_l[restrict(system, left_ids)] * index_r[restrict(system, right_ids)]
        ok = value == halves * cross
        label = ";".join(
            f"{e}:{'+'.join(pid for pid, k in sub if k)}" for e, sub in sorted(system.items())
        )
        lines.append((label or "empty", ok))
    rank_ok = fiber.rank == fl.rank * fr.rank
    return FactorizationReport(rank_ok, lines)
