"""Shifted diagonals, the disjointness predicate, and factorization checks.

Configurations are colored tuples of exact curve coordinates together
with a rational point of the dilation base.  The shifted diagonals
between two configurations D1, D2 are the Hom blocks of the two-sided
pair kernel, listed once by ``pair_blocks``.  A block from (g, i) to
(g', j) with twist chi vanishes where a point of D_g'^j, shifted by
chi(tau), meets a point of D_g^i:

* arrow k of the double: D2^head + mu(k) against D1^tail
  (``rep_raise``) and D1^head + mu(k) against D2^tail (``rep_lower``);
* each common color v: D2^v + omega against D1^v and D1^v + omega
  against D2^v (``gp_omega``), and the plain diagonal both ways
  (``gp_inv``, the denominators).

``pair_check_kernel`` assembles that list and ``is_m_tau_disjoint``
reads it, so the predicate and the factors that ``verify_trivialization``
names when a constraint is violated cannot disagree.  AC5 plants each
colliding configuration (``checks._random_colliding``) on a random block
of the same list, so every family gets collisions.
``verify_m_locality`` checks the factorization of a concatenated word's
kernel into the two word kernels times the one-sided pair kernel, the
kernel-level form of the locality isomorphism, exactly and on divisors
(``thom.divisor_quotient``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Frac
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .fgl import Character, FormalGroupLaw
from .quiver import ColorWord, DimVector, QuiverSpec, abelianization, json_rational
from .symalg import SymalgError, Variable, d_var
from .thom import (
    FactorRecord,
    HomBlock,
    KernelContext,
    Place,
    ThomKernel,
    TorusChart,
    divisor_quotient,
    evaluate_kernel,
)


TauPoint = Dict[Variable, Frac]


def tau_point(ctx: KernelContext, values: Sequence[Frac]) -> TauPoint:
    if len(values) != ctx.dilation.rank:
        raise SymalgError(
            f"expected {ctx.dilation.rank} dilation coordinates, got {len(values)}"
        )
    return {d_var(k + 1): Frac(v) for k, v in enumerate(values)}


@dataclass
class PointConfig:
    """Exact coordinates per color; multiplicity one per listed point."""

    coords: Dict[str, List[Frac]]

    @staticmethod
    def from_mapping(data: Mapping[str, Sequence]) -> "PointConfig":
        if not isinstance(data, dict) or not all(isinstance(v, list) for v in data.values()):
            raise ValueError(f"a point configuration maps colors to lists, got {data!r}")
        return PointConfig({
            str(c): [json_rational(v, f"coordinate of color {c}") for v in vals]
            for c, vals in data.items()
        })

    def weight(self, ctx: KernelContext) -> DimVector:
        return {v: len(self.coords.get(v, [])) for v in ctx.quiver.vertices}

    def is_empty(self) -> bool:
        return all(not vals for vals in self.coords.values())


def pair_blocks(ctx: KernelContext, v1: DimVector, v2: DimVector) -> List[HomBlock]:
    """The Hom blocks of the two-sided pair kernel of weights (v1, v2),
    nonempty blocks only: each arrow k of the double both ways (1 -> 2 as
    ``rep_raise``, 2 -> 1 as ``rep_lower``), then each common color both
    ways, symplectic (``gp_omega``) and plain (``gp_inv``, a denominator)."""
    dims = {1: v1, 2: v2}
    out: List[HomBlock] = []
    for k in ctx.quiver.double:
        for family, g, gp in (("rep_raise", 1, 2), ("rep_lower", 2, 1)):
            if dims[g].get(k.tail, 0) and dims[gp].get(k.head, 0):
                out.append(HomBlock(family, k.aid, None, (g, k.tail), (gp, k.head),
                                    ctx.mu(k.aid), +1))
    for v in ctx.quiver.vertices:
        if v1.get(v, 0) and v2.get(v, 0):
            for family, twist, e in (("gp_omega", ctx.omega(), +1),
                                     ("gp_inv", Character.zero(), -1)):
                out += [HomBlock(family, None, v, (1, v), (2, v), twist, e),
                        HomBlock(family, None, v, (2, v), (1, v), twist, e)]
    return out


def is_m_tau_disjoint(
    ctx: KernelContext, d1: PointConfig, d2: PointConfig, tau: TauPoint
) -> bool:
    """No shifted diagonal meets: for no block of ``pair_blocks`` does a
    target point, shifted by the twist at tau, land on a source point.
    A color that is no vertex of the quiver raises ``SymalgError``."""
    _check_config_colors(ctx.quiver, d1, d2)
    law = ctx.law
    configs = {1: d1, 2: d2}
    shifts: Dict[Character, Frac] = {}
    for b in pair_blocks(ctx, d1.weight(ctx), d2.weight(ctx)):
        shift = shifts.get(b.twist)
        if shift is None:
            shift = shifts[b.twist] = law.char_value(b.twist, tau)
        (g, i), (gp, j) = b.source, b.target
        sources = set(configs[g].coords[i])
        if any(law.point_add(y, shift) in sources for y in configs[gp].coords[j]):
            return False
    return True


def pair_check_kernel(ctx: KernelContext, v1: DimVector, v2: DimVector) -> ThomKernel:
    """The two-sided evaluation kernel: the product over ``pair_blocks``."""
    return ctx.assemble(ctx.chart((v1, v2)), pair_blocks(ctx, v1, v2))


def config_assignment(
    chart: TorusChart, d1: PointConfig, d2: PointConfig, tau: TauPoint
) -> Dict[Variable, Frac]:
    """tau, D1 on slot 1 and D2 on slot 2 of the pair chart of their weights."""
    assignment: Dict[Variable, Frac] = dict(tau)
    for (g, v), xs in chart.blocks.items():
        assignment.update(zip(xs, (d1 if g == 1 else d2).coords[v]))
    return assignment


def check_points(law: FormalGroupLaw, tau: TauPoint, coords: Iterable[Tuple[str, Frac]]) -> None:
    """Raise ``SymalgError`` naming the first tau value or named coordinate
    that is no point of the law's group (0 under the multiplicative law)."""
    for name, value in chain(((f"tau value {v.name}", t) for v, t in tau.items()), coords):
        try:
            law.point(value)
        except SymalgError as exc:
            raise SymalgError(f"{name} = {value}: {exc}") from None


def check_colors(quiver: QuiverSpec, colors: Iterable[Tuple[str, str]]) -> None:
    """Raise ``SymalgError`` naming the first (name, color) whose color is
    no vertex of the quiver."""
    for name, color in colors:
        if color not in quiver.vpos:
            raise SymalgError(f"{name}: color {color!r} is not a vertex of the quiver")


def _check_config_colors(quiver: QuiverSpec, d1: PointConfig, d2: PointConfig) -> None:
    """``check_colors`` on the colors of the pair (D1, D2)."""
    check_colors(quiver, ((name, c) for name, d in (("D1", d1), ("D2", d2)) for c in d.coords))


@dataclass
class TrivializationReport:
    disjoint: bool
    value: Optional[Frac]
    culprits: List[Tuple[str, FactorRecord]]

    @property
    def trivializes(self) -> bool:
        return self.value is not None and self.value != 0

    @property
    def ok(self) -> bool:
        """Disjoint pairs must evaluate finite nonzero; colliding pairs
        must hit a named factor."""
        if self.disjoint:
            return self.trivializes
        return bool(self.culprits)

    def describe(self) -> str:
        if self.disjoint:
            return f"disjoint; kernel value {self.value}"
        names = ", ".join(f"{kind} at {rec.label()}" for kind, rec in self.culprits)
        return f"not disjoint; {names or 'no factor hit (one-sided family)'}"


def verify_trivialization(
    ctx: KernelContext, d1: PointConfig, d2: PointConfig, tau: TauPoint
) -> TrivializationReport:
    _check_config_colors(ctx.quiver, d1, d2)
    check_points(ctx.law, tau, ((f"{name} coordinate of color {c}", x)
                                for name, d in (("D1", d1), ("D2", d2))
                                for c, xs in d.coords.items() for x in xs))
    if d2.is_empty() or d1.is_empty():
        return TrivializationReport(True, Frac(1), [])
    v1, v2 = d1.weight(ctx), d2.weight(ctx)
    kernel = pair_check_kernel(ctx, v1, v2)
    assignment = config_assignment(kernel.chart, d1, d2, tau)
    value, culprits = evaluate_kernel(kernel, assignment)
    disjoint = is_m_tau_disjoint(ctx, d1, d2, tau)
    return TrivializationReport(disjoint, value, culprits)


@dataclass
class MLocalityReport:
    identity_holds: bool


def verify_m_locality(
    ctx: KernelContext, word1: ColorWord, word2: ColorWord
) -> MLocalityReport:
    """Exact kernel-level factorization for a concatenated word.

    The kernel of word1 + word2 must equal the product of the two word
    kernels and the pair kernel of their weights, moved onto the combined
    chart; the quotient is decided on divisors and must be exactly 1.
    The identity does not depend on any points.
    """
    combined: ColorWord = tuple(word1) + tuple(word2)
    if not combined:
        return MLocalityReport(True)
    n1 = len(word1)
    parts: List[Tuple[ThomKernel, Place]] = []
    if word1:
        parts.append((ctx.word_kernel(word1), lambda g, v, s: (g, s)))
    if word2:
        parts.append((ctx.word_kernel(word2), lambda g, v, s: (n1 + g, s)))
    if word1 and word2:
        alpha = abelianization(ctx.quiver, word1)
        beta = abelianization(ctx.quiver, word2)
        # Pair slot 1 holds word1's letters, slot 2 word2's; the s-th
        # coordinate of a vertex sits at the slot of its s-th occurrence.
        # Each pair character joins slot 1 to slot 2, so keeps its order.
        slots: List[Dict[str, List[int]]] = [{}, {}]
        for g, letter in enumerate(combined, start=1):
            slots[g > n1].setdefault(letter, []).append(g)
        parts.append((ctx.biextension_kernel(alpha, beta),
                      lambda g, v, s: (slots[g - 1][v][s - 1], 1)))
    quotient = divisor_quotient(ctx.word_kernel(combined), parts)
    return MLocalityReport(quotient.is_scalar() and quotient.unit == 1)


def parse_point_config(data: Mapping) -> Tuple[PointConfig, PointConfig, List[Frac]]:
    """JSON form: {"tau": [..], "D1": {"1": [0]}, "D2": {"1": [5]}}."""
    if not isinstance(data, dict) or not isinstance(data.get("tau", []), list):
        raise ValueError('a point configuration file is {"tau": [..], "D1": {..}, "D2": {..}}')
    tau = [json_rational(v, "tau") for v in data.get("tau", [])]
    d1, d2 = (PointConfig.from_mapping(data.get(name, {})) for name in ("D1", "D2"))
    return d1, d2, tau
