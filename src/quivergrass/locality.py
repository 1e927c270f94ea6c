"""Shifted diagonals, the disjointness predicate, and factorization checks.

Configurations are colored tuples of exact curve coordinates together
with a rational point of the dilation base.  ``shifted_diagonals`` is
the one list of constraints between two configurations D1, D2; each
descriptor matches one factor family of the two-sided pair kernel:

* arrow k of the double, order "12": D2^head + mu(k) against D1^tail
  (the ``rep_raise`` factors);
* arrow k, order "21": D1^head + mu(k) against D2^tail (``rep_lower``);
* each common color v: the plain diagonal D2^v against D1^v
  (``gp_inv``, symmetric, so one order);
* each common color v: the symplectic diagonal in both orders, D2^v +
  omega against D1^v ("12") and D1^v + omega against D2^v ("21")
  (``gp_omega`` 1->2 and 2->1).

``is_m_tau_disjoint`` reads only that list: two configurations are
disjoint when no descriptor's shifted points land on the other side.

``verify_trivialization`` evaluates the two-sided pair kernel, assembled
independently of the list, so each violated constraint names the factor
that vanishes or blows up.  ``verify_m_locality`` checks the
factorization of a concatenated word's kernel into the two word kernels
times the one-sided pair kernel, the kernel-level form of the locality
isomorphism, exactly and on divisors (``thom.divisor_quotient``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Frac
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .fgl import Character, FormalGroupLaw
from .quiver import ColorWord, DimVector, abelianization, json_rational
from .symalg import SymalgError, Variable, d_var
from .thom import (
    FactorRecord,
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


@dataclass(frozen=True)
class DiagonalDescriptor:
    """One constraint between two configurations, matching one pair-kernel
    factor family.

    ``order`` records which configuration receives the shift: "12" means
    the second configuration's ``color2`` points, shifted, are tested
    against the first configuration's ``color1`` points; "21" swaps the
    roles.  Arrow descriptors come in both orders, as ``rep_raise`` (12)
    and ``rep_lower`` (21); symplectic ones in both orders, as
    ``gp_omega`` 1->2 (12) and 2->1 (21); the plain diagonal (``gp_inv``)
    is symmetric and is listed once.
    """

    name: str
    color1: str
    color2: str
    shift: Frac  # group-law point shift applied per the order
    source: str  # "arrow:<id>" | "plain" | "symplectic"
    order: str = "12"


def shifted_diagonals(
    ctx: KernelContext, v1: DimVector, v2: DimVector, tau: TauPoint
) -> List[DiagonalDescriptor]:
    """All constraints between configurations of the two weights."""
    law = ctx.law
    out: List[DiagonalDescriptor] = []
    for k in ctx.quiver.double:
        shift = law.char_value(ctx.mu(k.aid), tau)
        for order, w1, w2 in (("12", v1, v2), ("21", v2, v1)):
            if w1.get(k.tail, 0) and w2.get(k.head, 0):
                out.append(DiagonalDescriptor(
                    f"delta_{k.aid}(tau)", k.tail, k.head, shift, f"arrow:{k.aid}", order
                ))
    omega_shift = law.char_value(ctx.omega(), tau)
    for v in ctx.quiver.vertices:
        if v1.get(v, 0) == 0 or v2.get(v, 0) == 0:
            continue
        out.append(DiagonalDescriptor(f"delta_{v}", v, v, law.point_zero(), "plain"))
        for order in ("12", "21"):
            out.append(DiagonalDescriptor(
                f"delta_{v}(tau)", v, v, omega_shift, "symplectic", order
            ))
    return out


def is_m_tau_disjoint(
    ctx: KernelContext, d1: PointConfig, d2: PointConfig, tau: TauPoint
) -> bool:
    """No shifted diagonal of ``shifted_diagonals`` may meet: for each
    descriptor, no shifted point of one configuration lands on a point
    of the other."""
    law = ctx.law
    for d in shifted_diagonals(ctx, d1.weight(ctx), d2.weight(ctx), tau):
        shifted, fixed = (d2, d1) if d.order == "12" else (d1, d2)
        targets = set(fixed.coords[d.color1])
        if any(law.point_add(y, d.shift) in targets for y in shifted.coords[d.color2]):
            return False
    return True


def pair_check_kernel(ctx: KernelContext, v1: DimVector, v2: DimVector) -> ThomKernel:
    """Two-sided evaluation kernel: one orientation factor per constraint
    family and direction (arrow factors both ways, symplectic factors both
    ways, plain diagonals as denominators both ways)."""
    chart = ctx.chart((v1, v2))
    kernel = ThomKernel(chart, ctx.law)
    omega = ctx.omega()
    for k in ctx.quiver.double:
        mu = ctx.mu(k.aid)
        ctx._hom_block(kernel, "rep_raise", (1, k.tail), (2, k.head), mu, +1, arrow=k.aid)
        ctx._hom_block(kernel, "rep_lower", (2, k.tail), (1, k.head), mu, +1, arrow=k.aid)
    for v in ctx.quiver.vertices:
        ctx._hom_block(kernel, "gp_omega", (1, v), (2, v), omega, +1, vertex=v)
        ctx._hom_block(kernel, "gp_omega", (2, v), (1, v), omega, +1, vertex=v)
        ctx._hom_block(kernel, "gp_inv", (1, v), (2, v), Character.zero(), -1, vertex=v)
        ctx._hom_block(kernel, "gp_inv", (2, v), (1, v), Character.zero(), -1, vertex=v)
    return kernel


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
    word1: ColorWord
    word2: ColorWord
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
        return MLocalityReport(word1, word2, True)
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
    return MLocalityReport(word1, word2, quotient.is_scalar() and quotient.unit == 1)


def parse_point_config(data: Mapping) -> Tuple[PointConfig, PointConfig, List[Frac]]:
    """JSON form: {"tau": [..], "D1": {"1": [0]}, "D2": {"1": [5]}}."""
    if not isinstance(data, dict) or not isinstance(data.get("tau", []), list):
        raise ValueError('a point configuration file is {"tau": [..], "D1": {..}, "D2": {..}}')
    tau = [json_rational(v, "tau") for v in data.get("tau", [])]
    d1, d2 = (PointConfig.from_mapping(data.get(name, {})) for name in ("D1", "D2"))
    return d1, d2, tau
