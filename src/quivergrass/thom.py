"""Kernels of twisted cotangent extension correspondences on torus charts.

A flag type is a sequence of dimension vectors (v_1, ..., v_m).  Its
chart carries one block of coordinates x[g, i, s] per slot g and vertex
i, plus the dilation coordinates.  Every kernel is a product of
orientation factors of characters

    x[g', j, t] - x[g, i, s] + (dilation character),

assembled along one of two independent decompositions of the same
correspondence:

* the two-operator path: ``kernel_dstar_p`` (Levi-conormal factors with
  the symplectic twist, plus the filtration-lowering part of the doubled
  representation space) times ``kernel_tilde_q`` (the filtration-raising
  part, divided by the untwisted Levi factors);
* the one-pass path: ``appendix_b_kernel`` (conormal factors in their
  dual-resolved presentation, the full off-diagonal doubled block sweep,
  and the same inverse Levi factors).

The two paths must agree up to a unit, which ``crosscheck`` extracts and
reports.  Weight-zero characters (loops on a single slot) never divide:
their factors are treated as units and flagged on the kernel.

A kernel is held as a divisor: factor records, each a character chi with
a signed exponent e, standing for the product of the orientations
lambda(chi)^e (the Euler class of a sum of characters is the product of
their orientations; Quillen, Bull. AMS 1969).  Assembly orients nothing.
Every kernel identity (the dual-assembly unit, bilinearity, locality)
is decided on characters by ``divisor_quotient``: exponents are summed
per character and only nonzero sums are oriented and cancelled.  That is
the quotient of the oriented kernels, since a merge of factored functions
only sums the exponents of equal factors and multiplies units.

A part on another chart is moved variable by variable first.  An
orientation depends only on the law, the coefficients and the rank order
of the character's own variables (see ``fgl``), so a move that keeps each
character's variables in order commutes with orienting under any law,
commutative and associative or not, whatever it does to the chart's
order.  A move that reorders a character's variables raises.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction as Frac
from functools import cached_property
from itertools import chain
from math import prod
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .fgl import Character, FormalGroupLaw
from .quiver import DilationTorus, DimVector, NakajimaWeights, QuiverSpec, incidence_form
from .symalg import (
    PoleError,
    RationalFunction,
    SymalgError,
    Variable,
    VarRegistry,
    d_var,
    x_var,
)

FlagType = Tuple[DimVector, ...]
# (slot, vertex, index) of a coordinate -> its (slot, index) on another chart.
Place = Callable[[int, str, int], Tuple[int, int]]


class TorusChart:
    """Coordinates of a flag type: x[g, i, s] blocks plus dilation axes.

    Each nonempty (slot, vertex) block of coordinates is built once, in
    ``blocks``: slot by slot, vertex by vertex in the quiver's order, so
    the blocks chained and then the dilation axes ``dvars`` are exactly
    the canonical registry order.  ``x``, ``dim`` and ``block`` read that
    table and raise ``SymalgError`` outside the chart.
    """

    def __init__(self, quiver: QuiverSpec, flag: FlagType, dil_rank: int):
        self.quiver = quiver
        self.flag = tuple(dict(v) for v in flag)
        self.dil_rank = dil_rank
        self.blocks: Dict[Tuple[int, str], Tuple[Variable, ...]] = {}
        for g, dims in enumerate(self.flag, start=1):
            for v in quiver.vertices:
                if dims.get(v, 0) > 0:
                    self.blocks[g, v] = tuple(
                        x_var(g, quiver.vpos[v], v, s) for s in range(1, dims[v] + 1)
                    )
        self.dvars: Tuple[Variable, ...] = tuple(d_var(k) for k in range(1, dil_rank + 1))
        self.registry = VarRegistry([*chain.from_iterable(self.blocks.values()), *self.dvars])

    @property
    def slots(self) -> int:
        return len(self.flag)

    def block(self, g: int, vertex: str) -> Tuple[Variable, ...]:
        """The coordinates x[g, vertex, 1..], empty for an empty block."""
        if not 1 <= g <= len(self.flag) or vertex not in self.quiver.vpos:
            raise SymalgError(f"block ({g}, {vertex}) is outside the chart")
        return self.blocks.get((g, vertex), ())

    def dim(self, g: int, vertex: str) -> int:
        return len(self.block(g, vertex))

    def x(self, g: int, vertex: str, s: int) -> Variable:
        block = self.block(g, vertex)
        if not 1 <= s <= len(block):
            raise SymalgError(f"x[{g},{vertex},{s}] is outside the chart")
        return block[s - 1]

    def embedding(self, target: "TorusChart", place: Place) -> List[int]:
        """Positions in ``target`` of this chart's variables: x[g, i, s]
        goes to x[g', i, s'] with (g', s') = place(g, i, s), and each
        dilation axis to itself."""
        index = target.registry.index
        out: List[int] = []
        for (g, v), block in self.blocks.items():
            for s in range(1, len(block) + 1):
                gp, sp = place(g, v, s)
                out.append(index(target.x(gp, v, sp)))
        return out + [index(d) for d in self.dvars]


class FactorRecord(NamedTuple):
    """One orientation factor with enough metadata to name it in reports;
    records compare and hash as plain tuples."""

    family: str
    arrow: Optional[str]
    vertex: Optional[str]
    slots: Tuple[int, int]
    indices: Tuple[int, int]
    char: Character
    exponent: int

    def label(self) -> str:
        carrier = self.arrow if self.arrow is not None else self.vertex
        return f"{self.family}[{carrier}; slots {self.slots}; ({self.char})^{self.exponent}]"


@dataclass
class ThomKernel:
    """A kernel as a divisor, oriented on first use.

    ``divisor`` is the single source of truth: assembly only appends
    records.  ``records`` pairs each with its contribution
    lambda(rec.char)^rec.exponent under ``law``, and ``fn`` is their
    product (one product of units, one merge of factors).  Both are cached
    on first access, so neither may be read before assembly has finished.
    Weight-zero records sit in ``zero_records`` and enter neither.
    """

    chart: TorusChart
    law: FormalGroupLaw
    divisor: List[FactorRecord] = field(default_factory=list)
    zero_records: List[FactorRecord] = field(default_factory=list)

    @cached_property
    def records(self) -> List[Tuple[FactorRecord, RationalFunction]]:
        registry = self.chart.registry
        return [
            (rec, self.law.lambda_char(registry, rec.char).pow(rec.exponent))
            for rec in self.divisor
        ]

    @cached_property
    def fn(self) -> RationalFunction:
        return _product(self.chart.registry, [c for _, c in self.records])

    @property
    def degenerate(self) -> bool:
        return bool(self.zero_records)


def _product(registry: VarRegistry, parts: Sequence[RationalFunction]) -> RationalFunction:
    """The product of factored functions over ``registry``, merged once."""
    return RationalFunction._trusted(
        registry,
        prod((p.unit for p in parts), start=Frac(1)),
        chain.from_iterable(p.factors for p in parts),
    )


class KernelContext:
    """Quiver, weight function, dilation torus, and orientation backend."""

    def __init__(
        self,
        quiver: QuiverSpec,
        weights: NakajimaWeights,
        dilation: DilationTorus,
        law: FormalGroupLaw,
    ):
        self.quiver = quiver
        self.weights = dict(weights)
        self.dilation = dilation
        self.law = law
        self._dchars: Dict[Tuple[int, int], Character] = {}

    # -- dilation characters (the d-axes are shared across all charts) --------

    def _dchar(self, ambient: Tuple[int, int]) -> Character:
        """The restriction of t1^a t2^b, built once per context."""
        if ambient not in self._dchars:
            rest = self.dilation.restrict(*ambient)
            self._dchars[ambient] = Character.make({d_var(k + 1): c for k, c in enumerate(rest)})
        return self._dchars[ambient]

    def mu(self, aid: str) -> Character:
        w = self.weights[aid]
        return self._dchar((0, w) if aid.endswith("*") else (w, 0))

    def omega(self) -> Character:
        return self._dchar((1, 1))

    def chart(self, flag: FlagType) -> TorusChart:
        return TorusChart(self.quiver, flag, self.dilation.rank)

    # -- factor assembly ------------------------------------------------------

    def _emit(self, kernel: ThomKernel, rec: FactorRecord) -> None:
        if rec.char.is_zero():
            kernel.zero_records.append(rec)
            return
        rec.char.check_in(kernel.chart.registry)
        kernel.divisor.append(rec)

    def _hom_block(
        self,
        kernel: ThomKernel,
        family: str,
        source: Tuple[int, str],
        target: Tuple[int, str],
        twist: Character,
        exponent: int,
        arrow: Optional[str] = None,
        vertex: Optional[str] = None,
    ) -> None:
        """Factors of Hom(block (g, i), block (g', j)), one per coordinate pair.

        ``source`` = (g, i) and ``target`` = (g', j) are (slot, vertex)
        blocks; ``arrow`` or ``vertex`` names the carrier in the records.
        """
        chart = kernel.chart
        (g, i), (gp, j) = source, target
        sources, targets = chart.block(g, i), chart.block(gp, j)
        for s, src in enumerate(sources, start=1):
            for t, tgt in enumerate(targets, start=1):
                coeffs: Dict[Variable, int] = dict(twist.coeffs)
                coeffs[tgt] = coeffs.get(tgt, 0) + 1
                coeffs[src] = coeffs.get(src, 0) - 1
                rec = FactorRecord(family, arrow, vertex, (g, gp), (s, t),
                                   Character.make(coeffs), exponent)
                self._emit(kernel, rec)

    # -- public operators ------------------------------------------------------

    def kernel_dstar_p(self, flag: FlagType, chart: Optional[TorusChart] = None) -> ThomKernel:
        """Twisted conormal factors plus the filtration-lowering doubled blocks."""
        if not flag:
            raise ValueError("flag type must be nonempty")
        chart = chart or self.chart(flag)
        kernel = ThomKernel(chart, self.law)
        omega = self.omega()
        m = chart.slots
        for g in range(1, m + 1):
            for gp in range(g + 1, m + 1):
                for v in self.quiver.vertices:
                    self._hom_block(kernel, "gp_omega", (g, v), (gp, v), omega, +1, vertex=v)
        for k in self.quiver.double:
            mu = self.mu(k.aid)
            for g in range(1, m + 1):
                for gp in range(1, g):
                    self._hom_block(kernel, "rep_lower", (g, k.tail), (gp, k.head), mu, +1,
                                    arrow=k.aid)
        return kernel

    def kernel_tilde_q(self, flag: FlagType, chart: Optional[TorusChart] = None) -> ThomKernel:
        """Filtration-raising doubled blocks over the untwisted conormal factors."""
        if not flag:
            raise ValueError("flag type must be nonempty")
        chart = chart or self.chart(flag)
        kernel = ThomKernel(chart, self.law)
        m = chart.slots
        for k in self.quiver.double:
            mu = self.mu(k.aid)
            for g in range(1, m + 1):
                for gp in range(g + 1, m + 1):
                    self._hom_block(kernel, "rep_raise", (g, k.tail), (gp, k.head), mu, +1,
                                    arrow=k.aid)
        zero = Character.zero()
        for g in range(1, m + 1):
            for gp in range(g + 1, m + 1):
                for v in self.quiver.vertices:
                    self._hom_block(kernel, "gp_inv", (g, v), (gp, v), zero, -1, vertex=v)
        return kernel

    def flag_kernel(self, flag: FlagType, chart: Optional[TorusChart] = None) -> ThomKernel:
        """The full kernel of a flag type: both operators multiplied."""
        chart = chart or self.chart(flag)
        a = self.kernel_dstar_p(flag, chart)
        b = self.kernel_tilde_q(flag, chart)
        return ThomKernel(chart, self.law, a.divisor + b.divisor, a.zero_records + b.zero_records)

    def biextension_kernel(self, v1: DimVector, v2: DimVector) -> ThomKernel:
        return self.flag_kernel((v1, v2))

    def word_kernel(self, word: Sequence[str]) -> ThomKernel:
        """Kernel of the complete flag whose slots are the word's letters."""
        flag = tuple({v: (1 if v == letter else 0) for v in self.quiver.vertices}
                     for letter in word)
        if not flag:
            raise ValueError("empty word has no flag")
        return self.flag_kernel(flag)

    def appendix_b_kernel(self, flag: FlagType, chart: Optional[TorusChart] = None) -> ThomKernel:
        """Independent assembly: resolved conormal factors, one off-diagonal
        sweep of the doubled blocks, inverse untwisted conormal factors.

        Dual modules are resolved into the same presentation the
        two-operator path uses, so the comparison unit is an honest
        constant; the resolution is recorded on the factor families.
        """
        if not flag:
            raise ValueError("flag type must be nonempty")
        chart = chart or self.chart(flag)
        kernel = ThomKernel(chart, self.law)
        omega = self.omega()
        m = chart.slots
        # Conormal directions of the partial-flag base, symplectic twist,
        # written in the dual-resolved (raising) presentation.
        for g in range(1, m + 1):
            for gp in range(g + 1, m + 1):
                for v in self.quiver.vertices:
                    self._hom_block(kernel, "iota_gp_omega", (g, v), (gp, v), omega, +1, vertex=v)
        # All off-diagonal blocks of the doubled representation space in a
        # single sweep over ordered slot pairs.
        for k in self.quiver.double:
            mu = self.mu(k.aid)
            for g in range(1, m + 1):
                for gp in range(1, m + 1):
                    if g == gp:
                        continue
                    self._hom_block(kernel, "psi_offdiag", (g, k.tail), (gp, k.head), mu, +1,
                                    arrow=k.aid)
        zero = Character.zero()
        for g in range(1, m + 1):
            for gp in range(g + 1, m + 1):
                for v in self.quiver.vertices:
                    self._hom_block(kernel, "psi_gp_inv", (g, v), (gp, v), zero, -1, vertex=v)
        return kernel

    # -- classical layer -----------------------------------------------------

    def classical_divisor(self, v: DimVector) -> "ClassicalDivisorReport":
        """Diagonal multiplicities of the plain representation-space kernel
        with the dilation coordinates at zero."""
        chart = self.chart((v,))
        kernel = ThomKernel(chart, self.law)
        zero = Character.zero()
        for h in self.quiver.arrows:
            self._hom_block(kernel, "classical", (1, h.tail), (1, h.head), zero, +1, arrow=h.aid)
        counts: Dict[Tuple[str, str], int] = {}
        for h in self.quiver.arrows:
            i, j = h.tail, h.head
            if v.get(i, 0) == 0 or v.get(j, 0) == 0:
                continue
            key = (i, j) if self.quiver.vpos[i] <= self.quiver.vpos[j] else (j, i)
            counts[key] = counts.get(key, 0) + 1
        form = incidence_form(self.quiver)
        matches = {
            pair: (counts.get(pair, 0), form[pair])
            for pair in form
            if v.get(pair[0], 0) and v.get(pair[1], 0)
        }
        return ClassicalDivisorReport(kernel, counts, matches)


@dataclass
class ClassicalDivisorReport:
    kernel: ThomKernel
    multiplicities: Dict[Tuple[str, str], int]
    incidence_match: Dict[Tuple[str, str], Tuple[int, int]]

    @property
    def degenerate(self) -> bool:
        return self.kernel.degenerate

    @property
    def matches_incidence(self) -> bool:
        return all(got == want for got, want in self.incidence_match.values())


@dataclass
class CrossPathReport:
    flag: FlagType
    unit: RationalFunction
    ok: bool


def crosscheck(ctx: KernelContext, flag: FlagType) -> CrossPathReport:
    """Build the kernel along both decompositions and extract the unit."""
    chart = ctx.chart(flag)
    return compare_kernels(flag, ctx.flag_kernel(flag, chart), ctx.appendix_b_kernel(flag, chart))


def compare_kernels(flag: FlagType, main: ThomKernel, alt: ThomKernel) -> CrossPathReport:
    """The unit alt / main; no kernel is 0, as no nonzero character orients to 0."""
    unit = divisor_quotient(alt, [(main, None)])
    return CrossPathReport(flag, unit, unit.is_scalar() or unit.is_monomial_unit())


def divisor_quotient(
    main: ThomKernel, parts: Sequence[Tuple[ThomKernel, Optional[Place]]]
) -> RationalFunction:
    """main / (product of the parts), decided on divisors and cancelled: +
    for ``main``, - for each part, per character.  A part with a ``place``
    is moved onto ``main``'s chart along ``embedding``; a part with ``None``
    must live there already.  With no residual the result is the scalar 1."""
    registry = main.chart.registry
    exponents: Counter = Counter()
    for rec in main.divisor:
        exponents[rec.char] += rec.exponent
    for part, place in parts:
        if part.law != main.law or (place is None and part.chart.registry != registry):
            raise ValueError("compared kernels must share a chart registry and a law")
        if place is not None:
            positions = part.chart.embedding(main.chart, place)
            moved = dict(zip(part.chart.registry.variables, positions))
        for rec in part.divisor:
            chi = rec.char
            if place is not None:  # keeping the order of chi's variables, so no sort
                ps = [moved[v] for v, _ in chi.coeffs]
                if any(a >= b for a, b in zip(ps, ps[1:])):
                    raise SymalgError(f"moving {chi} reorders its variables")
                chi = Character(tuple((registry.variables[p], c)
                                      for p, (_, c) in zip(ps, chi.coeffs)))
            exponents[chi] -= rec.exponent
    residual = [main.law.lambda_char(registry, chi).pow(e) for chi, e in exponents.items() if e]
    quotient = _product(registry, residual)
    return quotient.cancelled() if residual else quotient


def evaluate_kernel(
    kernel: ThomKernel, assignment: Mapping[Variable, Frac]
) -> Tuple[Optional[Frac], List[Tuple[str, FactorRecord]]]:
    """Evaluate factor by factor; report vanishing and polar factors.

    Returns (value, culprits).  value is None when a pole occurs; a zero
    value comes with the vanishing factors named.
    """
    culprits: List[Tuple[str, FactorRecord]] = []
    total = Frac(1)
    pole = False
    for rec, contribution in kernel.records:
        try:
            val = contribution.evaluate(assignment)
        except PoleError:
            culprits.append(("pole", rec))
            pole = True
            continue
        if val == 0:
            culprits.append(("zero", rec))
        total *= val
    if pole:
        return None, culprits
    return total, culprits
