"""Kernels of twisted cotangent extension correspondences on torus charts.

A flag type is a sequence of dimension vectors (v_1, ..., v_m).  Its
chart carries one block of coordinates x[g, i, s] per slot g and vertex
i, plus the dilation coordinates.  Every kernel is a product of
orientation factors of characters

    x[g', j, t] - x[g, i, s] + (dilation character),

one per coordinate pair of a Hom block between two (slot, vertex)
blocks.  A kernel is a list of ``HomBlock`` values and
``KernelContext.assemble`` is the one place that turns such a list into
factor records.  Two lists, built over the nonempty blocks only, give
two independent decompositions of the same correspondence:

* the two-operator path, ``flag_kernel``: D*P (Levi-conormal factors
  with the symplectic twist, plus the filtration-lowering part of the
  doubled representation space) times Q~ (the filtration-raising part,
  divided by the untwisted Levi factors);
* the one-pass path, ``appendix_b_kernel``: conormal factors in their
  dual-resolved presentation, the full off-diagonal doubled block sweep,
  and the same inverse Levi factors.

The two paths must agree up to a unit, which ``crosscheck`` extracts and
reports.  Weight-zero characters (loops on a single slot) never divide:
their factors are treated as units and flagged on the kernel.

A kernel is held as a divisor: factor records, each a character chi with
a signed exponent e, standing for the product of the orientations
lambda(chi)^e (the Euler class of a sum of characters is the product of
their orientations; Quillen, Bull. AMS 1969).  Assembly orients nothing.
One helper, ``_oriented``, sums the exponents per character and orients
each nonzero sum once: ``ThomKernel.fn`` is the kernel's divisor under
it, and ``divisor_quotient`` decides every kernel identity (the
dual-assembly unit, bilinearity, locality) as main minus the parts under
it, cancelled.  That is the quotient of the oriented kernels, since a
merge of factored functions only sums the exponents of equal factors and
multiplies units.  ``evaluate_kernel`` reads the divisor at a point; only
the tests and tracing read the per-record view ``ThomKernel.records``.

A part on another chart is moved variable by variable first.  An
orientation depends only on the law and the coefficients of the
character, read in the canonical order of its variables (see ``fgl``),
so a move that keeps each character's variables in order commutes with
orienting under any law, commutative and associative or not.  A move
that reorders a character's variables raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Frac
from functools import cached_property
from itertools import chain
from math import prod
from typing import Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .fgl import Character, FormalGroupLaw
from .quiver import (
    DilationReport,
    DilationTorus,
    DimVector,
    NakajimaWeights,
    QuiverSpec,
    incidence_form,
    validate_dilation,
)
from .symalg import (
    ROLE_DILATION,
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


class HomBlock(NamedTuple):
    """Hom(block ``source``, block ``target``) of (slot, vertex) blocks,
    twisted by a dilation character: one factor lambda(x[g', j, t] -
    x[g, i, s] + twist)^exponent per coordinate pair.  ``arrow`` or
    ``vertex`` names the carrier in the records."""

    family: str
    arrow: Optional[str]
    vertex: Optional[str]
    source: Tuple[int, str]
    target: Tuple[int, str]
    twist: Character
    exponent: int


@dataclass
class ThomKernel:
    """A kernel as a divisor, oriented on first use.

    ``divisor`` is the single source of truth: assembly only appends
    records, and ``fn``, ``divisor_quotient`` and ``evaluate_kernel`` read
    nothing else.  ``fn`` is the divisor oriented by ``_oriented``, each
    character once.  ``records`` pairs each record with its own
    lambda(rec.char)^rec.exponent under ``law`` on the chart; only the
    tests and tracing read it.  Both are cached on first access, so neither
    may be read before assembly has finished.  Weight-zero records sit in
    ``zero_records`` and enter neither.
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
        return _oriented(self.chart.registry, self.law,
                         ((rec.char, rec.exponent) for rec in self.divisor))

    @property
    def degenerate(self) -> bool:
        return bool(self.zero_records)


def _oriented(registry: VarRegistry, law: FormalGroupLaw,
              divisor: Iterable[Tuple[Character, int]]) -> RationalFunction:
    """The product of lambda(chi)^e over ``divisor`` on ``registry``:
    exponents summed per character, each nonzero sum oriented once, and
    the powers merged once (one product of units, one merge of factors)."""
    exponents: Dict[Character, int] = {}
    for chi, e in divisor:
        exponents[chi] = exponents.get(chi, 0) + e
    parts = [law.lambda_char(registry, chi).pow(e) for chi, e in exponents.items() if e]
    return RationalFunction._trusted(
        registry,
        prod((p.unit for p in parts), start=Frac(1)),
        chain.from_iterable(p.factors for p in parts),
    )


class KernelContext:
    """Quiver, weight function, dilation torus, and orientation backend.
    ``dilation_report`` is the context's ``validate_dilation`` verdict,
    checked once, on first use."""

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

    @cached_property
    def dilation_report(self) -> DilationReport:
        return validate_dilation(self.quiver, self.weights, self.dilation)

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

    def assemble(self, chart: TorusChart, blocks: Sequence[HomBlock]) -> ThomKernel:
        """The kernel of ``blocks``: one record per coordinate pair of each
        block, in list order, weight-zero records aside.  Raises
        ``SymalgError`` for a twist or a block outside the chart, or for a
        twist with a variable that is not a dilation coordinate.

        Characters are built in canonical order without a sort: a twist
        holds dilation coordinates only, which sort after every torus
        coordinate, so x[g', j, t] - x[g, i, s] + twist is the pair in
        its own order followed by the twist's coefficients, or the twist
        alone when the two coordinates are one."""
        for twist in {b.twist for b in blocks}:
            twist.check_in(chart.registry)
            if any(v.role != ROLE_DILATION for v, _ in twist.coeffs):
                raise SymalgError(f"twist {twist} is not a dilation character")
        kernel = ThomKernel(chart, self.law)
        for b in blocks:
            (g, i), (gp, j) = b.source, b.target
            targets = chart.block(gp, j)
            twist = b.twist.coeffs
            for s, src in enumerate(chart.block(g, i), start=1):
                for t, tgt in enumerate(targets, start=1):
                    if src < tgt:
                        char = Character(((src, -1), (tgt, 1)) + twist)
                    elif tgt < src:
                        char = Character(((tgt, 1), (src, -1)) + twist)
                    else:
                        char = b.twist
                    (kernel.divisor if char.coeffs else kernel.zero_records).append(
                        FactorRecord(b.family, b.arrow, b.vertex, (g, gp), (s, t), char,
                                     b.exponent))
        return kernel

    def _vertex_blocks(self, chart: TorusChart, family: str, twist: Character,
                       exponent: int) -> List[HomBlock]:
        """Hom((g, v), (g', v)) for g < g', vertex by vertex, over the
        vertices nonempty in both slots."""
        m, blocks = chart.slots, chart.blocks
        return [HomBlock(family, None, v, (g, v), (gp, v), twist, exponent)
                for g in range(1, m + 1) for gp in range(g + 1, m + 1)
                for v in self.quiver.vertices if (g, v) in blocks and (gp, v) in blocks]

    def _arrow_blocks(self, chart: TorusChart, family: str,
                      keep: Callable[[int, int], bool]) -> List[HomBlock]:
        """Hom((g, tail), (g', head)) twisted by mu(k) for each arrow k of the
        double and each nonempty slot pair with ``keep(g, g')``."""
        slots: Dict[str, List[int]] = {}
        for g, v in chart.blocks:
            slots.setdefault(v, []).append(g)
        out: List[HomBlock] = []
        for k in self.quiver.double:
            mu = self.mu(k.aid)
            out += [HomBlock(family, k.aid, None, (g, k.tail), (gp, k.head), mu, +1)
                    for g in slots.get(k.tail, ()) for gp in slots.get(k.head, ()) if keep(g, gp)]
        return out

    # -- public operators ------------------------------------------------------

    def flag_kernel(self, flag: FlagType, chart: Optional[TorusChart] = None) -> ThomKernel:
        """The two-operator path: D*P (twisted conormal factors, then the
        filtration-lowering doubled blocks) times Q~ (the filtration-raising
        doubled blocks over the untwisted conormal factors)."""
        if not flag:
            raise ValueError("flag type must be nonempty")
        chart = chart or self.chart(flag)
        return self.assemble(chart, [
            *self._vertex_blocks(chart, "gp_omega", self.omega(), +1),
            *self._arrow_blocks(chart, "rep_lower", lambda g, gp: gp < g),
            *self._arrow_blocks(chart, "rep_raise", lambda g, gp: gp > g),
            *self._vertex_blocks(chart, "gp_inv", Character.zero(), -1),
        ])

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
        # Conormal directions of the partial-flag base with the symplectic
        # twist, in the dual-resolved (raising) presentation; all
        # off-diagonal blocks of the doubled representation space in a
        # single sweep over ordered slot pairs; the inverse Levi factors.
        return self.assemble(chart, [
            *self._vertex_blocks(chart, "iota_gp_omega", self.omega(), +1),
            *self._arrow_blocks(chart, "psi_offdiag", lambda g, gp: g != gp),
            *self._vertex_blocks(chart, "psi_gp_inv", Character.zero(), -1),
        ])

    # -- classical layer -----------------------------------------------------

    def classical_divisor(self, v: DimVector) -> "ClassicalDivisorReport":
        """Diagonal multiplicities of the plain representation-space kernel
        with the dilation coordinates at zero."""
        chart = self.chart((v,))
        zero = Character.zero()
        blocks = [HomBlock("classical", h.aid, None, (1, h.tail), (1, h.head), zero, +1)
                  for h in self.quiver.arrows if (1, h.tail) in chart.blocks
                  and (1, h.head) in chart.blocks]
        counts: Dict[Tuple[str, str], int] = {}
        for b in blocks:
            i, j = b.source[1], b.target[1]
            key = (i, j) if self.quiver.vpos[i] <= self.quiver.vpos[j] else (j, i)
            counts[key] = counts.get(key, 0) + 1
        form = incidence_form(self.quiver)
        matches = {
            pair: (counts.get(pair, 0), form[pair])
            for pair in form
            if v.get(pair[0], 0) and v.get(pair[1], 0)
        }
        return ClassicalDivisorReport(self.assemble(chart, blocks), counts, matches)


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
    quotient: List[Tuple[Character, int]] = [(rec.char, rec.exponent) for rec in main.divisor]
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
            quotient.append((chi, -rec.exponent))
    return _oriented(registry, main.law, quotient).cancelled()


def evaluate_kernel(
    kernel: ThomKernel, assignment: Mapping[Variable, Frac]
) -> Tuple[Optional[Frac], List[Tuple[str, FactorRecord]]]:
    """Evaluate factor by factor; report vanishing and polar factors.

    Returns (value, culprits).  value is None when a pole occurs; a zero
    value comes with the vanishing factors named.  Raises ``KeyError``
    when ``assignment`` misses a variable of the kernel's chart.

    The divisor is read and nothing is oriented on the chart: each record
    contributes lambda(chi)^e at the point, which ``FormalGroupLaw.power_at``
    reads on the canonical chart of chi (the chart's contribution is its
    injective rename, so the values agree), over the integers
    (``MultiPoly.evaluate``).
    """
    registry = kernel.chart.registry
    missing = next((v for v in registry.variables if v not in assignment), None)
    if missing is not None:
        raise KeyError(missing)
    law = kernel.law
    culprits: List[Tuple[str, FactorRecord]] = []
    num = den = 1  # the product of the values, reduced once
    pole = False
    for rec in kernel.divisor:
        try:
            val = law.power_at(rec.char, rec.exponent, assignment)
        except PoleError:
            culprits.append(("pole", rec))
            pole = True
            continue
        if val == 0:
            culprits.append(("zero", rec))
        num *= val.numerator
        den *= val.denominator
    if pole:
        return None, culprits
    return Frac(num, den), culprits
