"""The twisted shuffle product and weight-space dimensions.

Elements of a given weight live on the one-slot chart of that weight
(coordinates x[1, i, s] per vertex i) and are invariant under the
per-vertex permutations of their coordinates.  The product of two
elements places them on disjoint coordinate blocks, multiplies by the
pair kernel of the two blocks, and sums over all per-vertex block
shuffles.  Denominators introduced by the kernel cancel after the sum;
the product of polynomial elements is again polynomial.  ``weight_space``
gives the dimension of the span of generator products times
bounded-degree monomials at one weight.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction as Frac
from math import comb, factorial, prod
from typing import Dict, List, Sequence, Tuple

from .fixedpoints import DegreeOverflowError, _monic, _normal_form
from .locality import tau_point
from .quiver import ColorWord, DimVector, dim_add, dim_total, dim_zero
from .symalg import (
    MultiPoly,
    RationalFunction,
    SymalgError,
    symmetrize,
)
from .thom import KernelContext, ThomKernel, TorusChart


@dataclass
class ShuffleElement:
    weight: DimVector
    fn: RationalFunction
    polynomial: bool

    def __repr__(self) -> str:
        w = ",".join(f"{v}:{k}" for v, k in sorted(self.weight.items()))
        return f"ShuffleElement({w}; {self.fn})"


def element_chart(ctx: KernelContext, weight: DimVector) -> TorusChart:
    return ctx.chart((weight,))


def unit_element(ctx: KernelContext) -> ShuffleElement:
    chart = element_chart(ctx, dim_zero(ctx.quiver))
    return ShuffleElement(dim_zero(ctx.quiver), RationalFunction.one(chart.registry), True)


def generator(ctx: KernelContext, vertex: str) -> ShuffleElement:
    weight = dim_zero(ctx.quiver)
    if vertex not in weight:
        raise SymalgError(f"unknown vertex {vertex!r}")
    weight[vertex] = 1
    chart = element_chart(ctx, weight)
    return ShuffleElement(weight, RationalFunction.one(chart.registry), True)


def _blocks(chart: TorusChart, alpha: DimVector):
    """Per-vertex variable blocks of the chart of alpha + beta: the first
    alpha_i coordinates vs the rest."""
    partition = []
    for (_, v), xs in chart.blocks.items():
        a = alpha.get(v, 0)
        partition.append([blk for blk in (xs[:a], xs[a:]) if blk])
    return partition


def shuffle_product(ctx: KernelContext, a: ShuffleElement, b: ShuffleElement) -> ShuffleElement:
    gamma = dim_add(a.weight, b.weight)
    chart = element_chart(ctx, gamma)
    reg = chart.registry

    def place(g: int, v: str, s: int) -> Tuple[int, int]:
        # Slot 1 of the pair chart is a's block; slot 2 is b's, after a's.
        return 1, s + (a.weight.get(v, 0) if g == 2 else 0)

    fa = a.fn.rename(element_chart(ctx, a.weight).embedding(chart, place), reg)
    b_positions = element_chart(ctx, b.weight).embedding(chart, lambda g, v, s: place(2, v, s))
    fb = b.fn.rename(b_positions, reg)
    pair = ctx.biextension_kernel(a.weight, b.weight)
    fk = pair.fn.rename(pair.chart.embedding(chart, place), reg)

    product = fa * fb * fk
    result = symmetrize(product, _blocks(chart, a.weight))
    return ShuffleElement(gamma, result, result.is_regular())


def word_product(ctx: KernelContext, word: ColorWord) -> ShuffleElement:
    out = unit_element(ctx)
    for letter in word:
        out = shuffle_product(ctx, out, generator(ctx, letter))
    return out


def monomial_element(
    ctx: KernelContext, word: ColorWord, exponents: Sequence[int]
) -> ShuffleElement:
    """Symmetrized monomial multiple of a word's flag kernel.

    The word kernel on the complete-flag chart is pulled to the weight
    chart, multiplied by the monomial x^exponents, and summed over the
    full per-vertex symmetric groups.  These are the raw spanning
    elements of the weight spaces.
    """
    from .quiver import abelianization

    weight = abelianization(ctx.quiver, word)
    chart = element_chart(ctx, weight)
    reg = chart.registry
    if not word:
        return unit_element(ctx)
    kernel = ctx.word_kernel(word)
    occurrence: List[int] = []
    seen: Dict[str, int] = {}
    for letter in word:
        seen[letter] = seen.get(letter, 0) + 1
        occurrence.append(seen[letter])
    fn = kernel.fn.rename(
        kernel.chart.embedding(chart, lambda g, v, s: (1, occurrence[g - 1])), reg
    )
    xvars = [x for xs in chart.blocks.values() for x in xs]
    if len(exponents) != len(xvars):
        raise SymalgError("exponent list does not match the weight chart")
    fn = fn * RationalFunction.from_poly(MultiPoly.monomial(reg, dict(zip(xvars, exponents))))
    result = symmetrize(fn, [[[x] for x in xs] for xs in chart.blocks.values()])
    return ShuffleElement(weight, result, result.is_regular())


def _all_words(quiver, alpha: DimVector) -> List[ColorWord]:
    letters: List[str] = []
    for v in quiver.vertices:
        letters.extend([v] * alpha.get(v, 0))
    return sorted(set(itertools.permutations(letters)))


def _rank(polys: Sequence[MultiPoly]) -> int:
    """The dimension of the span of ``polys``: each term of each is reduced
    by the basis element whose leading key is that term's, and a nonzero
    remainder joins the basis."""
    basis: List[Tuple[int, Dict[int, Frac]]] = []
    for p in polys:
        rem = _normal_form(dict(p.terms), basis, int.__eq__)
        if rem:
            basis.append(_monic(rem))
    return len(basis)


# Candidate words x exponent tuples x the representatives each candidate is
# summed over, (D + n)! / D! at total weight n and degree bound D; and those
# candidates times the terms that bound each one's expanded numerator
# (``_numerator_terms``), which grow with the arrows and the law.  The README
# gives the slowest admitted inputs measured.
WEIGHT_SPACE_CAP = 1000
WEIGHT_SPACE_TERMS_CAP = 1_000_000


def _numerator_terms(kernel: ThomKernel) -> int:
    """A bound on the terms of the kernel's expanded numerator, which a
    monomial multiple keeps: the monomials in the chart's variables of at
    most its degree, or the product of its factors' term counts, whichever
    is smaller; single-term factors change neither."""
    powers = [(p, e) for p, e in kernel.fn.factors if e > 0 and len(p.terms) > 1]
    degree, nvars = sum(e * p.degree() for p, e in powers), len(kernel.chart.registry.variables)
    return min(comb(degree + nvars, nvars), prod(len(p.terms) ** e for p, e in powers))


def weight_space(ctx: KernelContext, alpha: DimVector, degree_bound: int) -> int:
    """Dimension of the span of all generator-order products times
    bounded-degree monomials.

    The dimension is computed by exact row reduction after specializing
    the dilation coordinates at a rational point, and confirmed at a
    second, both drawn from the fixed stream ``random.Random(0)``.  Raises
    ``DegreeOverflowError`` past either cap before any element is built.
    """
    n = dim_total(alpha)
    if n > 4:
        raise SymalgError("weight spaces are computed for total weight <= 4")
    if degree_bound < 0:
        raise SymalgError("the degree bound must be non-negative")
    rng = random.Random(0)
    # Shift values away from small coincidences.
    taus = [tau_point(ctx, [Frac(rng.randint(50, 400), rng.randint(1, 7))
                            for _ in range(ctx.dilation.rank)]) for _ in range(2)]
    words = _all_words(ctx.quiver, alpha)
    candidates = len(words) * comb(degree_bound + n, n) * prod(map(factorial, alpha.values()))
    terms = candidates * (_numerator_terms(ctx.word_kernel(words[0])) if n else 1)
    if candidates > WEIGHT_SPACE_CAP or terms > WEIGHT_SPACE_TERMS_CAP:
        raise DegreeOverflowError(
            f"{candidates} candidate products with their representatives (cap "
            f"{WEIGHT_SPACE_CAP}) and {terms} numerator terms (cap {WEIGHT_SPACE_TERMS_CAP})"
        )
    raw: List[RationalFunction] = []
    for word in words:
        for exps in itertools.product(range(degree_bound + 1), repeat=n):
            if sum(exps) <= degree_bound:
                elt = monomial_element(ctx, word, exps)
                if elt.polynomial and elt.fn.numerator().degree() <= degree_bound:
                    raw.append(elt.fn)
    dims = [_rank([fn.substitute(tau).numerator() for fn in raw]) for tau in taus]
    if len(set(dims)) != 1:
        raise SymalgError(f"weight-space dimension unstable across points: {dims}")
    return dims[0]
