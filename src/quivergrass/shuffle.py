"""The twisted shuffle product and spans of generator products.

Elements of a given weight live on the one-slot chart of that weight
(coordinates x[1, i, s] per vertex i) and are invariant under the
per-vertex permutations of their coordinates.  The product of two
elements places them on disjoint coordinate blocks, multiplies by the
pair kernel of the two blocks, and sums over all per-vertex block
shuffles.  Denominators introduced by the kernel cancel after the sum;
the product of polynomial elements is again polynomial.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction as Frac
from math import comb, factorial, prod
from typing import Dict, List, Sequence, Tuple

from .fixedpoints import DegreeOverflowError
from .quiver import ColorWord, DimVector, dim_add, dim_total, dim_zero
from .symalg import (
    MultiPoly,
    RationalFunction,
    SymalgError,
    Variable,
    symmetrize,
)
from .thom import KernelContext, TorusChart


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


@dataclass
class WeightSpaceBasis:
    weight: DimVector
    degree_bound: int
    elements: List[ShuffleElement]
    dimension: int
    tau_points: List[Dict[Variable, Frac]]

    def __repr__(self) -> str:
        return f"WeightSpaceBasis(weight={self.weight}, dim={self.dimension})"


def _all_words(quiver, alpha: DimVector) -> List[ColorWord]:
    letters: List[str] = []
    for v in quiver.vertices:
        letters.extend([v] * alpha.get(v, 0))
    return sorted(set(itertools.permutations(letters)))


def _random_tau(ctx: KernelContext, rng: random.Random) -> Dict[Variable, Frac]:
    from .symalg import d_var

    # Avoid small coincidences among shift values.
    vals = {}
    for k in range(1, ctx.dilation.rank + 1):
        vals[d_var(k)] = Frac(rng.randint(50, 400), rng.randint(1, 7))
    return vals


# Candidate words x exponent tuples x the representatives each candidate is
# summed over, which is (D + n)! / D! at total weight n and degree bound D.
# At 1000, a1 at weight 2 takes degree bounds up to 30, and the slowest
# admitted input measured, rank-2 a2 at weight (2, 2) and degree 3, takes
# 3.5 s (2 vCPUs, interpreter start included).
WEIGHT_SPACE_CAP = 1000


def weight_space(
    ctx: KernelContext,
    alpha: DimVector,
    degree_bound: int,
    seed: int = 7,
) -> WeightSpaceBasis:
    """Span of all generator-order products times bounded-degree monomials.

    The dimension is computed by exact row reduction after specializing
    the dilation coordinates at a random rational point, and confirmed
    at a second point.  Raises ``DegreeOverflowError`` past
    ``WEIGHT_SPACE_CAP`` before any element is built.
    """
    if dim_total(alpha) > 4:
        raise SymalgError("weight spaces are computed for total weight <= 4")
    if degree_bound < 0:
        raise SymalgError("the degree bound must be non-negative")
    rng = random.Random(seed)
    taus = [_random_tau(ctx, rng), _random_tau(ctx, rng)]
    nx = sum(map(len, element_chart(ctx, alpha).blocks.values()))
    words = _all_words(ctx.quiver, alpha)
    cost = len(words) * comb(degree_bound + nx, nx) * prod(map(factorial, alpha.values()))
    if cost > WEIGHT_SPACE_CAP:
        raise DegreeOverflowError(
            f"{cost} candidate products with their representatives, "
            f"above the cap of {WEIGHT_SPACE_CAP}"
        )

    raw: List[ShuffleElement] = []
    if dim_total(alpha) == 0:
        raw.append(unit_element(ctx))
    else:
        for word in words:
            for exps in _bounded_exponents(nx, degree_bound):
                elt = monomial_element(ctx, word, exps)
                if elt.polynomial and elt.fn.numerator().degree() <= degree_bound:
                    raw.append(elt)

    dims = []
    pivots_first: List[ShuffleElement] = []
    for which, tau_pt in enumerate(taus):
        rows = []
        for elt in raw:
            fn = elt.fn.substitute(tau_pt)
            rows.append((elt, fn.numerator()))
        dim, pivots = _rank_over_monomials(rows)
        dims.append(dim)
        if which == 0:
            pivots_first = pivots
    if len(set(dims)) != 1:
        raise SymalgError(f"weight-space dimension unstable across points: {dims}")
    return WeightSpaceBasis(alpha, degree_bound, pivots_first, dims[0], taus)


def _bounded_exponents(n: int, bound: int):
    if n == 0:
        yield ()
        return
    for total in range(0, bound + 1):
        for cuts in itertools.combinations(range(total + n - 1), n - 1):
            exps = []
            prev = -1
            for c in cuts:
                exps.append(c - prev - 1)
                prev = c
            exps.append(total + n - 2 - prev)
            yield tuple(exps)


def _rank_over_monomials(rows) -> Tuple[int, List[ShuffleElement]]:
    basis: Dict[int, MultiPoly] = {}
    pivots: List[ShuffleElement] = []
    for elt, poly in rows:
        current = poly
        while not current.is_zero():
            lead, coeff = current.leading()
            if lead in basis:
                other = basis[lead]
                _, oc = other.leading()
                current = current - other.scale(Frac(coeff) / Frac(oc))
            else:
                basis[lead] = current
                pivots.append(elt)
                break
    return len(basis), pivots
