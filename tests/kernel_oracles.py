"""Oracles kept beside the code they check.  This file is a helper, not a
test module; the tests import it by name.

* Function-level oracles for the kernel identities that
  ``thom.divisor_quotient`` decides on divisors.  Each orients the
  kernels, renames the parts onto the main chart, multiplies them and
  compares with ``rat_equal``, as the bilinearity and locality checks
  once did.
* The kernel assemblies as they were before kernels became lists of
  ``HomBlock`` values: nested loops over every slot pair and vertex or
  arrow, and a generator that builds one record per coordinate pair.
* The disjointness predicate as it was before it read the pair kernel's
  blocks: a hand-kept list of shifted-diagonal descriptors.
* The module kernel (a product over Hom blocks) that several tests build.
* Point evaluation as it was before ``evaluate_kernel`` read divisors:
  every record oriented on the full chart, and every polynomial
  evaluated with one ``Fraction`` per chart variable.
* ``ThomKernel.fn`` as it was before it read the divisor: the product of
  the per-record orientations ``ThomKernel.records``.
* The fiber values as they were before ``ind_fiber`` kept one value per
  point pair: the pair kernel built and its ``fn`` evaluated for every
  pair of every monotone system.
"""

import itertools
from fractions import Fraction as F
from itertools import chain
from math import prod
from typing import NamedTuple

from quivergrass import checks
from quivergrass.fgl import Character, FormalGroupLaw
from quivergrass.quiver import abelianization, stock_quiver
from quivergrass.symalg import PoleError, RationalFunction, rat_equal
from quivergrass.thom import FactorRecord, HomBlock, ThomKernel
from quivergrass.zastava import monotone_maps

# A truncated series law that is neither commutative nor associative.
NON_SYMMETRIC = FormalGroupLaw.series({(1, 2): F(1), (1, 1): F(-1, 2)}, 4)


def kernel_of_module(ctx, chart, blocks):
    """Product over Hom blocks ((g, i), (g', j), twist, multiplicity)."""
    return ctx.assemble(chart, [HomBlock("module", None, None, source, target, twist, mult)
                                for source, target, twist, mult in blocks])


def flag_blocks(ctx, flag):
    """(chart, blocks) that ``ctx.flag_kernel(flag)`` hands to ``assemble``."""
    seen = []
    assemble = ctx.assemble
    ctx.assemble = lambda chart, blocks: seen.append((chart, blocks)) or assemble(chart, blocks)
    try:
        ctx.flag_kernel(flag)
    finally:
        del ctx.assemble
    return seen[0]


# -- the nested-loop assemblies ---------------------------------------------------


def emit(kernel, rec):
    if rec.char.is_zero():
        kernel.zero_records.append(rec)
        return
    rec.char.check_in(kernel.chart.registry)
    kernel.divisor.append(rec)


def hom_block_by_pairs(kernel, family, source, target, twist, exponent, arrow=None, vertex=None):
    """One character per coordinate pair, block sizes read for every pair,
    the twist added afterwards."""
    chart = kernel.chart
    (g, i), (gp, j) = source, target
    for s in range(1, chart.dim(g, i) + 1):
        for t in range(1, chart.dim(gp, j) + 1):
            coeffs = {chart.x(gp, j, t): 1}
            src = chart.x(g, i, s)
            coeffs[src] = coeffs.get(src, 0) - 1
            for v, c in twist.coeffs:
                coeffs[v] = coeffs.get(v, 0) + c
            char = Character.make(coeffs)
            emit(kernel, FactorRecord(family, arrow, vertex, (g, gp), (s, t), char, exponent))


def nested_flag_kernel(ctx, chart):
    """D*P, then Q~, over every slot pair whether its blocks are empty or not."""
    kernel = ThomKernel(chart, ctx.law)
    m, omega, zero = chart.slots, ctx.omega(), Character.zero()
    for g in range(1, m + 1):
        for gp in range(g + 1, m + 1):
            for v in ctx.quiver.vertices:
                hom_block_by_pairs(kernel, "gp_omega", (g, v), (gp, v), omega, +1, vertex=v)
    for k in ctx.quiver.double:
        for g in range(1, m + 1):
            for gp in range(1, g):
                hom_block_by_pairs(kernel, "rep_lower", (g, k.tail), (gp, k.head),
                                   ctx.mu(k.aid), +1, arrow=k.aid)
    for k in ctx.quiver.double:
        for g in range(1, m + 1):
            for gp in range(g + 1, m + 1):
                hom_block_by_pairs(kernel, "rep_raise", (g, k.tail), (gp, k.head),
                                   ctx.mu(k.aid), +1, arrow=k.aid)
    for g in range(1, m + 1):
        for gp in range(g + 1, m + 1):
            for v in ctx.quiver.vertices:
                hom_block_by_pairs(kernel, "gp_inv", (g, v), (gp, v), zero, -1, vertex=v)
    return kernel


def nested_appendix_b_kernel(ctx, chart):
    kernel = ThomKernel(chart, ctx.law)
    m, omega, zero = chart.slots, ctx.omega(), Character.zero()
    for g in range(1, m + 1):
        for gp in range(g + 1, m + 1):
            for v in ctx.quiver.vertices:
                hom_block_by_pairs(kernel, "iota_gp_omega", (g, v), (gp, v), omega, +1, vertex=v)
    for k in ctx.quiver.double:
        for g in range(1, m + 1):
            for gp in range(1, m + 1):
                if g != gp:
                    hom_block_by_pairs(kernel, "psi_offdiag", (g, k.tail), (gp, k.head),
                                       ctx.mu(k.aid), +1, arrow=k.aid)
    for g in range(1, m + 1):
        for gp in range(g + 1, m + 1):
            for v in ctx.quiver.vertices:
                hom_block_by_pairs(kernel, "psi_gp_inv", (g, v), (gp, v), zero, -1, vertex=v)
    return kernel


def nested_classical_kernel(ctx, v):
    kernel = ThomKernel(ctx.chart((v,)), ctx.law)
    for h in ctx.quiver.arrows:
        hom_block_by_pairs(kernel, "classical", (1, h.tail), (1, h.head), Character.zero(), +1,
                           arrow=h.aid)
    return kernel


def nested_pair_check_kernel(ctx, v1, v2):
    kernel = ThomKernel(ctx.chart((v1, v2)), ctx.law)
    omega, zero = ctx.omega(), Character.zero()
    for k in ctx.quiver.double:
        mu = ctx.mu(k.aid)
        hom_block_by_pairs(kernel, "rep_raise", (1, k.tail), (2, k.head), mu, +1, arrow=k.aid)
        hom_block_by_pairs(kernel, "rep_lower", (2, k.tail), (1, k.head), mu, +1, arrow=k.aid)
    for v in ctx.quiver.vertices:
        hom_block_by_pairs(kernel, "gp_omega", (1, v), (2, v), omega, +1, vertex=v)
        hom_block_by_pairs(kernel, "gp_omega", (2, v), (1, v), omega, +1, vertex=v)
        hom_block_by_pairs(kernel, "gp_inv", (1, v), (2, v), zero, -1, vertex=v)
        hom_block_by_pairs(kernel, "gp_inv", (2, v), (1, v), zero, -1, vertex=v)
    return kernel


# -- the descriptor list of shifted diagonals ---------------------------------------


class Descriptor(NamedTuple):
    """One constraint between two configurations.  Order "12" tests the
    second configuration's ``color2`` points, shifted, against the first
    one's ``color1`` points; "21" swaps the roles."""

    name: str
    color1: str
    color2: str
    shift: F
    source: str  # "arrow:<id>" | "plain" | "symplectic"
    order: str = "12"


def shifted_diagonals(ctx, v1, v2, tau):
    law = ctx.law
    out = []
    for k in ctx.quiver.double:
        shift = law.char_value(ctx.mu(k.aid), tau)
        for order, w1, w2 in (("12", v1, v2), ("21", v2, v1)):
            if w1.get(k.tail, 0) and w2.get(k.head, 0):
                out.append(Descriptor(f"delta_{k.aid}(tau)", k.tail, k.head, shift,
                                      f"arrow:{k.aid}", order))
    omega_shift = law.char_value(ctx.omega(), tau)
    for v in ctx.quiver.vertices:
        if v1.get(v, 0) == 0 or v2.get(v, 0) == 0:
            continue
        out.append(Descriptor(f"delta_{v}", v, v, law.point_zero(), "plain"))
        for order in ("12", "21"):
            out.append(Descriptor(f"delta_{v}(tau)", v, v, omega_shift, "symplectic", order))
    return out


def descriptor_disjoint(ctx, d1, d2, tau):
    """No descriptor's shifted points land on the other configuration."""
    law = ctx.law
    for d in shifted_diagonals(ctx, d1.weight(ctx), d2.weight(ctx), tau):
        shifted, fixed = (d2, d1) if d.order == "12" else (d1, d2)
        targets = set(fixed.coords[d.color1])
        if any(law.point_add(y, d.shift) in targets for y in shifted.coords[d.color2]):
            return False
    return True


def renamed_product(main, parts):
    """The product of the parts' oriented kernels renamed onto main's chart."""
    reg = main.chart.registry
    out = RationalFunction.one(reg)
    for kernel, place in parts:
        out = out * kernel.fn.rename(kernel.chart.embedding(main.chart, place), reg)
    return out


def bilinearity_holds(ctx, lhs, v1, v2, w):
    """kernel(v1 + v2, w) = kernel(v1, w) * kernel(v2, w) on the functions."""
    k1 = ctx.biextension_kernel(v1, w)
    k2 = ctx.biextension_kernel(v2, w)
    # k1 sits on the first v1 coordinates of slot 1, k2 on the rest; both
    # share slot 2.
    rhs = renamed_product(lhs, [
        (k1, lambda g, vtx, s: (g, s)),
        (k2, lambda g, vtx, s: (g, s + v1.get(vtx, 0) if g == 1 else s)),
    ])
    return rat_equal(lhs.fn, rhs)


def locality_holds(ctx, word1, word2, with_pair=True):
    """The word kernel of word1 + word2 equals the two word kernels times
    the pair kernel (left out when ``with_pair`` is false), on the functions."""
    combined = tuple(word1) + tuple(word2)
    big = ctx.word_kernel(combined)
    n1 = len(word1)
    parts = []
    if word1:
        parts.append((ctx.word_kernel(word1), lambda g, v, s: (g, s)))
    if word2:
        parts.append((ctx.word_kernel(word2), lambda g, v, s: (n1 + g, s)))
    if word1 and word2 and with_pair:
        pair = ctx.biextension_kernel(abelianization(ctx.quiver, word1),
                                      abelianization(ctx.quiver, word2))
        slots = [{}, {}]
        for g, letter in enumerate(combined, start=1):
            slots[g > n1].setdefault(letter, []).append(g)
        parts.append((pair, lambda g, v, s: (slots[g - 1][v][s - 1], 1)))
    return rat_equal(big.fn, renamed_product(big, parts))


def bilinearity_cases(laws, quivers=("a1", "a2", "kronecker2"), max_side=3):
    """(ctx, lhs, v1, v2, w) for every split the bilinearity suite checks."""
    for qname in quivers:
        quiver = stock_quiver(qname)
        for _, law in laws:
            ctx = checks.make_context(quiver, law)
            vs = [v for t in range(1, max_side + 1)
                  for v in checks.enumerate_dimvectors(quiver, t)]
            for v in vs:
                for w in vs:
                    lhs = ctx.biextension_kernel(v, w)
                    for v1, v2 in checks._splits(quiver, v):
                        yield ctx, lhs, v1, v2, w


def locality_cases(laws, quivers=("a1", "a2"), max_total=4):
    """(ctx, word1, word2) for every word pair the locality suite checks."""
    for qname in quivers:
        quiver = stock_quiver(qname)
        for _, law in laws:
            ctx = checks.make_context(quiver, law)
            for w1, w2 in checks._word_pairs(quiver, max_total):
                yield ctx, w1, w2


# -- point evaluation on the full chart ------------------------------------------------


def fraction_poly_value(poly, assignment):
    """A polynomial's value: one Fraction per registry variable, Fraction
    powers term by term."""
    values = [F(assignment[v]) for v in poly.registry.variables]
    total = F(0)
    for exps, c in poly.items_unpacked():
        t = c
        for e, val in zip(exps, values):
            if e:
                t *= val ** e
        total += t
    return total


def fraction_rat_value(f, assignment):
    """A factored function's value, factor by factor; ``PoleError`` for a
    vanishing denominator factor, even when a numerator factor vanishes."""
    if f.unit == 0:
        return F(0)
    vals = []
    for p, e in f.factors:
        v = fraction_poly_value(p, assignment)
        if e < 0 and v == 0:
            raise PoleError(repr(p))
        vals.append((v, e))
    total = f.unit
    for v, e in vals:
        total *= v ** e
    return total


def records_evaluate_kernel(kernel, assignment):
    """(value, culprits) from every record's contribution on the chart."""
    culprits = []
    total = F(1)
    pole = False
    for rec, contribution in kernel.records:
        try:
            val = fraction_rat_value(contribution, assignment)
        except PoleError:
            culprits.append(("pole", rec))
            pole = True
            continue
        if val == 0:
            culprits.append(("zero", rec))
        total *= val
    return (None if pole else total), culprits


# -- the kernel from its records, and fiber values pair by pair ---------------------------


def records_fn(kernel):
    """The product of the per-record orientations, merged once."""
    parts = [c for _, c in kernel.records]
    return RationalFunction._trusted(kernel.chart.registry,
                                     prod((p.unit for p in parts), start=F(1)),
                                     chain.from_iterable(p.factors for p in parts))


def fn_pair_value(ctx, u, v, coords, tau):
    """The pair kernel of two single points in id order, built and its
    ``fn`` evaluated at a hand-built assignment."""
    first, second = sorted((u, v), key=lambda p: p.pid)
    v1 = {c: (1 if c == first.color else 0) for c in ctx.quiver.vertices}
    v2 = {c: (1 if c == second.color else 0) for c in ctx.quiver.vertices}
    kernel = ctx.biextension_kernel(v1, v2)
    assignment = dict(tau)
    assignment[kernel.chart.x(1, first.color, 1)] = F(coords[first.pid])
    assignment[kernel.chart.x(2, second.color, 1)] = F(coords[second.pid])
    return kernel.fn.evaluate(assignment)


def per_call_fiber_values(ctx, poset, divisor, tau):
    """Each system's value, one ``fn_pair_value`` call per pair of points
    inside each member."""
    by_pid = {pt.pid: pt for pt in divisor.points}
    values = []
    for system in monotone_maps(poset, divisor):
        total = F(1)
        for element in poset.elements:
            members = [by_pid[pid] for pid, k in system[element] if k == 1]
            for u, v in itertools.combinations(members, 2):
                total *= fn_pair_value(ctx, u, v, divisor.coords, tau)
        values.append(total)
    return values
