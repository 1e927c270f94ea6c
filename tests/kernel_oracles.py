"""Function-level oracles for the kernel identities that
``thom.divisor_quotient`` decides on divisors.  Each orients the kernels,
renames the parts onto the main chart, multiplies them and compares with
``rat_equal``, as the bilinearity and locality checks once did.  Also the
module kernel (a product over Hom blocks) that several tests build.  This
file is a helper, not a test module; the tests import it by name."""

from fractions import Fraction as F

from quivergrass import checks
from quivergrass.fgl import FormalGroupLaw
from quivergrass.quiver import abelianization, stock_quiver
from quivergrass.symalg import RationalFunction, rat_equal
from quivergrass.thom import ThomKernel

# A truncated series law that is neither commutative nor associative.
NON_SYMMETRIC = FormalGroupLaw.series({(1, 2): F(1), (1, 1): F(-1, 2)}, 4)


def kernel_of_module(ctx, chart, blocks):
    """Product over Hom blocks ((g, i), (g', j), twist, multiplicity)."""
    kernel = ThomKernel(chart, ctx.law)
    for source, target, twist, mult in blocks:
        ctx._hom_block(kernel, "module", source, target, twist, mult)
    return kernel


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
