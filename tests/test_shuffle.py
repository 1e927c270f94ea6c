import itertools
import random
from fractions import Fraction as F

import pytest

from quivergrass.fgl import FormalGroupLaw
from quivergrass.quiver import DilationTorus, default_nakajima, stock_quiver
from quivergrass.shuffle import (
    _rank,
    generator,
    monomial_element,
    shuffle_product,
    unit_element,
    weight_space,
    word_product,
)
from quivergrass.symalg import MultiPoly, RationalFunction, VarRegistry, rat_equal, d_var
from quivergrass.thom import KernelContext


def ctx_for(name, law=None):
    q = stock_quiver(name)
    return KernelContext(q, default_nakajima(q), DilationTorus.diagonal(),
                         law or FormalGroupLaw.additive())


def additive_shuffle_oracle(points, tau):
    """Sum over all coordinate orders of the pairwise (x_j-x_i+tau)/(x_j-x_i)
    products, in plain Fractions."""
    total = F(0)
    n = len(points)
    for perm in itertools.permutations(points):
        term = F(1)
        for i in range(n):
            for j in range(i + 1, n):
                term *= F(perm[j] - perm[i] + tau) / F(perm[j] - perm[i])
        total += term
    return total


def test_generators():
    ctx = ctx_for("a2")
    e1 = generator(ctx, "1")
    assert e1.weight == {"1": 1, "2": 0}
    assert e1.fn.is_scalar() and e1.fn.scalar_value() == 1
    e = generator(ctx_for("a1"), "1")
    assert e.weight == {"1": 1}


def test_ee_equals_two():
    # oracle first: the two-order sum is 2 for any sample points
    rng = random.Random(12)
    for _ in range(6):
        pts = rng.sample(range(1, 300), 2)
        assert additive_shuffle_oracle(pts, F(rng.randint(1, 9))) == 2
    ctx = ctx_for("a1")
    e = generator(ctx, "1")
    ee = shuffle_product(ctx, e, e)
    assert ee.fn.is_scalar() and ee.fn.scalar_value() == 2
    assert ee.polynomial


def test_eee_equals_six():
    rng = random.Random(13)
    for _ in range(4):
        pts = rng.sample(range(1, 500), 3)
        assert additive_shuffle_oracle(pts, F(rng.randint(1, 9))) == 6
    ctx = ctx_for("a1")
    e = generator(ctx, "1")
    eee = shuffle_product(ctx, shuffle_product(ctx, e, e), e)
    assert eee.fn.is_scalar() and eee.fn.scalar_value() == 6


def test_e1e2_single_coset():
    ctx = ctx_for("a2")
    prod = shuffle_product(ctx, generator(ctx, "1"), generator(ctx, "2"))
    chart_reg = prod.fn.registry
    # polynomial with both arrow-direction factors; check by evaluation oracle
    rng = random.Random(3)
    from quivergrass.shuffle import element_chart

    chart = element_chart(ctx, prod.weight)
    x1, x2 = chart.x(1, "1", 1), chart.x(1, "2", 1)
    for _ in range(6):
        a, b, t = F(rng.randint(0, 30)), F(rng.randint(40, 80)), F(rng.randint(1, 7))
        assert prod.fn.evaluate({x1: a, x2: b, d_var(1): t}) == (b - a + t) * (a - b + t)
    assert prod.polynomial
    # One shuffle representative per vertex: the product is cancelled once,
    # and cancelling it again changes nothing.
    again = prod.fn.cancelled()
    assert again == prod.fn and repr(again) == repr(prod.fn)


def test_unit_is_two_sided():
    for name in ("a1", "a2"):
        ctx = ctx_for(name)
        one = unit_element(ctx)
        for v in ctx.quiver.vertices:
            e = generator(ctx, v)
            left = shuffle_product(ctx, one, e)
            right = shuffle_product(ctx, e, one)
            assert rat_equal(left.fn, e.fn) and rat_equal(right.fn, e.fn)


def test_output_symmetric_under_vertex_permutations():
    ctx = ctx_for("a1")
    xe = monomial_element(ctx, ("1",), (1,))
    prod = shuffle_product(ctx, xe, xe)
    from quivergrass.shuffle import element_chart

    chart = element_chart(ctx, prod.weight)
    swapped = prod.fn.rename(chart.embedding(chart, lambda g, v, s: (g, 3 - s)), chart.registry)
    assert rat_equal(prod.fn, swapped)


def test_monomial_times_e_cancels():
    # oracle: x1*(x2-x1+t)/(x2-x1) + x2*(x1-x2+t)/(x1-x2) == x1+x2-t
    rng = random.Random(8)
    for _ in range(6):
        a, b = rng.sample(range(1, 200), 2)
        t = F(rng.randint(1, 9))
        val = F(a) * (b - a + t) / (b - a) + F(b) * (a - b + t) / (a - b)
        assert val == a + b - t
    ctx = ctx_for("a1")
    xe = monomial_element(ctx, ("1",), (1,))
    e = generator(ctx, "1")
    prod = shuffle_product(ctx, xe, e)
    assert prod.polynomial
    chart_reg = prod.fn.registry
    from quivergrass.shuffle import element_chart

    chart = element_chart(ctx, prod.weight)
    x1, x2 = chart.x(1, "1", 1), chart.x(1, "1", 2)
    # omega restricts to 2*d1 on the diagonal dilation torus
    expect = RationalFunction.from_poly(
        MultiPoly.linear(chart_reg, {x1: 1, x2: 1, d_var(1): -2})
    )
    assert rat_equal(prod.fn, expect)


def test_verify_ideal_examples():
    ctx = ctx_for("a1")
    e = generator(ctx, "1")
    assert shuffle_product(ctx, e, e).polynomial
    ctx2 = ctx_for("a2")
    assert shuffle_product(ctx2, generator(ctx2, "1"), generator(ctx2, "2")).polynomial


def test_ideal_property_all_small_words():
    for name in ("a1", "a2"):
        for law in (FormalGroupLaw.additive(), FormalGroupLaw.multiplicative()):
            ctx = ctx_for(name, law)
            for length in range(1, 5):
                for word in itertools.product(ctx.quiver.vertices, repeat=length):
                    assert word_product(ctx, word).polynomial, (name, word)


def test_classical_limit_of_products():
    ctx = ctx_for("a1")
    e = generator(ctx, "1")
    ee = shuffle_product(ctx, e, e)
    at_zero = ee.fn.substitute({d_var(1): F(0)})
    assert at_zero.is_scalar() and at_zero.scalar_value() == 2


def test_weight_space_dimensions():
    ctx = ctx_for("a1")
    assert weight_space(ctx, {"1": 1}, 1) == 2
    assert weight_space(ctx, {"1": 2}, 0) == 1
    assert weight_space(ctx, {"1": 0}, 3) == 1


def dense_rank(rows):
    """The rank of a list of {key: coefficient} rows by Gaussian elimination
    of the dense Fraction matrix over the union of their keys."""
    keys = sorted({k for row in rows for k in row})
    matrix = [[F(row.get(k, 0)) for k in keys] for row in rows]
    rank = 0
    for col in range(len(keys)):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                c = matrix[r][col] / matrix[rank][col]
                matrix[r] = [a - c * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def test_rank_matches_dense_elimination():
    reg = VarRegistry([d_var(1), d_var(2), d_var(3)])
    monomials = [MultiPoly.monomial(reg, {d_var(1): i, d_var(2): j, d_var(3): k})
                 for i in range(3) for j in range(3) for k in range(2)]
    rng = random.Random(27)
    for _ in range(60):
        free = [
            sum((m.scale(F(rng.randint(-5, 5), rng.randint(1, 4)))
                 for m in rng.sample(monomials, rng.randint(1, 6))), MultiPoly.zero(reg))
            for _ in range(rng.randint(1, 5))
        ]
        dependent = [
            sum((p.scale(F(rng.randint(-3, 3), rng.randint(1, 3))) for p in free),
                MultiPoly.zero(reg))
            for _ in range(rng.randint(1, 3))
        ]
        polys = free + dependent + [MultiPoly.zero(reg)]
        rng.shuffle(polys)
        assert _rank(polys) == dense_rank([dict(p.terms) for p in polys])


def test_associativity_randomized_all_backends():
    laws = [
        FormalGroupLaw.additive(),
        FormalGroupLaw.multiplicative(),
        FormalGroupLaw.series({(2, 1): F(-1), (1, 2): F(-1)}, 4),
    ]
    rng = random.Random(77)
    for law in laws:
        budget = 3 if law.backend == "series" else 4
        for _ in range(3):
            name = rng.choice(("a1", "a2"))
            ctx = ctx_for(name, law)
            words = []
            total = 0
            while len(words) < 3:
                w = tuple(
                    rng.choice(ctx.quiver.vertices)
                    for _ in range(rng.choice((1, 1, 2)))
                )
                if total + len(w) > budget:
                    w = (rng.choice(ctx.quiver.vertices),)
                words.append(w)
                total += len(w)
            a, b, c = (
                monomial_element(ctx, w, tuple(rng.choice((0, 1)) for _ in w))
                for w in words
            )
            left = shuffle_product(ctx, shuffle_product(ctx, a, b), c)
            right = shuffle_product(ctx, a, shuffle_product(ctx, b, c))
            assert rat_equal(left.fn, right.fn)
