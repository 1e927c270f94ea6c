"""Property tests for the packed-monomial substrate (hypothesis)."""

import functools
import operator
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from quivergrass.symalg import (
    _MASK,
    _field_groups,
    _repack,
    MultiPoly,
    RationalFunction,
    VarRegistry,
    aux_var,
    rat_equal,
    rat_sum,
)

REGISTRIES = [VarRegistry([aux_var(f"v{i}") for i in range(n)]) for n in (1, 2, 3, 4)]

coefficients = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
).filter(bool)


@st.composite
def registry_and_polys(draw, count):
    reg = draw(st.sampled_from(REGISTRIES))
    exponents = st.tuples(*[st.integers(0, 4)] * len(reg))
    polys = [
        MultiPoly(reg, draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=5)))
        for _ in range(count)
    ]
    return reg, polys


@st.composite
def registry_and_exponents(draw):
    reg = draw(st.sampled_from(REGISTRIES))
    exps = draw(st.lists(st.integers(0, _MASK), min_size=len(reg), max_size=len(reg)))
    budget = _MASK
    for i, e in enumerate(exps):  # clip to the total-degree bound
        exps[i] = min(e, budget)
        budget -= exps[i]
    return reg, tuple(exps)


@settings(max_examples=150, deadline=None)
@given(registry_and_polys(2))
def test_product_divided_by_a_factor_gives_the_other(data):
    _, (a, b) = data
    assert (a * b).divide_exact(b) == a
    assert (a * b).divide_exact(a) == b


@settings(max_examples=300, deadline=None)
@given(registry_and_exponents())
def test_pack_unpack_round_trip(data):
    reg, exps = data
    key = reg.pack(exps)
    assert reg.unpack(key) == exps
    assert key >> reg.shift == sum(exps)
    assert MultiPoly(reg, {exps: 1}).leading() == (key, 1)


@settings(max_examples=150, deadline=None)
@given(registry_and_polys(1))
def test_leading_is_the_graded_maximum(data):
    _, (p,) = data
    exps = max(
        (e for e, _ in p.items_unpacked()), key=lambda e: (sum(e), e[::-1])
    )
    key, c = p.leading()
    assert p.registry.unpack(key) == exps
    assert c == dict(p.items_unpacked())[exps]
    assert p.degree() == sum(exps)


def assert_normal_form(p):
    """Every stored coefficient is nonzero and in ``_coeff`` normal form:
    an int, or a Fraction that is not integral."""
    for c in p.terms.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


@settings(max_examples=150, deadline=None)
@given(registry_and_polys(2), coefficients, st.integers(0, 8))
def test_results_store_no_zero_and_normal_coefficients(data, c, bound):
    reg, (a, b) = data
    first = reg.variables[0]
    reverse = list(range(len(reg)))[::-1]
    results = [
        a + b, a - b, a - a, a * b, a.scale(c), a.truncate(bound),
        _repack([(a, 1)], _field_groups(reverse, reg, reg), reg)[0][0], a.substitute({first: c}),
        (a * b).divide_exact(b), a.primitive()[1], a.pow(2),
    ]
    quotient = a.divide_exact(b)
    if quotient is not None:
        results.append(quotient)
    for p in results:
        assert_normal_form(p)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from(REGISTRIES), st.integers(0, 4))
def test_a_zero_monomial_is_the_zero_polynomial(reg, e):
    assert MultiPoly.monomial(reg, {reg.variables[-1]: e}, coeff=0).is_zero()
    assert MultiPoly.monomial(reg, {reg.variables[-1]: e}, coeff=Fraction(0, 3)) == MultiPoly.zero(reg)


@st.composite
def registry_and_functions(draw, max_count):
    """Up to ``max_count`` functions over one registry, drawing their factors
    from a shared pool so that denominators meet and cancel."""
    reg, pool = draw(registry_and_polys(3))
    exponents = st.lists(st.integers(-2, 2), min_size=len(pool), max_size=len(pool))
    units = st.one_of(coefficients, st.just(0))
    fns = [
        RationalFunction(reg, draw(units), list(zip(pool, draw(exponents))))
        for _ in range(draw(st.integers(1, max_count)))
    ]
    return reg, fns


@settings(max_examples=60, deadline=None)
@given(registry_and_functions(3))
def test_rat_sum_agrees_with_left_folded_pairwise_sums(data):
    _, fns = data
    total = rat_sum(fns)
    assert rat_equal(total, functools.reduce(operator.add, fns))
    negated = [RationalFunction(f.registry, -f.unit, f.factors) for f in fns]
    assert rat_sum(fns + negated).is_zero()


@settings(max_examples=80, deadline=None)
@given(registry_and_functions(1))
def test_cancelled_is_idempotent(data):
    _, (f,) = data
    once = f.cancelled()
    twice = once.cancelled()
    assert twice == once and repr(twice) == repr(once)
    assert rat_equal(once, f)


@settings(max_examples=100, deadline=None)
@given(registry_and_polys(3))
def test_polynomials_form_a_commutative_ring(data):
    reg, (a, b, c) = data
    zero, one = MultiPoly.zero(reg), MultiPoly.const(reg, 1)
    assert (a + b) + c == a + (b + c) and a + b == b + a and a + zero == a
    assert (a * b) * c == a * (b * c) and a * b == b * a and a * one == a
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero()


@st.composite
def factor_lists_and_permutations(draw):
    reg, pool = draw(registry_and_polys(4))
    factors = list(zip(pool, draw(st.lists(st.integers(-2, 2), min_size=4, max_size=4))))
    return reg, draw(coefficients), factors, draw(st.permutations(factors))


@settings(max_examples=100, deadline=None)
@given(factor_lists_and_permutations())
def test_the_normal_form_does_not_depend_on_factor_order(data):
    reg, unit, factors, permuted = data
    f = RationalFunction(reg, unit, factors)
    g = RationalFunction(reg, unit, permuted)
    assert f == g and repr(f) == repr(g)
    # merged one factor at a time, in the permuted order
    one_by_one = (RationalFunction(reg, 1, [pe]) for pe in permuted)
    h = functools.reduce(operator.mul, one_by_one, RationalFunction(reg, unit))
    assert h == f and repr(h) == repr(f)
