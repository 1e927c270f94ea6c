"""Property tests for the packed-monomial substrate (hypothesis)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from quivergrass.symalg import _MASK, MultiPoly, VarRegistry, aux_var

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
