"""The packed-key Buchberger engine and the ``MultiPoly`` q-polynomials
against the tuple engine and the dense lists they replace
(``tests/fixedpoint_oracles.py``)."""

import itertools
import random
from fractions import Fraction as F

import pytest

import fixedpoint_oracles as oracle
from quivergrass.fixedpoints import (
    buchberger,
    carell_chart,
    gaussian_binomial,
    quiver_grass_poincare,
    standard_monomials,
)
from quivergrass.symalg import MultiPoly, VarRegistry, aux_var


def dense(poly):
    """Coefficients of a polynomial in q, lowest power first."""
    out = [0] * (poly.degree() + 1)
    for (e,), c in poly.items_unpacked():
        out[e] = c
    return out


@pytest.mark.parametrize("n", range(5))
def test_bases_equal_the_tuple_engine_on_every_carell_chart(n):
    for p in range(n + 1):
        chart = carell_chart(n, p)
        basis = buchberger(chart.equations)
        assert basis == oracle.buchberger(chart.equations), (n, p)
        assert [repr(g) for g in basis] == [repr(g) for g in oracle.buchberger(chart.equations)]
        assert standard_monomials(basis, len(chart.variables)) == chart.standard


def random_ideal(rng, nvars):
    reg = VarRegistry([aux_var(f"v{i}", i) for i in range(nvars)])
    exponents = [e for e in itertools.product(range(4), repeat=nvars) if sum(e) <= 3]
    coeffs = [-3, -2, -1, 1, 2, 3, F(1, 2), F(-2, 3)]
    gens = [
        MultiPoly(reg, {e: rng.choice(coeffs) for e in rng.sample(exponents, rng.randint(1, 3))})
        for _ in range(rng.randint(2, 3))
    ]
    return reg, gens


@pytest.mark.parametrize("nvars", [2, 3])
def test_bases_equal_the_tuple_engine_on_seeded_random_ideals(nvars):
    rng = random.Random(1000 + nvars)
    for _ in range(40):
        reg, gens = random_ideal(rng, nvars)
        basis = buchberger(gens)
        assert basis == oracle.buchberger(gens), gens
        assert [repr(g) for g in basis] == [repr(g) for g in oracle.buchberger(gens)]


def test_gaussian_binomials_equal_the_dense_lists():
    for n in range(12):
        for k in range(n + 1):
            assert dense(gaussian_binomial(n, k)) == oracle.gaussian_binomial(n, k), (n, k)


def test_poincare_series_equal_the_dense_lists():
    for size in (1, 2, 3):
        for entries in itertools.product(range(4), repeat=size):
            alpha = {str(i + 1): a for i, a in enumerate(entries)}
            assert dense(quiver_grass_poincare(alpha)) == oracle.quiver_grass_poincare(alpha), alpha
