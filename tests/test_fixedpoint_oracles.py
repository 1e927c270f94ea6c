"""The reduced-basis Buchberger engine, the ``MultiPoly`` q-polynomials
and the one-pass ``sl2_enumerate`` against the tuple engine, the dense
lists and the per-candidate loop they replace
(``tests/fixedpoint_oracles.py``).  The engine's basis is compared with
the tuple engine's after ``oracle.reduced``, and its Groebner property is
checked with the tuple engine's division."""

import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

import fixedpoint_oracles as oracle
from quivergrass import fixedpoints
from quivergrass.fixedpoints import (
    WindowOverflowError,
    buchberger,
    carell_chart,
    gaussian_binomial,
    quiver_grass_poincare,
    sl2_enumerate,
    standard_monomials,
)
from quivergrass.symalg import MultiPoly, VarRegistry, aux_var


def dense(poly):
    """Coefficients of a polynomial in q, lowest power first."""
    out = [0] * (poly.degree() + 1)
    for (e,), c in poly.items_unpacked():
        out[e] = c
    return out


def assert_groebner(basis, gens):
    """Every S-polynomial of ``basis`` and every generator reduces to zero
    under the tuple engine's division, and every coefficient is stored in
    ``_coeff`` normal form."""
    for f, g in itertools.combinations(basis, 2):
        assert oracle._reduce(oracle._spoly(f, g), basis).is_zero(), (f, g)
    for g in gens:
        assert oracle._reduce(g, basis).is_zero(), g
    for g in basis:
        for c in g.terms.values():
            assert type(c) is int or (type(c) is F and c.denominator != 1), (g, c)


def charts():
    return [carell_chart(n, p) for n in range(5) for p in range(n + 1)]


@pytest.mark.parametrize("n", range(5))
def test_bases_equal_the_tuple_engine_on_every_carell_chart(n):
    for p in range(n + 1):
        chart = carell_chart(n, p)
        basis = buchberger(chart.equations)
        expected = oracle.reduced(oracle.buchberger(chart.equations))
        assert basis == expected, (n, p)
        assert [repr(g) for g in basis] == [repr(g) for g in expected]
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


def random_ideals():
    for nvars in (2, 3):
        rng = random.Random(1000 + nvars)
        for _ in range(40):
            yield random_ideal(rng, nvars)[1]


@pytest.mark.parametrize("nvars", [2, 3])
def test_bases_equal_the_tuple_engine_on_seeded_random_ideals(nvars):
    rng = random.Random(1000 + nvars)
    for _ in range(40):
        reg, gens = random_ideal(rng, nvars)
        basis = buchberger(gens)
        expected = oracle.reduced(oracle.buchberger(gens))
        assert basis == expected, gens
        assert [repr(g) for g in basis] == [repr(g) for g in expected]


def test_bases_are_groebner_bases_of_their_generators():
    ideals = [chart.equations for chart in charts()] + list(random_ideals())
    assert len(ideals) == 15 + 80
    for gens in ideals:
        assert_groebner(buchberger(gens), gens)


def test_shuffled_and_rescaled_generators_give_the_same_basis():
    rng = random.Random(7)
    scales = [-3, -1, 2, F(1, 2), F(-5, 3)]
    for gens in [chart.equations for chart in charts()] + list(random_ideals()):
        moved = [g.scale(rng.choice(scales)) for g in rng.sample(gens, len(gens))]
        basis = buchberger(gens)
        assert buchberger(moved) == basis, gens
        assert [repr(g) for g in buchberger(moved)] == [repr(g) for g in basis]


def test_carell_4_2_reduces_44_s_polynomials(monkeypatch):
    # One normal form per generator, per S-polynomial taken from the pair
    # queue, and per tail of the reduced basis.  Trying every pair reduced
    # 126 S-polynomials.
    calls = []
    normal_form = fixedpoints._normal_form
    monkeypatch.setattr(fixedpoints, "_normal_form",
                        lambda *args: calls.append(1) or normal_form(*args))
    chart = carell_chart(4, 2)
    generators, tails = len(chart.equations), 15
    assert len(calls) - generators - tails == 44
    monkeypatch.undo()
    assert len(buchberger(chart.equations)) == tails


def test_gaussian_binomials_equal_the_dense_lists():
    for n in range(12):
        for k in range(n + 1):
            assert dense(gaussian_binomial(n, k)) == oracle.gaussian_binomial(n, k), (n, k)


def test_poincare_series_equal_the_dense_lists():
    for size in (1, 2, 3):
        for entries in itertools.product(range(4), repeat=size):
            alpha = {str(i + 1): a for i, a in enumerate(entries)}
            assert dense(quiver_grass_poincare(alpha)) == oracle.quiver_grass_poincare(alpha), alpha


def test_sl2_one_pass_equals_the_per_candidate_loop():
    # The loop builds Q^-1 in the given window for every candidate, so it
    # exits on runs the one pass completes; there the two routes must agree
    # and the count must be the closed form.  Only a probe z^(m-n) Q^-1
    # that leaves the window may still stop the one pass.
    outcomes = Counter()
    for e in (2, 3):
        for n in range(4):
            for window in (n + e, n + e + 1):
                for m in (None, *range(window - e + 1)):
                    try:
                        old = oracle.sl2_enumerate(2, e, n, window, m)
                    except WindowOverflowError:
                        old = None
                    try:
                        rep = sl2_enumerate(2, e, n, window, m)
                    except WindowOverflowError:
                        assert old is None and m is not None, (e, n, window, m)
                        outcomes["both exit"] += 1
                        continue
                    new = (rep.s0_count, rep.s0_expected, rep.sminus_count, rep.routes_agree,
                           rep.monic_polys)
                    if old is None:
                        assert rep.routes_agree and rep.s0_count == rep.s0_expected, (e, n, window, m)
                        outcomes["one pass only"] += 1
                    else:
                        assert new == old, (e, n, window, m)
                        outcomes["both complete"] += 1
    assert outcomes == {"both complete": 34, "one pass only": 24, "both exit": 6}
