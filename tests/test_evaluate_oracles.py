"""Point evaluation against the paths it replaced.

``evaluate_kernel`` reads a kernel's divisor and evaluates each canonical
orientation over the integers; the oracles in ``kernel_oracles`` orient
every record on the full chart and evaluate with one Fraction per chart
variable.  Values and culprits must agree exactly.
"""

import random
from fractions import Fraction as F

import pytest

from quivergrass import checks
from quivergrass.fgl import Character, FormalGroupLaw
from quivergrass.locality import config_assignment, pair_check_kernel
from quivergrass.quiver import stock_quiver
from quivergrass.symalg import (
    MultiPoly,
    PoleError,
    RationalFunction,
    VarRegistry,
    aux_var,
    d_var,
)
from quivergrass.thom import evaluate_kernel

from kernel_oracles import fraction_poly_value, fraction_rat_value, records_evaluate_kernel
from test_locality import TWISTED, _twisted_draw

LAWS = checks.standard_laws()


def _both(ctx, d1, d2, tau):
    """(new, oracle) evaluations of the pair kernel of (d1, d2) at tau."""
    kernel = pair_check_kernel(ctx, d1.weight(ctx), d2.weight(ctx))
    assignment = config_assignment(kernel.chart, d1, d2, tau)
    got = evaluate_kernel(kernel, assignment)
    assert "records" not in vars(kernel)  # the divisor alone was read
    return got, records_evaluate_kernel(kernel, assignment)


@pytest.fixture(scope="module")
def ac5_configurations():
    """Every configuration AC5 evaluates, disjoint and colliding."""
    seen = []
    original = checks.verify_trivialization

    def record(ctx, d1, d2, tau):
        seen.append((ctx.quiver, d1, d2, tau))
        return original(ctx, d1, d2, tau)

    checks.verify_trivialization = record
    try:
        assert all(r.ok for r in checks.locality_suite(max_total=0))
    finally:
        checks.verify_trivialization = original
    assert len(seen) == 400
    return seen


@pytest.mark.parametrize("lname, law", LAWS)
def test_evaluate_kernel_matches_the_records_oracle_on_every_ac5_configuration(
    ac5_configurations, lname, law
):
    contexts = {}
    kinds = set()
    for quiver, d1, d2, tau in ac5_configurations:
        if quiver not in contexts:
            contexts[quiver] = checks.make_context(quiver, law)
        got, want = _both(contexts[quiver], d1, d2, tau)
        assert got == want, (lname, d1, d2, tau)
        kinds.update(kind for kind, _ in got[1])
        kinds.add("finite" if got[0] else "none or zero")
    assert {"zero", "pole", "finite", "none or zero"} <= kinds


@pytest.mark.parametrize("name", TWISTED)
def test_evaluate_kernel_matches_the_records_oracle_on_twisted_contexts(name):
    ctx = TWISTED[name]
    rng = random.Random(47)
    hits = 0
    for _ in range(60):
        d1, d2, tau = _twisted_draw(ctx, rng)
        if d1.is_empty() or d2.is_empty():
            continue
        got, want = _both(ctx, d1, d2, tau)
        assert got == want, (d1, d2, tau)
        hits += bool(got[1])
    assert hits


def test_a_power_is_evaluated_factor_by_factor():
    # lambda(x2 - x1) = (X2 - X1)/X2 under the multiplicative law has a pole
    # at X2 = 0, but its inverse, the plain diagonal's factor, vanishes there
    law = FormalGroupLaw.multiplicative()
    ctx = checks.make_context(stock_quiver("a1"), law)
    kernel = pair_check_kernel(ctx, {"1": 1}, {"1": 1})
    chart = kernel.chart
    x1, x2 = chart.x(1, "1", 1), chart.x(2, "1", 1)
    point = {x1: F(1), x2: F(0), d_var(1): F(2)}
    chi = Character.make({x2: 1, x1: -1})
    with pytest.raises(PoleError):
        law.power_at(chi, 1, point)
    assert law.power_at(chi, -1, point) == 0
    value, culprits = evaluate_kernel(kernel, point)
    assert (value, culprits) == records_evaluate_kernel(kernel, point)
    assert ("zero", next(r for r in kernel.divisor if r.family == "gp_inv"
                         and r.char == chi)) in culprits


def test_evaluate_kernel_needs_every_chart_variable():
    ctx = checks.make_context(stock_quiver("a1"), FormalGroupLaw.additive())
    kernel = pair_check_kernel(ctx, {"1": 1}, {"1": 1})
    chart = kernel.chart
    full = {chart.x(1, "1", 1): F(0), chart.x(2, "1", 1): F(5), d_var(1): F(1)}
    assert evaluate_kernel(kernel, full)[0] == records_evaluate_kernel(kernel, full)[0]
    for v in full:
        with pytest.raises(KeyError):
            evaluate_kernel(kernel, {w: x for w, x in full.items() if w != v})


def _random_poly(rng, registry, fractions):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.choice((0, 0, 1, 2, 3, 5)) for _ in registry.variables)
        c = rng.randint(-9, 9)
        if fractions and rng.random() < 0.5:
            c = F(c, rng.randint(1, 7))
        terms[exps] = c
    return MultiPoly(registry, terms)


def _random_value(rng):
    return rng.choice((0, 1, -1, rng.randint(-20, 20), F(rng.randint(-20, 20), rng.randint(1, 9))))


@pytest.mark.parametrize("seed", range(20))
def test_integer_evaluation_matches_the_fraction_loop(seed):
    rng = random.Random(seed)
    registry = VarRegistry([aux_var(f"z{i}", i) for i in range(1, rng.randint(1, 5) + 1)])
    for _ in range(40):
        p = _random_poly(rng, registry, fractions=seed % 2 == 1)
        point = {v: _random_value(rng) for v in registry.variables}
        got = p.evaluate(point)
        assert got == fraction_poly_value(p, point) and type(got) is F
    assert MultiPoly.zero(registry).evaluate({}) == 0
    assert MultiPoly.const(registry, F(-3, 4)).evaluate({}) == F(-3, 4)


@pytest.mark.parametrize("seed", range(10))
def test_factored_evaluation_matches_the_fraction_loop(seed):
    rng = random.Random(100 + seed)
    registry = VarRegistry([aux_var(f"z{i}", i) for i in range(1, 4)])
    for _ in range(40):
        factors = [(_random_poly(rng, registry, fractions=True), rng.choice((-2, -1, 1, 2)))
                   for _ in range(rng.randint(0, 3))]
        if any(p.is_zero() and e < 0 for p, e in factors):
            continue
        f = RationalFunction(registry, F(rng.randint(-5, 5), rng.randint(1, 4)), factors)
        point = {v: rng.choice((0, 1, F(-2, 3), F(rng.randint(-4, 4)))) for v in registry.variables}
        try:
            want = fraction_rat_value(f, point)
        except PoleError:
            with pytest.raises(PoleError):
                f.evaluate(point)
            continue
        assert f.evaluate(point) == want


def test_evaluate_reads_only_the_variables_that_occur():
    x, y = aux_var("x", 1), aux_var("y", 2)
    registry = VarRegistry([x, y])
    p = MultiPoly(registry, {(2, 0): 3, (0, 0): -1})
    assert p.evaluate({x: F(1, 2)}) == F(-1, 4)
    assert p.evaluate({x: "1/2"}) == F(-1, 4)
    with pytest.raises(KeyError):
        p.evaluate({y: 1})
