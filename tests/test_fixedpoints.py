import itertools
from fractions import Fraction as F
from math import comb

import pytest

from quivergrass.fixedpoints import (
    Q,
    Q_REGISTRY,
    CarellChart,
    POINCARE_DEGREE_CAP,
    POINCARE_ENTRY_CAP,
    POINCARE_SUM_CAP,
    DegreeOverflowError,
    TruncatedRing,
    WindowOverflowError,
    ZWindow,
    buchberger,
    carell_chart,
    comonic_inverse,
    gaussian_binomial,
    qpoly_str,
    quiver_grass_poincare,
    sl2_enumerate,
    standard_monomials,
)
from quivergrass.symalg import MultiPoly, SymalgError, VarRegistry, aux_var
from quivergrass.zastava import ColoredDivisor, subscheme_lattice


def qpoly(*coeffs):
    """The polynomial in q with the given coefficients, lowest power first."""
    return MultiPoly(Q_REGISTRY, {(i,): c for i, c in enumerate(coeffs)})


def at_one(poly):
    return poly.evaluate({Q: 1})


def test_truncated_ring_axioms():
    ring = TruncatedRing(2, 2)
    els = ring.elements()
    assert len(els) == 4
    for a in els:
        assert ring.add(a, ring.zero()) == a
        assert ring.mul(a, ring.one()) == a
        for b in els:
            assert ring.add(a, b) == ring.add(b, a)
            assert ring.mul(a, b) == ring.mul(b, a)
    eps = (0, 1)
    assert ring.is_nilpotent(eps) and ring.is_zero(ring.mul(eps, eps))
    assert ring.nilpotents() == [(0, 0), (0, 1)]


def test_comonic_inverse():
    ring = TruncatedRing(2, 2)
    q = ZWindow(ring, 6, {0: ring.one(), -1: (0, 1)})
    inv = comonic_inverse(ring, q)
    assert q.mul(inv).coeffs == {0: ring.one()}


def test_window_overflow_detected():
    ring = TruncatedRing(2, 2)
    with pytest.raises(WindowOverflowError):
        ZWindow(ring, 2, {3: ring.one()})
    with pytest.raises(WindowOverflowError):
        sl2_enumerate(2, 2, 3, 4)  # needs window >= n + e = 5


def test_sl2_counts_and_routes():
    # counts (p^(e-1))^n once the window admits all tails of length n
    for n in range(0, 4):
        rep = sl2_enumerate(2, 2, n, max(n + 2, 2 * n + 1))
        assert rep.s0_count == 2 ** n
        assert rep.routes_agree
        assert rep.s0_count == rep.s0_expected


def test_sl2_base_point():
    rep = sl2_enumerate(2, 2, 0, 3)
    assert rep.s0_count == 1


def test_sl2_membership_vs_divisibility():
    # n = 1, m = 1: only P = z divides z; one point
    rep = sl2_enumerate(2, 2, 1, 4, m=1)
    assert rep.sminus_count == 1
    assert rep.routes_agree
    # n = 1, m = 2: (z + eps)^2 = z^2, so both candidates divide
    rep2 = sl2_enumerate(2, 2, 1, 4, m=2)
    assert rep2.sminus_count == 2
    # n = 2, m = 2: only z^2 itself
    rep3 = sl2_enumerate(2, 2, 2, 5, m=2)
    assert rep3.sminus_count == 1


def count_truncated_solutions(chart: CarellChart, ring: TruncatedRing) -> int:
    """Points of the chart over a truncated nilpotent ring, brute force.

    Chart variables range over the nilradical (the chart is centered at
    the unique fixed point).  This bridges the Grassmannian fixed-scheme
    presentation and the lattice-model enumeration: the two must count
    the same sets.
    """
    nils = ring.nilpotents()
    if len(nils) ** len(chart.variables) > 2 ** 16:
        raise DegreeOverflowError("too many candidate points for brute force")

    def eval_poly(poly, assignment):
        total = ring.zero()
        for exps, coeff in poly.items_unpacked():
            if coeff.denominator != 1:
                raise SymalgError("chart equation with non-integer coefficient")
            c = coeff.numerator % ring.p
            term = (c,) + (0,) * (ring.e - 1)
            for val, e in zip(assignment, exps):
                for _ in range(e):
                    term = ring.mul(term, val)
            total = ring.add(total, term)
        return total

    count = 0
    for assignment in itertools.product(nils, repeat=len(chart.variables)):
        if all(ring.is_zero(eval_poly(eq, assignment)) for eq in chart.equations):
            count += 1
    return count


def test_sl2_divisor_counts_match_chart_points():
    # the degree-beta members dividing z^n match the truncated-ring points
    # of the fixed-scheme chart: the two enumerations count the same sets.
    # Over eps^3 = 0 the inverse Q^-1 differs from Q, so the lattice route
    # must really invert.
    for e in (2, 3):
        ring = TruncatedRing(2, e)
        for n in range(1, 4):
            for beta in range(0, n + 1):
                window = max(beta + e, e * beta + 1, n + e)
                rep = sl2_enumerate(2, e, beta, window, m=n)
                divisor_count = rep.sminus_count
                chart = carell_chart(n, beta)
                assert divisor_count == count_truncated_solutions(chart, ring), (e, n, beta)


def test_hilbert_colored():
    lat = subscheme_lattice(ColoredDivisor.parse("a:i:2"))
    assert sorted(sum(k for _, k in e) for e in lat) == [0, 1, 2]
    assert len(subscheme_lattice(ColoredDivisor.parse("a:i:1,b:j:1"))) == 4
    assert len(subscheme_lattice(ColoredDivisor.parse(""))) == 1


def test_gaussian_binomials():
    assert gaussian_binomial(2, 1) == qpoly(1, 1)
    assert gaussian_binomial(3, 1) == qpoly(1, 1, 1)
    assert gaussian_binomial(4, 2) == qpoly(1, 1, 2, 1, 1)
    for n in range(0, 6):
        assert gaussian_binomial(n, 0) == qpoly(1)
        for p in range(0, n + 1):
            assert at_one(gaussian_binomial(n, p)) == comb(n, p)
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4)


def test_poincare_examples():
    assert qpoly_str(quiver_grass_poincare({"1": 2})) == "3 + q"
    assert at_one(quiver_grass_poincare({"1": 2})) == 4
    assert at_one(quiver_grass_poincare({"1": 1})) == 2
    assert at_one(quiver_grass_poincare({"1": 1, "2": 1})) == 4


def test_poincare_total_identity():
    # q = 1 value equals the product of 2^alpha_i and equals the total of
    # the fixed-scheme dimensions over all subweights
    for alpha in ({"1": 2}, {"1": 3}, {"1": 1, "2": 2}, {"1": 2, "2": 2}):
        total = at_one(quiver_grass_poincare(alpha))
        expect = 1
        for a in alpha.values():
            expect *= 2 ** a
        assert total == expect
        summed = 0
        for beta in itertools.product(*(range(a + 1) for a in alpha.values())):
            prod = 1
            for a, b in zip(alpha.values(), beta):
                prod *= carell_chart(a, b).dimension
            summed += prod
        assert summed == expect


def test_carell_dims_match_binomials():
    for n in range(0, 5):
        for p in range(0, n + 1):
            assert carell_chart(n, p).dimension == comb(n, p)


def test_carell_weight_series_is_gaussian():
    for n in range(0, 5):
        for p in range(0, n + 1):
            assert carell_chart(n, p).weight_series() == gaussian_binomial(n, p)


def test_poincare_entries_are_bounded():
    assert at_one(quiver_grass_poincare({"1": POINCARE_ENTRY_CAP})) == 2 ** POINCARE_ENTRY_CAP
    for alpha in ({"1": POINCARE_ENTRY_CAP + 1}, {"1": 1, "2": 1000}):
        with pytest.raises(DegreeOverflowError):
            quiver_grass_poincare(alpha)


def test_poincare_degree_is_bounded():
    # floor(8^2 / 4) = 16, so 64 entries of 8 reach the cap and 65 pass it
    at_cap = {str(i): 8 for i in range(POINCARE_DEGREE_CAP // 16)}
    series = quiver_grass_poincare(at_cap)
    assert series.degree() == POINCARE_DEGREE_CAP and at_one(series) == 2 ** (8 * len(at_cap))
    for alpha in ({**at_cap, "x": 8}, {**at_cap, "x": 2}, {str(i): POINCARE_ENTRY_CAP for i in range(16)}):
        with pytest.raises(DegreeOverflowError):
            quiver_grass_poincare(alpha)


def test_poincare_sum_is_bounded():
    # the value at q = 1 is 2 to the sum of the entries; entries of 1 have degree 0
    at_cap = {str(i): 1 for i in range(POINCARE_SUM_CAP)}
    assert at_one(quiver_grass_poincare(at_cap)) == 2 ** POINCARE_SUM_CAP
    with pytest.raises(DegreeOverflowError, match=f"bounded at {POINCARE_SUM_CAP}"):
        quiver_grass_poincare({**at_cap, "x": 1})


def test_carell_overflow():
    with pytest.raises(DegreeOverflowError):
        carell_chart(5, 2)


def test_carell_names_the_bad_dimension():
    with pytest.raises(ValueError, match="ambient dimension n"):
        carell_chart(-1, 0)
    with pytest.raises(ValueError, match="subspace dimension"):
        carell_chart(4, 5)


def test_buchberger_small_ideal():
    x, y = aux_var("x", 1), aux_var("y", 2)
    reg = VarRegistry([x, y])
    px, py = MultiPoly.var(reg, x), MultiPoly.var(reg, y)
    basis = buchberger([px * py, px - py * py])
    std = standard_monomials(basis, 2)
    assert len(std) == 3  # 1, y, y^2


def test_staircase_cap():
    # the ideal (x) over {x, y} leaves every y^k standard: no finite staircase
    x, y = aux_var("x", 1), aux_var("y", 2)
    reg = VarRegistry([x, y])
    with pytest.raises(DegreeOverflowError):
        standard_monomials(buchberger([MultiPoly.var(reg, x)]), 2)


def test_qpoly_str_prints_lowest_power_first():
    assert qpoly_str(qpoly()) == "0"
    assert qpoly_str(qpoly(-1, 0, -2, 1)) == "-1 - 2*q^2 + q^3"
    assert qpoly_str(qpoly(0, 3, 0, 0, -1)) == "3*q - q^4"  # as MultiPoly.__repr__ does
    assert qpoly_str(qpoly(1, -1)) == "1 - q"
    assert qpoly_str(qpoly(0, -1, 0, -3)) == "-q - 3*q^3"


@pytest.mark.parametrize(
    "p, e, n, window",
    [(2, 20, 0, 20), (10007, 2, 0, 2), (1000003, 2, 0, 2)],
)
def test_sl2_budget_is_checked_before_the_ring_is_built(monkeypatch, p, e, n, window):
    monkeypatch.setattr(TruncatedRing, "elements", lambda self: pytest.fail("elements built"))
    monkeypatch.setattr(TruncatedRing, "nilpotents", lambda self: pytest.fail("nilpotents built"))
    with pytest.raises(DegreeOverflowError):
        sl2_enumerate(p, e, n, window)


def test_nilpotents_are_the_elements_with_zero_constant_term():
    for p, e in ((2, 1), (2, 3), (3, 2), (5, 3)):
        ring = TruncatedRing(p, e)
        assert ring.nilpotents() == [t for t in ring.elements() if t[0] == 0]
        assert len(ring.nilpotents()) == p ** (e - 1)


def test_primality_is_checked_up_to_the_square_root():
    for p in (2, 3, 5, 7, 11, 13, 49999, 1000003):
        assert TruncatedRing(p, 1).p == p
    for p in (-3, 0, 1, 4, 9, 25, 49, 121, 1000001, 1000003 * 1000033):
        with pytest.raises(ValueError):
            TruncatedRing(p, 1)
