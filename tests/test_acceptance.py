"""Acceptance gate: every criterion runs at its stated budget and prints
one pass/fail line.  Run with ``pytest -s tests/test_acceptance.py`` to
see the lines as they complete."""

import itertools
import random
import time
from fractions import Fraction as F
from math import comb

import pytest

from quivergrass import checks
from quivergrass.checks import make_context
from quivergrass.fgl import FormalGroupLaw, fgl_verify
from quivergrass.fixedpoints import (
    Q,
    carell_chart,
    quiver_grass_poincare,
    sl2_enumerate,
)
from quivergrass.locality import tau_point
from quivergrass.quiver import DilationTorus, default_nakajima, stock_quiver
from quivergrass.shuffle import generator, shuffle_product
from quivergrass.thom import KernelContext
from quivergrass.zastava import (
    ColoredDivisor,
    DivisorPoint,
    Poset,
    generic_fiber_factorization,
    ind_rank,
)


def _finish(tag: str, ok: bool, started: float, budget: float, detail: str = ""):
    elapsed = time.time() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"[{tag}] {status} ({elapsed:.1f}s / budget {budget:.0f}s)"
    if detail:
        line += f" {detail}"
    print(line)
    assert ok, f"{tag} checks failed: {detail}"
    assert elapsed < budget, f"{tag} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def test_ac1_cross_path_kernel_identity():
    started = time.time()
    results = checks.crosscheck_suite(seed=0, max_total=4)
    ok = all(r.ok for r in results)
    _finish("AC1", ok, started, 60.0,
            "dual-assembly units on every flag type, constant per component")


def test_ac2_biextension_bilinearity():
    started = time.time()
    results = checks.bilinearity_suite(seed=0, max_side=3)
    ok = all(r.ok for r in results)
    _finish("AC2", ok, started, 30.0, "all dimension splits with |v|, |w| <= 3")


def test_ac3_classical_limit():
    started = time.time()
    results = checks.classical_suite()
    ok = all(r.ok for r in results)
    _finish("AC3", ok, started, 5.0, "diagonal multiplicities match the arrow-count form")


def test_ac4_shuffle_identities():
    started = time.time()
    constants = checks.shuffle_constants_suite()
    ideal = checks.ideal_suite(seed=0, max_total=4)
    assoc = checks.assoc_suite(seed=0, triples=20)
    ok = all(r.ok for r in constants + ideal + assoc)
    _finish("AC4", ok, started, 120.0,
            "e*e = 2, e*e*e = 6; 20 exact associativity triples per backend; "
            "polynomial closure of all generator words")


def test_ac5_m_locality():
    started = time.time()
    results = checks.locality_suite(seed=0, max_total=4, random_configs=100)
    ok = all(r.ok for r in results)
    _finish("AC5", ok, started, 60.0,
            "exact factorization for all word pairs; 100 + 100 random configurations")


def test_ac6_fixed_points():
    started = time.time()
    ok = True
    detail = []
    for n in range(0, 4):
        rep = sl2_enumerate(2, 2, n, max(n + 2, 2 * n + 1))
        if rep.s0_count != 2 ** n or not rep.routes_agree:
            ok = False
            detail.append(f"count at n={n}")
    for n, m in ((1, 1), (1, 2), (2, 2), (2, 3)):
        rep = sl2_enumerate(2, 2, n, max(2 * n + 1, m + 2), m=m)
        if not rep.routes_agree:
            ok = False
            detail.append(f"membership routes at (n={n}, m={m})")
    for n in range(0, 5):
        for p in range(0, n + 1):
            if carell_chart(n, p).dimension != comb(n, p):
                ok = False
                detail.append(f"carell({n},{p})")
    alphas = [{"1": k} for k in range(1, 5)]
    alphas += [{"1": a, "2": b} for a in range(1, 4) for b in range(1, 4) if a + b <= 4]
    for alpha in alphas:
        expect = 1
        for a in alpha.values():
            expect *= 2 ** a
        if quiver_grass_poincare(alpha).evaluate({Q: 1}) != expect:
            ok = False
            detail.append(f"poincare {alpha}")
    _finish("AC6", ok, started, 120.0, "; ".join(detail) or
            "lattice counts 2^n, membership = divisibility, chart dims = binomials")


def test_ac7_zastava_ranks():
    started = time.time()
    ok = True
    ai = ColoredDivisor.parse("a:i:1")
    ok &= ind_rank(Poset.chain(1), ai) == 2
    for m in (1, 2, 3):
        ok &= ind_rank(Poset.chain(m), ai) == m + 1
        for n in (1, 2, 3):
            d = ColoredDivisor.parse(f"a:i:{n}")
            ok &= ind_rank(Poset.chain(m), d) == comb(n + m, m)

    quiver = stock_quiver("a1")
    ctx = KernelContext(quiver, default_nakajima(quiver),
                        DilationTorus.diagonal(), FormalGroupLaw.additive())
    rng = random.Random(99)
    done = 0
    while done < 50:
        coords = rng.sample(range(-60, 60), 2)
        tau = tau_point(ctx, [F(rng.randint(1, 40), rng.randint(1, 3))])
        left = ColoredDivisor([DivisorPoint("a", "1", 1)], {"a": F(coords[0])})
        right = ColoredDivisor([DivisorPoint("b", "1", 1)], {"b": F(coords[1])})
        from quivergrass.locality import PointConfig, is_m_tau_disjoint

        if not is_m_tau_disjoint(ctx, PointConfig({"1": [F(coords[0])]}),
                                 PointConfig({"1": [F(coords[1])]}), tau):
            continue
        rep = generic_fiber_factorization(ctx, Poset.chain(1), left, right, tau)
        ok &= rep.ok
        done += 1
    _finish("AC7", bool(ok), started, 30.0,
            "chain ranks C(n+m, m); 50 exact disjoint factorizations")


def test_ac8_fgl_axioms():
    started = time.time()
    results = checks.fgl_suite()
    ok = all(r.ok for r in results)
    series = FormalGroupLaw.series({(2, 1): F(-1), (1, 2): F(-1)}, 4)
    ok = ok and fgl_verify(series).all_ok
    _finish("AC8", ok, started, 5.0, "unit, commutativity, associativity per backend")
