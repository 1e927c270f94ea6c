"""Bilinearity (AC2) and m-locality (AC5), decided on divisors by
``thom.divisor_quotient``, against the function-level comparisons they
replaced (``kernel_oracles``), and the order check that keeps a move
between charts exact."""

from itertools import chain

import pytest

from quivergrass import checks, locality
from quivergrass.checks import make_context, standard_laws
from quivergrass.fgl import Character, FormalGroupLaw
from quivergrass.locality import verify_m_locality
from quivergrass.quiver import DilationTorus, default_nakajima, stock_quiver
from quivergrass.symalg import SymalgError, d_var
from quivergrass.thom import KernelContext, divisor_quotient

from kernel_oracles import (
    NON_SYMMETRIC,
    bilinearity_cases,
    bilinearity_holds,
    locality_cases,
    locality_holds,
)


def is_one(quotient):
    return quotient.is_scalar() and quotient.unit == 1


def test_bilinearity_verdicts_match_the_function_oracle_on_every_split():
    count = 0
    for ctx, lhs, v1, v2, w in bilinearity_cases(standard_laws()):
        quotient = divisor_quotient(lhs, checks._bilinear_parts(ctx, v1, v2, w))
        assert is_one(quotient) == bilinearity_holds(ctx, lhs, v1, v2, w)
        count += 1
    assert count == 3 * 297


def test_locality_verdicts_match_the_function_oracle_on_every_pair():
    laws = standard_laws() + [("non-symmetric", NON_SYMMETRIC)]
    count = 0
    for ctx, w1, w2 in locality_cases(laws):
        assert verify_m_locality(ctx, w1, w2).identity_holds == locality_holds(ctx, w1, w2)
        count += 1
    assert count == 426 + 142


def test_bilinearity_and_locality_orient_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("an identity with no residual was oriented")

    monkeypatch.setattr(FormalGroupLaw, "lambda_char", refuse)
    assert all(r.ok for r in checks.bilinearity_suite(laws=standard_laws()))
    assert all(r.ok for r in checks.locality_suite(random_configs=0))


def test_a_move_that_reorders_a_character_raises():
    ctx = make_context(stock_quiver("a2"), FormalGroupLaw.additive())
    main = ctx.flag_kernel(({"1": 0, "2": 1}, {"1": 1, "2": 0}))
    part = ctx.flag_kernel(({"1": 1, "2": 0}, {"1": 0, "2": 1}))
    # swapping the slots sends x[2,2,1] - x[1,1,1] + mu to x[1,2,1] - x[2,1,1] + mu
    with pytest.raises(SymalgError, match="reorders"):
        divisor_quotient(main, [(part, lambda g, v, s: (3 - g, s))])


def test_dropping_the_pair_kernel_fails_like_the_oracle(monkeypatch):
    def without_pair(main, parts):
        assert len(parts) == 3
        return divisor_quotient(main, parts[:2])

    monkeypatch.setattr(locality, "divisor_quotient", without_pair)
    exact, series = standard_laws()[:2], standard_laws()[2:]
    # under the series law a wrong four-letter identity takes seconds to expand
    count = 0
    for ctx, w1, w2 in chain(locality_cases(exact), locality_cases(series, max_total=3)):
        if w1 and w2:
            assert not verify_m_locality(ctx, w1, w2).identity_holds
            assert not locality_holds(ctx, w1, w2, with_pair=False)
            count += 1
    assert count == 2 * 74 + 23


def test_dilation_characters_are_built_once_per_context(monkeypatch):
    q = stock_quiver("a2")
    torus = DilationTorus(2, ((1, 2), (3, -1)))
    ctx = KernelContext(q, default_nakajima(q), torus, FormalGroupLaw.additive())

    def built(a, b):
        """The character as it was rebuilt on every call."""
        return Character.make({d_var(k + 1): c for k, c in enumerate(torus.restrict(a, b))})

    mus = {}
    for k in q.double:
        w = ctx.weights[k.aid]
        mus[k.aid] = built(*((0, w) if k.aid.endswith("*") else (w, 0)))
    omega = built(1, 1)
    assert len(set(mus.values()) | {omega}) > 1

    calls = []
    restrict = DilationTorus.restrict
    monkeypatch.setattr(DilationTorus, "restrict",
                        lambda self, a, b: calls.append((a, b)) or restrict(self, a, b))
    for _ in range(3):
        assert {aid: ctx.mu(aid) for aid in mus} == mus
        assert ctx.omega() == omega
    assert calls and len(calls) == len(set(calls))
