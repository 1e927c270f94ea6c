"""Every kernel read from its divisor, against the per-record paths.

``ThomKernel.fn`` orients each character of the divisor once, with its
exponents summed; the oracle ``kernel_oracles.records_fn`` orients every
record on its own.  ``zastava.ind_fiber`` evaluates each point pair once
through ``thom.evaluate_kernel``; the oracle builds the pair kernel and
evaluates its ``fn`` for every pair of every monotone system.
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from quivergrass import checks
from quivergrass.fgl import FormalGroupLaw
from quivergrass.locality import tau_point
from quivergrass.quiver import load_quiver, stock_quiver
from quivergrass.thom import KernelContext
from quivergrass.zastava import (
    ColoredDivisor,
    DivisorPoint,
    NonGenericError,
    Poset,
    generic_fiber_factorization,
    ind_fiber,
    pair_value,
)

from kernel_oracles import fn_pair_value, per_call_fiber_values, records_fn

LAWS = checks.standard_laws()
STOCK = ("a1", "a2", "a3", "kronecker2", "cyclic3", "jordan")
DATA = Path(__file__).resolve().parent / "data"


def _same(kernel):
    want = records_fn(kernel)
    return kernel.fn == want and repr(kernel.fn) == repr(want)


def test_fn_is_the_record_product_on_every_ac1_kernel():
    count = 0
    for qname in checks.CROSSCHECK_QUIVERS:
        for _, law in LAWS:
            ctx = checks.make_context(stock_quiver(qname), law)
            for flag in checks.enumerate_flags(ctx.quiver, 4):
                chart = ctx.chart(flag)
                for kernel in (ctx.flag_kernel(flag, chart), ctx.appendix_b_kernel(flag, chart)):
                    assert _same(kernel), (qname, flag)
                    count += 1
    assert count == 6810


def _biextension_and_word_kernels(ctx):
    vs = [v for t in (1, 2) for v in checks.enumerate_dimvectors(ctx.quiver, t)]
    for v in vs:
        for w in vs:
            yield ctx.biextension_kernel(v, w)
    for word in checks._words_up_to(ctx.quiver, 3):
        yield ctx.word_kernel(word)


def test_fn_is_the_record_product_on_biextension_and_word_kernels():
    repeated = 0
    for qname in STOCK:
        for _, law in LAWS:
            ctx = checks.make_context(stock_quiver(qname), law)
            for kernel in _biextension_and_word_kernels(ctx):
                assert _same(kernel), (qname, kernel.divisor)
                chars = Counter(rec.char for rec in kernel.divisor)
                repeated += sum(n - 1 for n in chars.values())
    assert repeated > 0  # the merge of equal characters is exercised


def test_fn_orients_each_distinct_character_once(monkeypatch):
    calls = []
    orient = FormalGroupLaw.lambda_char
    monkeypatch.setattr(FormalGroupLaw, "lambda_char",
                        lambda law, registry, chi: calls.append(chi) or orient(law, registry, chi))
    # the loop and its dual on the one vertex of jordan repeat characters
    ctx = checks.make_context(stock_quiver("jordan"), FormalGroupLaw.multiplicative())
    checked = 0
    for kernel in _biextension_and_word_kernels(ctx):
        calls.clear()
        kernel.fn
        sums = Counter()
        for rec in kernel.divisor:
            sums[rec.char] += rec.exponent
        assert sorted(calls) == sorted(chi for chi, e in sums.items() if e)
        checked += len(kernel.divisor) > len(sums)
    assert checked  # some kernel repeats a character


def _fiber_config(path, ctx=None):
    data = json.loads(path.read_text())
    if ctx is None:
        ctx = checks.make_context(stock_quiver("a1"), FormalGroupLaw.additive())
    points = [DivisorPoint(p["id"], p["color"], 1) for p in data["points"]]
    coords = {p["id"]: F(p["coord"]) for p in data["points"]}
    tau = tau_point(ctx, [F(t) for t in data["tau"]])
    return ctx, Poset.parse(data["poset"]), ColoredDivisor(points, coords), tau


def _golden_fibers():
    quiver, weights, torus = load_quiver(str(DATA / "a2_rank2.json"))
    yield _fiber_config(DATA / "a1_fiber.json")
    yield _fiber_config(DATA / "a2_rank2_fiber.json",
                        KernelContext(quiver, weights, torus, FormalGroupLaw.additive()))


def _seeded_fiber(seed):
    """A generic fiber on a1, a2 or kronecker2 under the additive or the
    multiplicative law, two to four points on a small chain or antichain."""
    rng = random.Random(seed)
    while True:
        quiver = stock_quiver(rng.choice(("a1", "a2", "kronecker2")))
        law = rng.choice(LAWS[:2])[1]
        ctx = checks.make_context(quiver, law)
        n = rng.randint(2, 4)
        points = [DivisorPoint(f"p{i}", rng.choice(quiver.vertices), 1) for i in range(n)]
        coords = {pt.pid: F(rng.randint(1, 40), rng.randint(1, 3)) for pt in points}
        tau = tau_point(ctx, [F(rng.randint(1, 9), rng.randint(1, 2))])
        poset = rng.choice((Poset.chain, Poset.antichain))(rng.randint(1, 3))
        try:
            fiber = ind_fiber(ctx, poset, ColoredDivisor(points, coords), tau)
        except NonGenericError:
            continue
        return ctx, poset, fiber, tau


@pytest.mark.parametrize("config", range(2), ids=["a1_fiber", "a2_rank2_fiber"])
def test_ind_fiber_matches_the_per_call_values_on_the_golden_fibers(config):
    ctx, poset, divisor, tau = list(_golden_fibers())[config]
    fiber = ind_fiber(ctx, poset, divisor, tau)
    assert fiber.values == per_call_fiber_values(ctx, poset, divisor, tau)


@pytest.mark.parametrize("seed", range(20))
def test_ind_fiber_matches_the_per_call_values_on_seeded_fibers(seed):
    ctx, poset, fiber, tau = _seeded_fiber(seed)
    assert fiber.values == per_call_fiber_values(ctx, poset, fiber.divisor, tau)
    for (a, b), value in fiber.pairs.items():
        u, v = (next(p for p in fiber.divisor.points if p.pid == pid) for pid in (a, b))
        assert value == pair_value(ctx, v, u, fiber.divisor.coords, tau)
        assert value == fn_pair_value(ctx, u, v, fiber.divisor.coords, tau)


def test_the_factorization_reads_the_pair_table():
    ctx, poset, fiber, tau = _seeded_fiber(3)
    points = fiber.divisor.points
    half = len(points) // 2
    left, right = (ColoredDivisor(pts, {p.pid: fiber.divisor.coords[p.pid] for p in pts})
                   for pts in (points[:half], points[half:]))
    report = generic_fiber_factorization(ctx, poset, left, right, tau)
    assert report.ok and len(report.lines) == fiber.rank


def test_an_antichain_of_five_over_three_points_is_fast():
    ctx = checks.make_context(stock_quiver("a1"), FormalGroupLaw.additive())
    divisor = ColoredDivisor([DivisorPoint(p, "1", 1) for p in "abc"],
                             {"a": F(0), "b": F(7), "c": F(-5, 2)})
    started = time.perf_counter()
    fiber = ind_fiber(ctx, Poset.antichain(5), divisor, tau_point(ctx, [F(1, 3)]))
    assert time.perf_counter() - started < 2.0
    assert fiber.rank == 8 ** 5 and len(fiber.pairs) == 3
    # the empty system first, then the one whose members all hold a, b, c
    assert fiber.values[0] == 1
    assert fiber.values[-1] == (fiber.pairs["a", "b"] * fiber.pairs["a", "c"]
                                * fiber.pairs["b", "c"]) ** 5
