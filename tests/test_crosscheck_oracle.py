"""The dual-assembly crosscheck, decided on divisors, against the oriented
comparison it replaced: both kernels multiplied out into factored
functions, divided and cancelled.  The oracle lives only here.  Also the
kernels assembled from block lists against the nested-loop assemblies
they replaced (``kernel_oracles``), which build every character with
``Character.make``, a sort, where ``assemble`` builds it in order."""

import pytest

from quivergrass.checks import (
    CROSSCHECK_QUIVERS,
    enumerate_dimvectors,
    enumerate_flags,
    make_context,
    standard_laws,
)
from quivergrass.fgl import Character, FormalGroupLaw
from quivergrass.locality import pair_check_kernel
from quivergrass.quiver import DilationTorus, default_nakajima, stock_quiver
from quivergrass.symalg import SymalgError, d_var
from quivergrass.thom import HomBlock, KernelContext, compare_kernels, crosscheck

from kernel_oracles import (
    kernel_of_module,
    nested_appendix_b_kernel,
    nested_classical_kernel,
    nested_flag_kernel,
    nested_pair_check_kernel,
)

LAWS = [law for _, law in standard_laws()]


def oriented_comparison(main, alt):
    """(unit, ok) as the crosscheck used to compute them, from ``fn``."""
    if main.fn.is_zero() or alt.fn.is_zero():
        return None, main.fn.is_zero() and alt.fn.is_zero()
    ratio = (alt.fn / main.fn).cancelled()
    return ratio, ratio.is_scalar() or ratio.is_monomial_unit()


def assert_matches_oracle(rep, main, alt):
    unit, ok = oriented_comparison(main, alt)
    assert rep.ok == ok
    assert rep.unit == unit and repr(rep.unit) == repr(unit)


def test_crosscheck_matches_the_oriented_comparison_on_every_ac1_flag():
    for name in CROSSCHECK_QUIVERS:
        quiver = stock_quiver(name)
        for law in LAWS:
            ctx = make_context(quiver, law)
            for flag in enumerate_flags(quiver, 4):
                rep = crosscheck(ctx, flag)
                chart = ctx.chart(flag)
                main, alt = ctx.flag_kernel(flag, chart), ctx.appendix_b_kernel(flag, chart)
                assert_matches_oracle(rep, main, alt)


def a2_chart():
    q = stock_quiver("a2")
    ctx = KernelContext(q, default_nakajima(q), DilationTorus.diagonal(),
                        FormalGroupLaw.additive())
    return q, ctx.chart(({"1": 1, "2": 0}, {"1": 0, "2": 1}))


def module_pair(law, alt_blocks):
    """A one-block kernel of twist chi and a kernel of ``alt_blocks``."""
    q, chart = a2_chart()
    ctx = KernelContext(q, default_nakajima(q), DilationTorus.diagonal(), law)
    chi = Character.make({d_var(1): 1})
    main = kernel_of_module(ctx, chart, [((1, "1"), (2, "2"), chi, 1)])
    alt = kernel_of_module(ctx, chart, alt_blocks(chi))
    return main, alt


def negated(chi):
    return Character.make({v: -c for v, c in chi.coeffs})


def opposite(chi):
    # Hom(block (2, "2"), block (1, "1")) twisted by -chi: every character negated.
    return [((2, "2"), (1, "1"), negated(chi), 1)]


def test_residual_of_opposite_characters_is_minus_one_for_the_additive_law():
    main, alt = module_pair(FormalGroupLaw.additive(), opposite)
    rep = compare_kernels((), main, alt)
    assert rep.ok and rep.unit.is_scalar() and rep.unit.scalar_value() == -1
    assert_matches_oracle(rep, main, alt)


def test_residual_of_opposite_characters_is_a_monomial_unit_for_the_multiplicative_law():
    main, alt = module_pair(FormalGroupLaw.multiplicative(), opposite)
    rep = compare_kernels((), main, alt)
    assert rep.ok and not rep.unit.is_scalar() and rep.unit.is_monomial_unit()
    assert_matches_oracle(rep, main, alt)


def test_an_uncancelled_factor_is_not_a_unit():
    def extra(chi):
        return [((1, "1"), (2, "2"), chi, 1), ((2, "2"), (1, "1"), chi, 1)]

    for law in LAWS:
        main, alt = module_pair(law, extra)
        rep = compare_kernels((), main, alt)
        assert not rep.ok
        assert_matches_oracle(rep, main, alt)


def test_residuals_match_the_oracle_under_every_law():
    def mixed(chi):
        return [((2, "2"), (1, "1"), negated(chi), 2), ((1, "1"), (2, "2"), chi, -1)]

    for law in LAWS:
        for blocks in (opposite, mixed):
            main, alt = module_pair(law, blocks)
            assert_matches_oracle(compare_kernels((), main, alt), main, alt)


def test_equal_divisors_give_the_unit_one_without_orienting(monkeypatch):
    main, alt = module_pair(FormalGroupLaw.additive(), lambda chi: [((1, "1"), (2, "2"), chi, 1)])

    def refuse(*args):
        raise AssertionError("a cancelled character was oriented")

    monkeypatch.setattr(FormalGroupLaw, "lambda_char", refuse)
    rep = compare_kernels((), main, alt)
    assert rep.ok and repr(rep.unit) == "1"


def test_compared_kernels_must_share_a_chart_and_a_law():
    main, alt = module_pair(FormalGroupLaw.additive(), opposite)
    other, _ = module_pair(FormalGroupLaw.multiplicative(), opposite)
    with pytest.raises(ValueError):
        compare_kernels((), main, other)
    q = stock_quiver("a2")
    ctx = make_context(q, FormalGroupLaw.additive())
    elsewhere = ctx.flag_kernel(({"1": 1, "2": 1}, {"1": 1, "2": 0}))
    with pytest.raises(ValueError):
        compare_kernels((), main, elsewhere)


def test_a_character_outside_the_chart_fails_during_assembly():
    q, chart = a2_chart()
    ctx = KernelContext(q, default_nakajima(q), DilationTorus.diagonal(),
                        FormalGroupLaw.additive())
    # the diagonal torus has rank 1: d2 is not a chart coordinate
    outside = Character.make({d_var(2): 1})
    with pytest.raises(SymalgError):
        kernel_of_module(ctx, chart, [((1, "1"), (2, "2"), outside, 1)])
    # slot 0 is no slot of the chart
    with pytest.raises(SymalgError):
        kernel_of_module(ctx, chart, [((0, "2"), (1, "1"), Character.zero(), 1)])
    # one outside twist fails the whole assembly, twice listed or not
    blocks = [HomBlock("module", None, None, (1, "1"), (2, "2"), twist, 1)
              for twist in (Character.zero(), outside, outside)]
    with pytest.raises(SymalgError):
        ctx.assemble(chart, blocks)
    with pytest.raises(SymalgError):
        ctx.assemble(chart, [HomBlock("module", None, None, (1, "1"), (3, "2"),
                                      Character.zero(), 1)])


def kernel_records(kernel):
    return [r.label() for r in kernel.divisor], kernel.divisor, kernel.zero_records


def test_kernels_match_the_nested_loop_assemblies():
    # every AC1 flag, and jordan, whose classical loop joins a coordinate to itself
    for name in [*CROSSCHECK_QUIVERS, "jordan"]:
        quiver = stock_quiver(name)
        ctx = make_context(quiver, FormalGroupLaw.additive())
        for flag in enumerate_flags(quiver, 4):
            chart = ctx.chart(flag)
            assert (kernel_records(ctx.flag_kernel(flag, chart))
                    == kernel_records(nested_flag_kernel(ctx, chart)))
            assert (kernel_records(ctx.appendix_b_kernel(flag, chart))
                    == kernel_records(nested_appendix_b_kernel(ctx, chart)))
            for v in flag:
                assert (kernel_records(ctx.classical_divisor(v).kernel)
                        == kernel_records(nested_classical_kernel(ctx, v)))


def test_pair_check_kernels_match_the_nested_loop_assembly():
    # every weight pair of AC5 (a1, a2, at most two points per color) and more
    for name in ("a1", "a2", "kronecker2"):
        quiver = stock_quiver(name)
        weights = [v for total in range(1, 5) for v in enumerate_dimvectors(quiver, total)]
        weights.append({v: 0 for v in quiver.vertices})
        for torus in (DilationTorus.diagonal(), DilationTorus.full()):
            ctx = make_context(quiver, FormalGroupLaw.additive(), torus)
            for v1 in weights:
                for v2 in weights:
                    assert (kernel_records(pair_check_kernel(ctx, v1, v2))
                            == kernel_records(nested_pair_check_kernel(ctx, v1, v2)))


def test_a_twisted_loop_on_one_slot_gives_the_twist_alone():
    ctx = make_context(stock_quiver("jordan"), FormalGroupLaw.additive())
    kernel = kernel_of_module(ctx, ctx.chart(({"1": 2},)), [((1, "1"), (1, "1"), ctx.omega(), 1)])
    assert [rec.char for rec in kernel.divisor if rec.indices[0] == rec.indices[1]] == [
        ctx.omega()] * 2


def test_a_twist_with_a_torus_coordinate_raises():
    ctx = make_context(stock_quiver("a2"), FormalGroupLaw.additive())
    chart = ctx.chart(({"1": 1, "2": 1}, {"1": 1, "2": 0}))
    x = chart.x(2, "1", 1)
    for twist in (Character(((x, 1),)), Character(((x, -1), (d_var(1), 1)))):
        with pytest.raises(SymalgError, match="not a dilation character"):
            kernel_of_module(ctx, chart, [((1, "1"), (1, "2"), twist, 1)])
