import random
from fractions import Fraction as F

import pytest

from quivergrass.fgl import Character, FormalGroupLaw
from quivergrass.quiver import DilationTorus, default_nakajima, stock_quiver
from quivergrass.symalg import MultiPoly, RationalFunction, rat_equal, d_var
from quivergrass.thom import KernelContext, crosscheck, evaluate_kernel

from kernel_oracles import flag_blocks, kernel_of_module

# The families of the two operators whose product is ``flag_kernel``.
DSTAR_P = {"gp_omega", "rep_lower"}
TILDE_Q = {"rep_raise", "gp_inv"}


def operator_kernel(ctx, flag, families):
    """The product over the blocks of ``flag_kernel`` in ``families``."""
    chart, blocks = flag_blocks(ctx, flag)
    assert {b.family for b in blocks} <= DSTAR_P | TILDE_Q
    return ctx.assemble(chart, [b for b in blocks if b.family in families])


def ctx_for(name, law=None, torus=None):
    q = stock_quiver(name)
    return KernelContext(
        q, default_nakajima(q), torus or DilationTorus.diagonal(),
        law or FormalGroupLaw.additive(),
    )


ALL_LAWS = [
    FormalGroupLaw.additive(),
    FormalGroupLaw.multiplicative(),
    FormalGroupLaw.series({(2, 1): F(-1), (1, 2): F(-1)}, 4),
]


def test_kernel_of_module_examples():
    ctx = ctx_for("a2")
    chart = ctx.chart(({"1": 1, "2": 0}, {"1": 0, "2": 1}))
    k = kernel_of_module(ctx, chart, [(((1, "1")), ((2, "2")), Character.zero(), 1)])
    x, y = chart.x(1, "1", 1), chart.x(2, "2", 1)
    assert rat_equal(k.fn, RationalFunction.from_poly(MultiPoly.linear(chart.registry, {y: 1, x: -1})))
    # Hom(k^1, k^2): two factors
    chart2 = ctx.chart(({"1": 1, "2": 0}, {"1": 0, "2": 2}))
    k2 = kernel_of_module(ctx, chart2, [(((1, "1")), ((2, "2")), Character.zero(), 1)])
    assert len(k2.records) == 2
    # empty block list
    k3 = kernel_of_module(ctx, chart, [])
    assert k3.fn.is_scalar() and k3.fn.scalar_value() == 1


def test_dstar_p_a1():
    ctx = ctx_for("a1")
    flag = ({"1": 1}, {"1": 1})
    k = operator_kernel(ctx, flag, DSTAR_P)
    chart = k.chart
    x1, x2, d1 = chart.x(1, "1", 1), chart.x(2, "1", 1), d_var(1)
    expect = RationalFunction.from_poly(
        MultiPoly.linear(chart.registry, {x2: 1, x1: -1, d1: 2})
    )
    assert rat_equal(k.fn, expect)


def test_dstar_p_a2_lowering_block():
    ctx = ctx_for("a2")
    flag = ({"1": 1, "2": 0}, {"1": 0, "2": 1})
    k = operator_kernel(ctx, flag, DSTAR_P)
    chart = k.chart
    x11, x22, d1 = chart.x(1, "1", 1), chart.x(2, "2", 1), d_var(1)
    expect = RationalFunction.from_poly(
        MultiPoly.linear(chart.registry, {x11: 1, x22: -1, d1: 1})
    )
    assert rat_equal(k.fn, expect)


def test_dstar_p_trivial_flag():
    ctx = ctx_for("a2")
    k = operator_kernel(ctx, ({"1": 1, "2": 1},), DSTAR_P)
    assert k.fn.is_scalar() and k.fn.scalar_value() == 1


def test_tilde_q_examples():
    ctx = ctx_for("a1")
    k = operator_kernel(ctx, ({"1": 1}, {"1": 1}), TILDE_Q)
    chart = k.chart
    x1, x2 = chart.x(1, "1", 1), chart.x(2, "1", 1)
    expect = RationalFunction(
        chart.registry, 1, [(MultiPoly.linear(chart.registry, {x2: 1, x1: -1}), -1)]
    )
    assert rat_equal(k.fn, expect)

    ctx2 = ctx_for("a2")
    k2 = operator_kernel(ctx2, ({"1": 1, "2": 0}, {"1": 0, "2": 1}), TILDE_Q)
    chart2 = k2.chart
    x11, x22, d1 = chart2.x(1, "1", 1), chart2.x(2, "2", 1), d_var(1)
    expect2 = RationalFunction.from_poly(
        MultiPoly.linear(chart2.registry, {x22: 1, x11: -1, d1: 1})
    )
    assert rat_equal(k2.fn, expect2)
    assert operator_kernel(ctx2, ({"1": 1, "2": 1},), TILDE_Q).fn.is_scalar()


def test_biextension_examples():
    ctx = ctx_for("a1")
    k = ctx.biextension_kernel({"1": 1}, {"1": 1})
    # oracle: value (x2-x1+2t)/(x2-x1) at sample points
    chart = k.chart
    x1, x2, d1 = chart.x(1, "1", 1), chart.x(2, "1", 1), d_var(1)
    rng = random.Random(1)
    for _ in range(8):
        a, b, t = F(rng.randint(0, 20)), F(rng.randint(30, 60)), F(rng.randint(1, 9))
        assert k.fn.evaluate({x1: a, x2: b, d1: t}) == (b - a + 2 * t) / (b - a)
    # empty second block
    k0 = ctx.biextension_kernel({"1": 1}, {"1": 0})
    assert k0.fn.is_scalar() and k0.fn.scalar_value() == 1
    # the a2 cross pair carries both arrow directions
    ctx2 = ctx_for("a2")
    k2 = ctx2.biextension_kernel({"1": 1, "2": 0}, {"1": 0, "2": 1})
    chart2 = k2.chart
    y, x = chart2.x(2, "2", 1), chart2.x(1, "1", 1)
    for _ in range(8):
        a, b, t = F(rng.randint(0, 20)), F(rng.randint(30, 60)), F(rng.randint(1, 9))
        got = k2.fn.evaluate({x: a, y: b, d_var(1): t})
        assert got == (b - a + t) * (a - b + t)


def test_crosscheck_examples_unit_one():
    for name, flag in (
        ("a1", ({"1": 1}, {"1": 1})),
        ("a2", ({"1": 1, "2": 0}, {"1": 0, "2": 1})),
    ):
        for law in ALL_LAWS:
            ctx = ctx_for(name, law)
            rep = crosscheck(ctx, flag)
            assert rep.ok
            assert rep.unit.is_scalar() and rep.unit.scalar_value() == 1


def test_crosscheck_trivial_flag():
    ctx = ctx_for("a2")
    k = ctx.appendix_b_kernel(({"1": 2, "2": 1},))
    assert k.fn.is_scalar() and k.fn.scalar_value() == 1


def test_flag_multiplicativity_regroupings():
    # the 3-step kernel equals both regrouped products of 2-step kernels
    ctx = ctx_for("a2")
    v1, v2, v3 = {"1": 1, "2": 0}, {"1": 0, "2": 1}, {"1": 1, "2": 1}
    flag = (v1, v2, v3)
    k3 = ctx.flag_kernel(flag)
    reg = k3.chart.registry

    def pair_into(big_chart, va, slots_a, vb, slots_b):
        """2-step kernel of (va, vb) renamed onto the 3-step chart, where
        slot 1 spreads over slots_a and slot 2 over slots_b of the big chart."""
        k = ctx.biextension_kernel(va, vb)
        spread = [slots_a, slots_b]

        def place(g, vtx, s):
            cells = [(h, i) for h in spread[g - 1] for i in range(1, big_chart.dim(h, vtx) + 1)]
            return cells[s - 1]

        return k.fn.rename(k.chart.embedding(big_chart, place), big_chart.registry)

    from quivergrass.quiver import dim_add

    left = (
        pair_into(k3.chart, v1, [1], v2, [2])
        * pair_into(k3.chart, dim_add(v1, v2), [1, 2], v3, [3])
    )
    right = (
        pair_into(k3.chart, v2, [2], v3, [3])
        * pair_into(k3.chart, v1, [1], dim_add(v2, v3), [2, 3])
    )
    assert rat_equal(k3.fn, left)
    assert rat_equal(k3.fn, right)


def test_bilinearity_in_the_second_argument():
    ctx = ctx_for("a2")
    v = {"1": 1, "2": 1}
    w1, w2 = {"1": 1, "2": 0}, {"1": 1, "2": 1}
    from quivergrass.quiver import dim_add

    lhs = ctx.biextension_kernel(v, dim_add(w1, w2))
    k1 = ctx.biextension_kernel(v, w1)
    k2 = ctx.biextension_kernel(v, w2)
    reg = lhs.chart.registry
    p1 = k1.chart.embedding(lhs.chart, lambda g, vtx, s: (g, s))
    p2 = k2.chart.embedding(
        lhs.chart, lambda g, vtx, s: (g, s if g == 1 else w1.get(vtx, 0) + s)
    )
    rhs = k1.fn.rename(p1, reg) * k2.fn.rename(p2, reg)
    assert rat_equal(lhs.fn, rhs)


def test_classical_divisor_examples():
    ctx = ctx_for("a2")
    rep = ctx.classical_divisor({"1": 1, "2": 1})
    assert rep.matches_incidence and not rep.degenerate
    assert rep.multiplicities == {("1", "2"): 1}

    ctx1 = ctx_for("a1")
    rep1 = ctx1.classical_divisor({"1": 2})
    assert rep1.multiplicities == {}
    assert not rep1.degenerate

    ctxj = ctx_for("jordan")
    repj = ctxj.classical_divisor({"1": 2})
    assert repj.degenerate  # the loop produces weight-zero factors
    assert any(r.char.is_zero() for r in repj.kernel.zero_records)


def test_classical_limit_of_biextension():
    # at zero dilation coordinates the conormal factor families cancel and
    # the raising family restricts to the one-directional classical kernel
    ctx = ctx_for("a2")
    k = ctx.biextension_kernel({"1": 1, "2": 1}, {"1": 1, "2": 1})
    chart = k.chart
    zero_tau = {d_var(1): F(0)}
    limited = k.fn.substitute(zero_tau)
    gp = [c for r, c in k.records if r.family in ("gp_omega", "gp_inv")]
    gp_prod = gp[0].substitute(zero_tau)
    for c in gp[1:]:
        gp_prod = gp_prod * c.substitute(zero_tau)
    assert gp_prod.is_scalar() and gp_prod.scalar_value() == 1
    raising = [r for r, _ in k.records if r.family == "rep_raise"]
    counts = {}
    for r in raising:
        arr = r.arrow.rstrip("*")
        counts[arr] = counts.get(arr, 0) + 1
    # one raising family per arrow of the double between occupied vertices
    assert counts == {"h1": 2}
    val = limited.evaluate(
        {chart.x(1, "1", 1): F(1), chart.x(1, "2", 1): F(3),
         chart.x(2, "1", 1): F(7), chart.x(2, "2", 1): F(19), d_var(1): F(0)}
    )
    # oracle: the four doubled-arrow cross factors at these points
    expect = (F(19) - F(1)) * (F(7) - F(3)) * (F(3) - F(7)) * (F(1) - F(19))
    assert val == expect


def test_loops_are_units_in_cross_blocks():
    ctx = ctx_for("jordan")
    k = ctx.biextension_kernel({"1": 1}, {"1": 1})
    assert not k.fn.is_zero()
    assert not k.zero_records


def test_offdiagonal_sweep_matches_module_kernel():
    # the one-pass assembly's doubled-block factor equals the kernel of the
    # full off-diagonal doubled representation space, built independently
    ctx = ctx_for("a2")
    flag = ({"1": 1, "2": 1}, {"1": 0, "2": 1})
    chart = ctx.chart(flag)
    alt = ctx.appendix_b_kernel(flag, chart)
    psi = [c for r, c in alt.records if r.family == "psi_offdiag"]
    psi_prod = RationalFunction.one(chart.registry)
    for c in psi:
        psi_prod = psi_prod * c
    blocks = []
    for k in ctx.quiver.double:
        mu = ctx.mu(k.aid)
        for g in (1, 2):
            for gp in (1, 2):
                if g != gp:
                    blocks.append(((g, k.tail), (gp, k.head), mu, 1))
    module = kernel_of_module(ctx, chart, blocks)
    assert rat_equal(psi_prod, module.fn)


def test_classical_limit_matches_trivial_torus():
    # specializing the dilation coordinates to zero reproduces the kernel
    # computed with no dilation torus at all
    from quivergrass.quiver import stock_quiver, default_nakajima

    q = stock_quiver("a2")
    ctx = ctx_for("a2")
    ctx0 = KernelContext(q, default_nakajima(q), DilationTorus(0, ((), ())),
                         FormalGroupLaw.additive())
    flag = ({"1": 1, "2": 0}, {"1": 0, "2": 1})
    k = ctx.biextension_kernel(*flag)
    k0 = ctx0.biextension_kernel(*flag)
    specialized = k.fn.substitute({d_var(1): F(0)})
    lifted = k0.fn.rename(k0.chart.embedding(k.chart, lambda g, v, s: (g, s)), k.chart.registry)
    assert rat_equal(specialized, lifted)


def test_evaluate_kernel_reports_culprits():
    ctx = ctx_for("a1")
    k = ctx.biextension_kernel({"1": 1}, {"1": 1})
    chart = k.chart
    value, culprits = evaluate_kernel(
        k, {chart.x(1, "1", 1): F(0), chart.x(2, "1", 1): F(0), d_var(1): F(1)}
    )
    assert value is None
    assert any(kind == "pole" for kind, _ in culprits)


def test_kernel_fn_is_the_left_fold_of_its_records():
    # fn is merged once from the records; it must equal the factor-by-factor
    # product the kernel used to be folded from, each step re-normalized by
    # the public constructor
    from quivergrass.checks import enumerate_flags

    for law in ALL_LAWS:
        ctx = ctx_for("a2", law)
        for flag in enumerate_flags(ctx.quiver, 3):
            chart = ctx.chart(flag)
            for kernel in (ctx.flag_kernel(flag, chart), ctx.appendix_b_kernel(flag, chart)):
                fold = RationalFunction.one(chart.registry)
                for _, contribution in kernel.records:
                    fold = RationalFunction(chart.registry, fold.unit * contribution.unit,
                                            fold.factors + contribution.factors)
                assert kernel.fn == fold


def test_lambda_char_matches_direct_orientation_on_kernel_records():
    # every orientation a kernel asks for, taken through the memo and the
    # transport, is the direct computation on the chart's registry
    from quivergrass.checks import enumerate_flags

    for name in ("a2", "a3"):
        for law in ALL_LAWS:
            ctx = ctx_for(name, law)
            for flag in enumerate_flags(ctx.quiver, 3):
                chart = ctx.chart(flag)
                for kernel in (ctx.flag_kernel(flag, chart), ctx.appendix_b_kernel(flag, chart)):
                    for rec, _ in kernel.records:
                        got = law.lambda_char(chart.registry, rec.char)
                        want = law._orient(chart.registry, rec.char)
                        assert got == want and repr(got) == repr(want)
