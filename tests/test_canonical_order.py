"""The canonical coordinate order is the tuple order of ``Variable``.  These
oracles hold it to the explicit key it replaced, (role rank, slot, vertex
position, index), on every chart and record of the AC1 crosscheck and on
every block union that symmetrization forms for the AC4 generator words."""

from itertools import chain

from quivergrass import checks, symalg
from quivergrass.quiver import stock_quiver
from quivergrass.symalg import ROLE_AUX, ROLE_DILATION, ROLE_TORUS, aux_var, d_var, x_var

RANK = {ROLE_TORUS: 0, ROLE_DILATION: 1, ROLE_AUX: 2}


def old_key(v):
    return (RANK[v.role], v.slot, v.vpos, v.index)


def in_old_order(variables):
    variables = list(variables)
    return variables == sorted(variables, key=old_key)


def test_roles_rank_torus_then_dilation_then_aux():
    canonical = [x_var(1, 1, "2", 3), x_var(2, 0, "1", 1), d_var(1), d_var(2), aux_var("a", 1)]
    assert sorted(canonical[::-1]) == canonical == sorted(canonical, key=old_key)


def test_aux_variables_with_equal_index_tie_break_on_their_name():
    assert sorted([aux_var("b"), aux_var("a"), aux_var("c", 1)]) == [
        aux_var("a"), aux_var("b"), aux_var("c", 1)]


def test_every_ac1_chart_and_record_is_in_the_old_order():
    flags = 0
    for name in checks.CROSSCHECK_QUIVERS:
        quiver = stock_quiver(name)
        for _, law in checks.standard_laws():
            ctx = checks.make_context(quiver, law)
            for flag in checks.enumerate_flags(quiver, 4):
                flags += 1
                chart = ctx.chart(flag)
                variables = chart.registry.variables
                assert in_old_order(variables)
                # the block table, chained, is the registry order
                assert variables == (*chain.from_iterable(chart.blocks.values()), *chart.dvars)
                for kernel in (ctx.flag_kernel(flag, chart), ctx.appendix_b_kernel(flag, chart)):
                    for rec in kernel.divisor + kernel.zero_records:
                        assert in_old_order(v for v, _ in rec.char.coeffs)
    assert flags == 3405


def test_every_ac4_block_union_is_in_the_old_order(monkeypatch):
    unions = []
    original = symalg.block_shuffles

    def recording(blocks):
        unions.append(sorted(v for b in blocks for v in b))  # the union block_shuffles forms
        return original(blocks)

    monkeypatch.setattr(symalg, "block_shuffles", recording)
    results = checks.shuffle_constants_suite() + checks.ideal_suite(seed=0, max_total=4)
    assert all(r.ok for r in results)
    assert unions and all(in_old_order(u) for u in unions)
