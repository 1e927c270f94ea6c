import random
from collections import Counter
from fractions import Fraction as F

import pytest

from quivergrass import checks
from quivergrass.fgl import Character, FormalGroupLaw
from quivergrass.locality import (
    PointConfig,
    is_m_tau_disjoint,
    pair_blocks,
    pair_check_kernel,
    parse_point_config,
    tau_point,
    verify_m_locality,
    verify_trivialization,
)
from quivergrass.quiver import DilationTorus, default_nakajima, stock_quiver
from quivergrass.symalg import ROLE_TORUS, SymalgError
from quivergrass.thom import KernelContext

from kernel_oracles import descriptor_disjoint, shifted_diagonals

# Single-color contexts here use the dilation torus along the first weight
# axis, so the symplectic shift equals the tau coordinate itself and the
# worked numbers below stay small.
AXIS = DilationTorus(1, ((1,), (0,)))


def ctx_for(name, torus=None, law=None, weights=None):
    q = stock_quiver(name)
    return KernelContext(q, weights or default_nakajima(q), torus or AXIS,
                         law or FormalGroupLaw.additive())


# Contexts where mu(k) != mu(k*) for some arrow k: the full weight torus,
# and the diagonal torus with unequal arrow weights 3 and -1.
LAWS = {"additive": FormalGroupLaw.additive(), "multiplicative": FormalGroupLaw.multiplicative()}
TWISTED = {
    **{f"{name}-full-{lname}": ctx_for(name, DilationTorus.full(), law)
       for name in ("a2", "kronecker2", "cyclic3") for lname, law in LAWS.items()},
    **{f"a2-weights-3,-1-{lname}": ctx_for("a2", DilationTorus.diagonal(), law,
                                           {"h1": 3, "h1*": -1})
       for lname, law in LAWS.items()},
}


def test_shifted_diagonal_families():
    # the shifted diagonals are the pair kernel's blocks
    ctx = ctx_for("a1")
    blocks = pair_blocks(ctx, {"1": 1}, {"1": 1})
    assert [(b.family, b.source, b.target, b.exponent) for b in blocks] == [
        ("gp_omega", (1, "1"), (2, "1"), 1), ("gp_omega", (2, "1"), (1, "1"), 1),
        ("gp_inv", (1, "1"), (2, "1"), -1), ("gp_inv", (2, "1"), (1, "1"), -1),
    ]
    ctx2 = ctx_for("a2", torus=DilationTorus.diagonal())
    blocks2 = pair_blocks(ctx2, {"1": 1, "2": 0}, {"1": 0, "2": 1})
    assert [(b.family, b.arrow, b.source, b.target) for b in blocks2] == [
        ("rep_raise", "h1", (1, "1"), (2, "2")), ("rep_lower", "h1*", (2, "2"), (1, "1")),
    ]
    tau2 = tau_point(ctx2, [F(1)])
    assert all(ctx2.law.char_value(b.twist, tau2) == 1 for b in blocks2)
    # x[1, 1] = 0 meets x[2, 2] = -1 shifted by mu(h1) = 1 (rep_raise), and
    # x[2, 2] = 0 meets x[1, 1] = -1 shifted by mu(h1*) = 1 (rep_lower)
    assert not is_m_tau_disjoint(ctx2, PointConfig({"1": [F(0)]}),
                                 PointConfig({"2": [F(-1)]}), tau2)
    assert not is_m_tau_disjoint(ctx2, PointConfig({"1": [F(-1)]}),
                                 PointConfig({"2": [F(0)]}), tau2)
    assert is_m_tau_disjoint(ctx2, PointConfig({"1": [F(0)]}), PointConfig({"2": [F(0)]}), tau2)
    # no block without points on both ends
    assert pair_blocks(ctx2, {"1": 1, "2": 0}, {"1": 0, "2": 0}) == []


def test_tau_zero_degenerates_to_plain_diagonals():
    ctx = ctx_for("a1")
    tau = tau_point(ctx, [F(0)])
    blocks = pair_blocks(ctx, {"1": 1}, {"1": 1})
    assert all(ctx.law.char_value(b.twist, tau) == 0 for b in blocks)
    d1 = PointConfig({"1": [F(0)]})
    d2 = PointConfig({"1": [F(3)]})
    assert is_m_tau_disjoint(ctx, d1, d2, tau)
    assert not is_m_tau_disjoint(ctx, d1, PointConfig({"1": [F(0)]}), tau)


def test_disjointness_examples():
    ctx = ctx_for("a1")
    tau = tau_point(ctx, [F(1)])
    assert is_m_tau_disjoint(ctx, PointConfig({"1": [F(0)]}), PointConfig({"1": [F(5)]}), tau)
    # 0 + 1 = 1 lands on the shifted diagonal
    assert not is_m_tau_disjoint(ctx, PointConfig({"1": [F(0)]}), PointConfig({"1": [F(1)]}), tau)
    assert not is_m_tau_disjoint(ctx, PointConfig({"1": [F(0)]}), PointConfig({"1": [F(0)]}), tau)


def test_disjointness_rejects_a_color_outside_the_quiver():
    # Points of a color the quiver lacks would otherwise be ignored.
    ctx = ctx_for("a2", torus=DilationTorus.diagonal())
    tau = tau_point(ctx, [F(1)])
    with pytest.raises(SymalgError, match="D1: color '9' is not a vertex"):
        is_m_tau_disjoint(ctx, PointConfig({"9": [F(0)]}), PointConfig({"1": [F(0)]}), tau)
    with pytest.raises(SymalgError, match="D2: color '9' is not a vertex"):
        is_m_tau_disjoint(ctx, PointConfig({"1": [F(0)]}), PointConfig({"9": []}), tau)


def test_disjointness_is_two_sided():
    # the reversed order must be rejected as well: D2 - tau hits D1
    ctx = ctx_for("a1")
    tau = tau_point(ctx, [F(1)])
    d1 = PointConfig({"1": [F(5)]})
    d2 = PointConfig({"1": [F(6)]})
    assert not is_m_tau_disjoint(ctx, d1, d2, tau)


def test_trivialization_exact_value():
    # oracle: (5-0+1)(0-5+1) / ((5-0)(0-5)) = 6 * (-4) / (-25) = 24/25
    ctx = ctx_for("a1")
    tau = tau_point(ctx, [F(1)])
    rep = verify_trivialization(ctx, PointConfig({"1": [F(0)]}), PointConfig({"1": [F(5)]}), tau)
    assert rep.disjoint and rep.trivializes
    assert rep.value == F(24, 25)


def test_trivialization_names_the_factor():
    ctx = ctx_for("a1")
    tau = tau_point(ctx, [F(1)])
    rep = verify_trivialization(ctx, PointConfig({"1": [F(0)]}), PointConfig({"1": [F(1)]}), tau)
    assert not rep.disjoint
    assert rep.culprits and rep.ok
    kinds = {kind for kind, _ in rep.culprits}
    assert "zero" in kinds or "pole" in kinds
    # a plain collision produces a pole on the unshifted diagonal factor
    rep2 = verify_trivialization(ctx, PointConfig({"1": [F(2)]}), PointConfig({"1": [F(2)]}), tau)
    assert any(kind == "pole" for kind, _ in rep2.culprits)


def test_trivialization_empty_config():
    ctx = ctx_for("a1")
    tau = tau_point(ctx, [F(1)])
    rep = verify_trivialization(ctx, PointConfig({"1": [F(1)]}), PointConfig({"1": []}), tau)
    assert rep.value == 1


def test_m_locality_identity_words():
    laws = [
        FormalGroupLaw.additive(),
        FormalGroupLaw.multiplicative(),
        FormalGroupLaw.series({(2, 1): F(-1), (1, 2): F(-1)}, 4),
    ]
    for law in laws:
        ctx = ctx_for("a1", torus=DilationTorus.diagonal(), law=law)
        assert verify_m_locality(ctx, ("1",), ("1",)).identity_holds
        ctx2 = ctx_for("a2", torus=DilationTorus.diagonal(), law=law)
        assert verify_m_locality(ctx2, ("1",), ("2",)).identity_holds
        assert verify_m_locality(ctx2, ("1", "2"), ("2", "1")).identity_holds
        assert verify_m_locality(ctx2, ("1", "2"), ()).identity_holds


def test_pair_check_kernel_covers_every_family():
    ctx = ctx_for("a2", torus=DilationTorus.diagonal())
    k = pair_check_kernel(ctx, {"1": 1, "2": 1}, {"1": 1, "2": 1})
    families = {r.family for r, _ in k.records}
    assert families == {"rep_raise", "rep_lower", "gp_omega", "gp_inv"}
    arrow_dirs = {(r.family, r.slots) for r, _ in k.records if r.arrow == "h1"}
    assert ("rep_raise", (1, 2)) in arrow_dirs and ("rep_lower", (2, 1)) in arrow_dirs


def test_parse_point_config():
    d1, d2, tau = parse_point_config(
        {"tau": [1], "D1": {"1": [0]}, "D2": {"1": [5]}}
    )
    assert d1.coords == {"1": [F(0)]} and d2.coords == {"1": [F(5)]}
    assert tau == [F(1)]


def test_multiplicative_backend_disjointness():
    # multiplicative points live on the torus: shifts act by multiplication
    ctx = ctx_for("a1", law=FormalGroupLaw.multiplicative())
    tau = tau_point(ctx, [F(3)])
    d1 = PointConfig({"1": [F(2)]})
    assert not is_m_tau_disjoint(ctx, d1, PointConfig({"1": [F(6)]}), tau)  # 2 * 3 = 6
    assert is_m_tau_disjoint(ctx, d1, PointConfig({"1": [F(5)]}), tau)


@pytest.mark.parametrize("name", TWISTED)
def test_each_kernel_family_has_its_descriptor(name):
    # the descriptor list of the oracle covers the pair kernel's families:
    # order "12" tests D2 + shift against D1, the factors of slots (1, 2);
    # "21" those of slots (2, 1); the plain diagonal is symmetric
    ctx = TWISTED[name]
    full = {v: 1 for v in ctx.quiver.vertices}
    tau = tau_point(ctx, [F(2)] * ctx.dilation.rank)
    listed = {(d.source, d.order) for d in shifted_diagonals(ctx, full, full, tau)}
    kinds = {"rep_raise": "arrow:", "rep_lower": "arrow:", "gp_omega": "symplectic"}
    families = set()
    for rec, _ in pair_check_kernel(ctx, full, full).records:
        if rec.family == "gp_inv":
            families.add(("plain", "12"))
        else:
            source = kinds[rec.family] + (rec.arrow or "")
            families.add((source, "12" if rec.slots == (1, 2) else "21"))
    assert listed == families


def _twisted_draw(ctx, rng):
    """Two random configurations; half of them get one pair-kernel factor
    planted to vanish, chosen among the kernel's own records."""
    additive = ctx.law.point_zero() == 0

    def coord():
        # 0 is not a point of the multiplicative group
        while True:
            x = F(rng.randint(-12, 12), rng.randint(1, 3))
            if additive or x:
                return x

    tau = tau_point(ctx, [F(rng.randint(1, 6), rng.randint(1, 2))
                          for _ in range(ctx.dilation.rank)])
    d1, d2 = (PointConfig({v: [coord() for _ in range(rng.randint(0, 2))]
                           for v in ctx.quiver.vertices}) for _ in range(2))
    if d1.is_empty() or d2.is_empty() or rng.random() < 0.5:
        return d1, d2, tau
    kernel = pair_check_kernel(ctx, d1.weight(ctx), d2.weight(ctx))
    rec, _ = rng.choice(kernel.records)
    src, tgt = (v for c in (-1, 1) for v, e in rec.char.coeffs
                if e == c and v.role == ROLE_TORUS)
    twist = Character.make({v: c for v, c in rec.char.coeffs if v.role != ROLE_TORUS})
    configs = {1: d1, 2: d2}
    x = configs[src.slot].coords[src.vname][src.index - 1]
    configs[tgt.slot].coords[tgt.vname][tgt.index - 1] = ctx.law.point_add(
        x, ctx.law.point_neg(ctx.law.char_value(twist, tau))
    )
    return d1, d2, tau


@pytest.mark.parametrize("name", TWISTED)
def test_disjointness_agrees_with_the_pair_kernel(name):
    ctx = TWISTED[name]
    rng = random.Random(13)
    verdicts = set()
    for _ in range(60):
        d1, d2, tau = _twisted_draw(ctx, rng)
        rep = verify_trivialization(ctx, d1, d2, tau)
        assert is_m_tau_disjoint(ctx, d1, d2, tau) == rep.trivializes, (d1, d2, tau)
        assert rep.ok
        verdicts.add(rep.disjoint)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", TWISTED)
def test_disjointness_matches_the_descriptor_oracle(name):
    ctx = TWISTED[name]
    rng = random.Random(29)
    verdicts = set()
    for _ in range(400):
        d1, d2, tau = _twisted_draw(ctx, rng)
        verdict = is_m_tau_disjoint(ctx, d1, d2, tau)
        assert verdict == descriptor_disjoint(ctx, d1, d2, tau), (d1, d2, tau)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_disjointness_matches_the_descriptor_oracle_on_every_ac5_draw(monkeypatch):
    # every configuration AC5 draws, kept or rejected, passes through checks
    calls = []

    def both(ctx, d1, d2, tau):
        verdict = is_m_tau_disjoint(ctx, d1, d2, tau)
        calls.append(verdict)
        assert verdict == descriptor_disjoint(ctx, d1, d2, tau), (d1, d2, tau)
        return verdict

    monkeypatch.setattr(checks, "is_m_tau_disjoint", both)
    assert all(r.ok for r in checks.locality_suite(max_total=0))
    assert len(calls) >= 400 and set(calls) == {True, False}


def test_ac5_collisions_hit_every_pair_block_family(monkeypatch):
    # the culprits of AC5's seed-0 colliding draws on a2 name each family
    # of pair_blocks at least 10 times
    counts = Counter()
    draw = checks._random_colliding

    def counted(ctx, rng):
        d1, d2, tau = draw(ctx, rng)
        if len(ctx.quiver.vertices) == 2:
            rep = verify_trivialization(ctx, d1, d2, tau)
            counts.update({rec.family for _, rec in rep.culprits})
        return d1, d2, tau

    monkeypatch.setattr(checks, "_random_colliding", counted)
    assert all(r.ok for r in checks.locality_suite(max_total=0))
    assert min(counts[f] for f in ("rep_raise", "rep_lower", "gp_omega", "gp_inv")) >= 10, counts
