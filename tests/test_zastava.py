import itertools
import math
import random
import time
from fractions import Fraction as F
from math import comb
from pathlib import Path

import pytest

from quivergrass.fgl import FormalGroupLaw
from quivergrass.fixedpoints import DegreeOverflowError
from quivergrass.locality import tau_point
from quivergrass.quiver import DilationTorus, default_nakajima, load_quiver, stock_quiver
from quivergrass.thom import KernelContext
from quivergrass.zastava import (
    SYSTEM_CAP,
    ColoredDivisor,
    DivisorPoint,
    NonGenericError,
    Poset,
    PosetFormatError,
    generic_fiber_factorization,
    ind_fiber,
    ind_rank,
    member_value,
    monotone_maps,
    pair_value,
    subscheme_lattice,
)


def ctx_a1():
    q = stock_quiver("a1")
    return KernelContext(q, default_nakajima(q), DilationTorus(1, ((1,), (0,))),
                         FormalGroupLaw.additive())


def ctx_a2():
    q = stock_quiver("a2")
    return KernelContext(q, default_nakajima(q), DilationTorus.diagonal(),
                         FormalGroupLaw.additive())


def test_poset_constructors():
    c = Poset.chain(3)
    assert len(c) == 3 and c.leq("p1", "p3")
    a = Poset.antichain(2)
    assert not a.leq("p1", "p2") and a.leq("p1", "p1")
    with pytest.raises(PosetFormatError):
        Poset(["a", "b"], [("a", "b"), ("b", "a")])  # closure breaks antisymmetry


def test_poset_transitive_closure():
    p = Poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert p.leq("a", "c")


def closure_oracle(elements, relations):
    """The order matrix as ``Poset`` closed it before its rows were bitsets:
    a cubic triple loop over lists of booleans; None where the closure
    breaks antisymmetry."""
    idx = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in relations:
        leq[idx[a]][idx[b]] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    if any(i != j and leq[i][j] and leq[j][i] for i in range(n) for j in range(n)):
        return None
    return leq


@pytest.mark.parametrize("seed", range(40))
def test_poset_closure_matches_the_triple_loop(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    elements = [f"e{i}" for i in rng.sample(range(100), n)]
    # relations along a hidden linear order; every fourth seed adds a
    # relation against it that closes a cycle
    rank = rng.sample(range(n), n)
    relations = [(elements[i], elements[j]) for i in range(n) for j in range(n)
                 if rank[i] < rank[j] and rng.random() < 0.2]
    if seed % 4 == 0 and relations:
        a, b = rng.choice(relations)
        relations.append((b, a))
    want = closure_oracle(elements, relations)
    if want is None:
        with pytest.raises(PosetFormatError):
            Poset(elements, relations)
        return
    p = Poset(elements, relations)
    assert [[p.leq(a, b) for b in elements] for a in elements] == want


def test_a_long_chain_closes_fast():
    started = time.perf_counter()
    p = Poset.chain(1000)
    assert time.perf_counter() - started < 1.0
    assert p.leq("p1", "p1000") and not p.leq("p1000", "p1")


def test_subscheme_lattice_shapes():
    assert len(subscheme_lattice(ColoredDivisor.parse("a:i:1"))) == 2
    assert len(subscheme_lattice(ColoredDivisor.parse("a:i:2"))) == 3
    grid = subscheme_lattice(ColoredDivisor.parse("a:i:1,b:j:1"))
    assert len(grid) == 4
    # the lattice keys by id, so an id may not come back under another color
    for spec in ("a:i:1,a:j:2", "a:i:2,a:j:1", "a:i:1,b:j:1,a:i:1"):
        with pytest.raises(PosetFormatError, match="point id 'a' is repeated"):
            ColoredDivisor.parse(spec)


def test_ind_rank_examples():
    ai = ColoredDivisor.parse("a:i:1")
    assert ind_rank(Poset.chain(1), ai) == 2
    for m in (1, 2, 3):
        assert ind_rank(Poset.chain(m), ai) == m + 1
    assert ind_rank(Poset.antichain(2), ai) == 4


def test_ind_rank_chain_formula():
    # oracle: weakly increasing m-tuples in {0..n} number C(n+m, m)
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            d = ColoredDivisor.parse(f"a:i:{n}")
            brute = 0
            for tup in itertools.product(range(n + 1), repeat=m):
                if all(tup[k] <= tup[k + 1] for k in range(m - 1)):
                    brute += 1
            assert brute == comb(n + m, m)
            assert ind_rank(Poset.chain(m), d) == comb(n + m, m)


def filtered_systems(poset, divisor):
    """Oracle: every map from the elements to the subdivisors, in lattice
    order, kept when it is monotone on every pair."""
    def sub_leq(a, b):
        return all(ka <= kb for (_, ka), (_, kb) in zip(a, b))

    lattice = subscheme_lattice(divisor)
    els = poset.elements
    out = []
    for values in itertools.product(lattice, repeat=len(els)):
        system = dict(zip(els, values))
        if all(sub_leq(system[a], system[b]) for a in els for b in els if poset.leq(a, b)):
            out.append(system)
    return out


@pytest.mark.parametrize("poset, divisor", [
    (Poset.chain(3), "a:i:2"),
    (Poset.antichain(2), "a:i:1,b:j:1"),
    (Poset.antichain(3), ""),
    (Poset([], []), "a:i:2"),
    # elements listed so that the third lies between the first two
    (Poset(["a", "c", "b"], [("a", "b"), ("b", "c")]), "a:i:2,b:j:1"),
    (Poset(["top", "bottom", "left", "right"],
           [("bottom", "left"), ("bottom", "right"), ("left", "top"), ("right", "top")]), "a:i:2"),
    (Poset(["x", "y", "z"], [("x", "y")]), "a:i:1,b:i:2"),
])
def test_monotone_maps_equal_the_filtered_product(poset, divisor):
    d = ColoredDivisor.parse(divisor)
    systems = list(monotone_maps(poset, d))
    assert systems == filtered_systems(poset, d)
    assert ind_rank(poset, d) == len(systems)


def box_systems(poset, divisor):
    """Oracle: the depth-first search as it was before it kept only the
    maximal earlier elements below and the minimal ones above: each box
    reads the picks of every earlier element below and above."""
    els, leq = poset.elements, poset.leq
    if not els:
        return [{}]
    lattice = {tuple(k for _, k in sub): sub for sub in subscheme_lattice(divisor)}
    top = next(reversed(lattice))
    below = [[j for j in range(k) if leq(els[j], els[k])] for k in range(len(els))]
    above = [[j for j in range(k) if leq(els[k], els[j])] for k in range(len(els))]
    out = []

    def extend(picked):
        k = len(picked)
        if k == len(els):
            out.append(dict(zip(els, (lattice[p] for p in picked))))
            return
        lo = zip((0,) * len(top), *(picked[j] for j in below[k]))
        hi = zip(top, *(picked[j] for j in above[k]))
        for candidate in itertools.product(*(range(max(a), min(b) + 1)
                                             for a, b in zip(lo, hi))):
            extend(picked + [candidate])

    extend([])
    return out


GOLDEN_POSETS = [("chain:1", "a:i:1,b:i:1"), ("chain:2", "a:i:3"), ("chain:2", "a:i:1,b:j:1"),
                 ("antichain:2", "a:i:1,b:j:1"), ("chain:3", "a:i:2,b:j:1"),
                 (str(Path(__file__).resolve().parent / "data" / "poset_diamond.json"), "a:i:2")]


@pytest.mark.parametrize("spec, divisor", GOLDEN_POSETS)
def test_monotone_maps_match_the_box_oracle_on_the_golden_posets(spec, divisor):
    poset, d = Poset.parse(spec), ColoredDivisor.parse(divisor)
    want = box_systems(poset, d)
    assert list(monotone_maps(poset, d)) == want
    assert ind_rank(poset, d) == len(want)


@pytest.mark.parametrize("seed", range(30))
def test_monotone_maps_match_the_box_oracle_on_random_posets(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    elements = [f"e{i}" for i in range(n)]
    # relations along a hidden linear order, listed in another order
    rank = rng.sample(range(n), n)
    relations = [(elements[i], elements[j]) for i in range(n) for j in range(n)
                 if rank[i] < rank[j] and rng.random() < 0.4]
    poset = Poset(rng.sample(elements, n), relations)
    d = ColoredDivisor.parse(",".join(f"p{i}:i:{rng.randint(1, 2)}"
                                      for i in range(rng.randint(0, 2))))
    want = box_systems(poset, d)
    assert list(monotone_maps(poset, d)) == want
    assert ind_rank(poset, d) == len(want)


def test_a_deep_chain_ranks_fast():
    # the boxes read one pick below each element, not every earlier one
    started = time.perf_counter()
    assert ind_rank(Poset.parse("chain:400"), ColoredDivisor.parse("a:i:1")) == 401
    assert time.perf_counter() - started < 0.5


def test_ind_rank_stops_past_the_system_budget():
    assert SYSTEM_CAP == 2 ** 16
    # 4^8 = 2^16 systems: exactly the budget
    assert ind_rank(Poset.antichain(8), ColoredDivisor.parse("a:i:3")) == SYSTEM_CAP
    for poset, divisor in ((Poset.antichain(9), "a:i:3"),
                           (Poset.chain(30), "a:i:30"),
                           (Poset.chain(1), f"a:i:{SYSTEM_CAP}")):
        with pytest.raises(DegreeOverflowError):
            ind_rank(poset, ColoredDivisor.parse(divisor))


def test_ind_rank_of_a_poset_deeper_than_the_recursion_limit():
    wide = Poset.antichain(1000)
    assert ind_rank(wide, ColoredDivisor.parse("")) == 1
    with pytest.raises(DegreeOverflowError):
        ind_rank(wide, ColoredDivisor.parse("a:i:1"))


def test_ind_fiber_stops_past_the_system_budget():
    ctx = ctx_a1()
    div = ColoredDivisor([DivisorPoint("a", "1", 1), DivisorPoint("b", "1", 1)],
                         {"a": F(0), "b": F(7)})
    with pytest.raises(DegreeOverflowError):
        ind_fiber(ctx, Poset.antichain(9), div, tau_point(ctx, [F(1, 3)]))


def test_ind_rank_multiplicative_over_disjoint_supports():
    p = Poset.chain(1)
    left = ColoredDivisor.parse("a:i:2")
    right = ColoredDivisor.parse("b:j:1")
    both = ColoredDivisor.parse("a:i:2,b:j:1")
    assert ind_rank(p, both) == ind_rank(p, left) * ind_rank(p, right)


def test_ind_fiber_values_and_normalization():
    ctx = ctx_a1()
    tau = tau_point(ctx, [F(1, 3)])
    div = ColoredDivisor(
        [DivisorPoint("a", "1", 1), DivisorPoint("b", "1", 1)],
        {"a": F(0), "b": F(7)},
    )
    fiber = ind_fiber(ctx, Poset.chain(1), div, tau)
    assert fiber.rank == 4
    by_label = dict(zip(
        [tuple(sorted(m["p1"])) for m in fiber.maps], fiber.values
    ))
    assert by_label[(("a", 0), ("b", 0))] == 1  # empty subscheme line
    assert by_label[(("a", 1), ("b", 0))] == 1
    # the full member carries the evaluated pair kernel: (7 + 1/3) / 7
    assert by_label[(("a", 1), ("b", 1))] == F(22, 21)


def test_ind_fiber_rejects_collisions_and_multiplicity():
    ctx = ctx_a1()
    tau = tau_point(ctx, [F(1)])
    bad = ColoredDivisor(
        [DivisorPoint("a", "1", 1), DivisorPoint("b", "1", 1)],
        {"a": F(0), "b": F(1)},  # 0 + tau = 1 collides
    )
    with pytest.raises(NonGenericError):
        ind_fiber(ctx, Poset.chain(1), bad, tau)
    with pytest.raises(NonGenericError):
        ind_fiber(ctx, Poset.chain(1), ColoredDivisor.parse("a:i:2"), tau)
    # two colors on the rank-2 a2 torus: b = a + mu(h1) with mu(h1) = d1 = 1
    data = Path(__file__).resolve().parent / "data"
    q, weights, torus = load_quiver(str(data / "a2_rank2.json"))
    ctx2 = KernelContext(q, weights, torus, FormalGroupLaw.additive())
    bad2 = ColoredDivisor(
        [DivisorPoint("a", "2", 1), DivisorPoint("b", "1", 1)], {"a": F(0), "b": F(1)}
    )
    with pytest.raises(NonGenericError):
        ind_fiber(ctx2, Poset.chain(1), bad2, tau_point(ctx2, [F(1), F(2)]))


def test_factorization_same_color_points():
    ctx = ctx_a1()
    tau = tau_point(ctx, [F(1, 5)])
    rng = random.Random(21)
    for _ in range(6):
        a, b = rng.sample(range(0, 40), 2)
        left = ColoredDivisor([DivisorPoint("a", "1", 1)], {"a": F(a)})
        right = ColoredDivisor([DivisorPoint("b", "1", 1)], {"b": F(b)})
        from quivergrass.locality import PointConfig, is_m_tau_disjoint

        if not is_m_tau_disjoint(
            ctx, PointConfig({"1": [F(a)]}), PointConfig({"1": [F(b)]}), tau
        ):
            continue
        rep = generic_fiber_factorization(ctx, Poset.chain(1), left, right, tau)
        assert rep.ok


def test_factorization_distinct_colors():
    ctx = ctx_a2()
    tau = tau_point(ctx, [F(1, 7)])
    left = ColoredDivisor([DivisorPoint("a", "1", 1)], {"a": F(2)})
    right = ColoredDivisor([DivisorPoint("b", "2", 1)], {"b": F(11)})
    rep = generic_fiber_factorization(ctx, Poset.chain(1), left, right, tau)
    assert rep.ok


def test_factorization_empty_half():
    ctx = ctx_a1()
    tau = tau_point(ctx, [F(1)])
    left = ColoredDivisor([DivisorPoint("a", "1", 1)], {"a": F(3)})
    right = ColoredDivisor([], {})
    rep = generic_fiber_factorization(ctx, Poset.chain(1), left, right, tau)
    assert rep.ok


@pytest.mark.parametrize("quiver, law, colors", [
    ("a1", "additive", "111"),
    ("a1", "multiplicative", "1111"),
    ("a2", "additive", "121"),
    ("a2", "multiplicative", "1212"),
])
def test_factorization_members_of_three_or_more_points(quiver, law, colors):
    # Members of 3 or 4 points: each one's word kernel, evaluated whole,
    # must equal the product of its pair values read from the pair tables.
    q = stock_quiver(quiver)
    ctx = KernelContext(q, default_nakajima(q), DilationTorus.diagonal(),
                        getattr(FormalGroupLaw, law)())
    rng = random.Random(len(colors))
    ids = "abcd"[:len(colors)]
    checked = 0
    while checked < 3:
        tau = tau_point(ctx, [F(rng.randint(1, 9), rng.randint(1, 4))])
        coords = {pid: F(x) for pid, x in zip(ids, rng.sample(range(1, 60), len(ids)))}
        points = [DivisorPoint(pid, c, 1) for pid, c in zip(ids, colors)]
        left = ColoredDivisor(points[:2], {p.pid: coords[p.pid] for p in points[:2]})
        right = ColoredDivisor(points[2:], {p.pid: coords[p.pid] for p in points[2:]})
        try:
            fiber = ind_fiber(ctx, Poset.chain(1), ColoredDivisor(points, coords), tau)
        except NonGenericError:
            continue
        whole = member_value(ctx, points, coords, tau)
        assert whole == math.prod(fiber.pairs.values())
        for poset in (Poset.chain(1), Poset.antichain(2)):
            assert generic_fiber_factorization(ctx, poset, left, right, tau).ok
        checked += 1


def test_pair_value_matches_direct_formula():
    ctx = ctx_a1()
    tau = tau_point(ctx, [F(1, 2)])
    u = DivisorPoint("a", "1", 1)
    v = DivisorPoint("b", "1", 1)
    got = pair_value(ctx, u, v, {"a": F(1), "b": F(5)}, tau)
    assert got == (F(5) - F(1) + F(1, 2)) / (F(5) - F(1))
