import itertools
import random
from fractions import Fraction as F

import pytest

from quivergrass.symalg import (
    _MASK,
    _field_groups,
    _repack,
    MultiPoly,
    PoleError,
    RationalFunction,
    RegistryMismatchError,
    SymalgError,
    VarRegistry,
    aux_var,
    block_shuffles,
    rat_equal,
    rat_sum,
    symmetrize,
    x_var,
    d_var,
)


@pytest.fixture
def xyw():
    x = x_var(1, 0, "i", 1)
    y = x_var(1, 0, "i", 2)
    w = d_var(1)
    reg = VarRegistry([x, y, w])
    return reg, x, y, w


def lin(reg, coeffs, const=0):
    return MultiPoly.linear(reg, coeffs, const)


def test_poly_add_mul_examples(xyw):
    reg, x, y, w = xyw
    px = lin(reg, {x: 1, y: 1})
    qx = lin(reg, {x: 1, y: -1})
    assert px + qx == lin(reg, {x: 2})
    assert qx * px == (
        MultiPoly.var(reg, x) * MultiPoly.var(reg, x)
        - MultiPoly.var(reg, y) * MultiPoly.var(reg, y)
    )
    assert (MultiPoly.zero(reg) * px).is_zero()


def test_registry_mismatch(xyw):
    reg, x, y, w = xyw
    other = VarRegistry([x, y])
    with pytest.raises(RegistryMismatchError):
        lin(reg, {x: 1}) + MultiPoly.linear(other, {x: 1})
    with pytest.raises(RegistryMismatchError):
        lin(reg, {x: 1}) * MultiPoly.linear(other, {x: 1})


def test_ring_axioms_randomized(xyw):
    reg, x, y, w = xyw
    rng = random.Random(11)

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 5)):
            e = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 2))
            terms[e] = F(rng.randint(-6, 6))
        return MultiPoly(reg, terms)

    for _ in range(40):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_rat_equal_cross_multiplied(xyw):
    reg, x, y, w = xyw
    num = lin(reg, {x: 1}).pow(2) - lin(reg, {y: 1}).pow(2)
    den = lin(reg, {x: 1, y: -1})
    a = RationalFunction(reg, 1, [(num, 1), (den, -1)])
    b = RationalFunction.from_poly(lin(reg, {x: 1, y: 1}))
    assert rat_equal(a, b)
    c = RationalFunction(reg, 1, [(lin(reg, {x: 1}, 0) + MultiPoly.var(reg, w), 1),
                                  (lin(reg, {x: 1}), -1)])
    d = RationalFunction(reg, 1, [(lin(reg, {x: 1}) - MultiPoly.var(reg, w), 1),
                                  (lin(reg, {x: 1}), -1)])
    assert not rat_equal(c, d)


def test_rat_equal_factored_unit_cancellation(xyw):
    reg, x, y, w = xyw
    f = lin(reg, {x: 1, y: -1})
    a = RationalFunction(reg, F(3), [(f, 1), (f, -1)])
    b = RationalFunction(reg, F(3))
    assert rat_equal(a, b)


def test_rat_equal_is_equivalence(xyw):
    reg, x, y, w = xyw
    rng = random.Random(5)
    polys = [lin(reg, {x: 1, y: rng.randint(-2, 2)}, rng.randint(-2, 2)) for _ in range(4)]
    fns = [RationalFunction(reg, 1, [(p, 1), (q, -1)]) for p in polys for q in polys]
    for f in fns:
        assert rat_equal(f, f)
    # common-factor invariance
    g = RationalFunction(reg, 1, [(polys[0], 1), (polys[1], -1)])
    h = g * RationalFunction(reg, 1, [(polys[2], 1), (polys[2], -1)])
    assert rat_equal(g, h)


def test_evaluate_examples(xyw):
    reg, x, y, w = xyw
    f = RationalFunction(
        reg, 1,
        [(lin(reg, {x: 1}) + MultiPoly.var(reg, w), 1), (lin(reg, {x: 1}), -1)],
    )
    assert f.evaluate({x: F(5), y: F(0), w: F(1)}) == F(6, 5)
    with pytest.raises(PoleError):
        f.evaluate({x: F(0), y: F(0), w: F(1)})
    two = RationalFunction(reg, 2)
    assert two.evaluate({x: F(9), y: F(3), w: F(7)}) == 2


def test_symmetrize_antisymmetric_vanishes(xyw):
    reg, x, y, w = xyw
    f = RationalFunction.from_poly(lin(reg, {x: 1, y: -1}))
    s = symmetrize(f, [[[x], [y]]])
    assert s.is_zero()


def shuffle_sum_oracle(values, omega, terms):
    """Plain-Fraction evaluation of a sum over explicit coordinate orders."""
    total = F(0)
    for order in terms:
        total += order(values, omega)
    return total


def test_symmetrize_two_term_kernel(xyw):
    reg, x, y, w = xyw
    # oracle first: (y-x+w)/(y-x) + (x-y+w)/(x-y) at random points is 2
    rng = random.Random(3)
    for _ in range(10):
        a, b, t = F(rng.randint(1, 60)), F(rng.randint(70, 160)), F(rng.randint(1, 9))
        val = (b - a + t) / (b - a) + (a - b + t) / (a - b)
        assert val == 2
    num = lin(reg, {y: 1, x: -1}) + MultiPoly.var(reg, w)
    den = lin(reg, {y: 1, x: -1})
    f = RationalFunction(reg, 1, [(num, 1), (den, -1)])
    s = symmetrize(f, [[[x], [y]]])
    assert s.is_scalar() and s.scalar_value() == 2


def test_symmetrize_s3_kernel():
    xs = [x_var(1, 0, "i", k) for k in (1, 2, 3)]
    w = d_var(1)
    reg = VarRegistry(xs + [w])
    # oracle: six-term sum evaluates to 6 at random points
    rng = random.Random(7)
    import itertools

    for _ in range(5):
        vals = {}
        pts = rng.sample(range(1, 500), 3)
        t = F(rng.randint(1, 7))
        total = F(0)
        for perm in itertools.permutations(pts):
            term = F(1)
            for i in range(3):
                for j in range(i + 1, 3):
                    term *= F(perm[j] - perm[i] + t) / F(perm[j] - perm[i])
            total += term
        assert total == 6
    f = RationalFunction.one(reg)
    for i in range(3):
        for j in range(i + 1, 3):
            num = MultiPoly.linear(reg, {xs[j]: 1, xs[i]: -1}) + MultiPoly.var(reg, w)
            den = MultiPoly.linear(reg, {xs[j]: 1, xs[i]: -1})
            f = f * RationalFunction(reg, 1, [(num, 1), (den, -1)])
    s = symmetrize(f, [[[v] for v in xs]])
    assert s.is_scalar() and s.scalar_value() == 6


def test_symmetrize_is_linear(xyw):
    reg, x, y, w = xyw
    f = RationalFunction.from_poly(lin(reg, {x: 2}, 1))
    g = RationalFunction.from_poly(lin(reg, {y: 1}))
    blocks = [[[x], [y]]]
    lhs = symmetrize(rat_sum([f, g]), blocks)
    rhs = rat_sum([symmetrize(f, blocks), symmetrize(g, blocks)])
    assert rat_equal(lhs, rhs)


def test_symmetrize_output_invariance(xyw):
    reg, x, y, w = xyw
    f = RationalFunction.from_poly(lin(reg, {x: 3, y: 1}, 2))
    s = symmetrize(f, [[[x], [y]]])
    swapped = s.rename([1, 0, 2], reg)
    assert rat_equal(s, swapped)


def test_symmetrize_matches_pointwise_sum(xyw):
    reg, x, y, w = xyw
    f = RationalFunction(
        reg, 1,
        [(lin(reg, {x: 1, y: 2}, 1), 1), (lin(reg, {x: 1, y: -1}, 5), -1)],
    )
    s = symmetrize(f, [[[x], [y]]])
    pt = {x: F(2), y: F(9), w: F(0)}
    swapped = {x: F(9), y: F(2), w: F(0)}
    assert s.evaluate(pt) == f.evaluate(pt) + f.evaluate(swapped)


def test_blocks_must_not_overlap(xyw):
    reg, x, y, w = xyw
    with pytest.raises(SymalgError):
        block_shuffles([[x, y], [y]])


def test_cancelled_divides_exactly(xyw):
    reg, x, y, w = xyw
    num = lin(reg, {x: 1}).pow(2) - lin(reg, {y: 1}).pow(2)
    den = lin(reg, {x: 1, y: -1})
    f = RationalFunction(reg, 1, [(num, 1), (den, -1)]).cancelled()
    assert all(e > 0 for _, e in f.factors)
    assert rat_equal(f, RationalFunction.from_poly(lin(reg, {x: 1, y: 1})))


def test_canonical_factor_form(xyw):
    # content 1, positive leading coefficient; the shed scalar lands in the unit
    reg, x, y, w = xyw
    p = lin(reg, {x: -2, y: 2})
    f = RationalFunction.from_poly(p)
    ((prim, e),) = f.factors
    assert e == 1
    assert f.unit == 2
    assert prim == lin(reg, {x: -1, y: 1})
    q = lin(reg, {x: 2, y: -2})
    g = RationalFunction.from_poly(q)
    assert g.unit == -2 and g.factors == f.factors


def test_trusted_arithmetic_matches_public_constructor(xyw):
    # *, inverse and pow merge existing factors without normalizing them
    # again; they must give exactly what the normalizing constructor gives
    # on the same raw data.
    reg, x, y, w = xyw
    rng = random.Random(23)
    base = [lin(reg, {x: 1, y: -1}), lin(reg, {x: 1}, 1), MultiPoly.var(reg, w),
            lin(reg, {x: 2, y: 1, w: -1}) * lin(reg, {y: 1}, -3)]

    def raw_factor():
        r = rng.random()
        if r < 0.1:
            p = MultiPoly.const(reg, F(rng.choice([-4, -1, 2, 3]), rng.randint(1, 3)))
        elif r < 0.15:
            return MultiPoly.zero(reg), rng.randint(1, 2)
        else:
            # a rational multiple of a shared polynomial, so factors repeat
            # across operands up to scalars and can cancel
            p = rng.choice(base).scale(F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)))
        return p, rng.choice([-2, -1, 1, 2, 3])

    def raw():
        unit = F(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        return unit, [raw_factor() for _ in range(rng.randint(0, 5))]

    for _ in range(200):
        (ua, fa), (ub, fb) = raw(), raw()
        a, b = RationalFunction(reg, ua, fa), RationalFunction(reg, ub, fb)
        checks = [(a * b, RationalFunction(reg, ua * ub, fa + fb))]
        if not a.is_zero():
            checks.append((a.inverse(), RationalFunction(reg, 1 / ua, [(p, -e) for p, e in fa])))
        for n in range(-2 if not a.is_zero() else 1, 4):
            checks.append((a.pow(n), RationalFunction(reg, ua ** n, [(p, e * n) for p, e in fa])))
        for got, want in checks:
            assert got == want
            assert type(got.unit) is F
            assert RationalFunction(reg, got.unit, got.factors) == got


@pytest.fixture
def ab():
    a, b = aux_var("a"), aux_var("b")
    return VarRegistry([a, b]), a, b


def test_power_past_the_packing_width_raises(ab):
    reg, a, b = ab
    with pytest.raises(SymalgError):
        MultiPoly.var(reg, a).pow(65536)


def test_monomial_past_the_packing_width_raises(ab):
    reg, a, b = ab
    with pytest.raises(SymalgError):
        MultiPoly.monomial(reg, {a: 70000})
    with pytest.raises(SymalgError):
        reg.pack((70000, 0))
    with pytest.raises(SymalgError):  # a third field would overlap the degree field
        reg.pack((1, 0, 1))


@pytest.mark.parametrize("position", [0, 1])
def test_product_past_the_packing_width_raises(ab, position):
    # degrees 40000 + 30000 pass the bound; in a alone its field would carry
    reg, a, b = ab
    big = MultiPoly.monomial(reg, {a: 40000})
    other = MultiPoly.monomial(reg, {reg.variables[position]: 30000})
    with pytest.raises(SymalgError):
        big * other
    with pytest.raises(SymalgError):
        (big + MultiPoly.const(reg, 1)) * (other + MultiPoly.var(reg, b))


def test_degree_bound_is_inclusive(ab):
    reg, a, b = ab
    top = MultiPoly.var(reg, a).pow(_MASK)
    assert top == MultiPoly.monomial(reg, {a: _MASK})
    assert top.degree() == _MASK and repr(top) == f"a^{_MASK}"
    assert reg.unpack(top.leading()[0]) == (_MASK, 0)
    assert (top * MultiPoly.const(reg, 3)).degree() == _MASK


@pytest.mark.parametrize("nvars", [1, 2, 3])
def test_divides_and_lcm_match_the_exponent_tuples(nvars):
    # every field counts, the last one (next to the degree field) too
    reg = VarRegistry([aux_var(f"v{i}", i) for i in range(nvars)])
    monomials = list(itertools.product(range(3), repeat=nvars))
    for a in monomials:
        for b in monomials:
            ka, kb = reg.pack(a), reg.pack(b)
            assert reg.divides(ka, kb) == all(x <= y for x, y in zip(a, b)), (a, b)
            assert reg.lcm(ka, kb) == reg.pack([max(x, y) for x, y in zip(a, b)]), (a, b)


def test_lcm_past_the_packing_width_raises(ab):
    reg, a, b = ab
    assert reg.lcm(reg.pack((40000, 0)), reg.pack((30000, 0))) == reg.pack((40000, 0))
    with pytest.raises(SymalgError):
        reg.lcm(reg.pack((40000, 0)), reg.pack((0, 30000)))


def divide_exact_linear_scan(num, den):
    """Test oracle: long division that finds each leading remainder term by a
    linear scan, on unpacked exponent tuples in the graded order (total
    degree, then the last variable most significant)."""

    def order(e):
        return sum(e), e[::-1]

    dterms = dict(den.items_unpacked())
    de = max(dterms, key=order)
    dc = dterms[de]
    rem = dict(num.items_unpacked())
    q = {}
    while rem:
        e = max(rem, key=order)
        c = rem[e]
        if any(x < y for x, y in zip(e, de)):
            return None
        t = tuple(x - y for x, y in zip(e, de))
        tc = F(c) / F(dc)
        q[t] = q.get(t, 0) + tc
        for fe, fc in dterms.items():
            ne = tuple(x + y for x, y in zip(t, fe))
            s = rem.get(ne, F(0)) - tc * fc
            if s:
                rem[ne] = s
            else:
                rem.pop(ne, None)
    return MultiPoly(num.registry, q)


def test_heap_division_matches_linear_scan():
    rng = random.Random(31)
    regs = [VarRegistry([aux_var(f"v{i}") for i in range(n)]) for n in (1, 2, 3, 4)]

    def rand_poly(reg, max_terms, max_exp):
        n = len(reg)
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            e = tuple(rng.randint(0, max_exp) for _ in range(n))
            terms[e] = F(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
        return MultiPoly(reg, terms)

    def rand_divisor(reg):
        r = rng.random()
        if r < 0.15:
            return MultiPoly.const(reg, F(rng.choice([-3, 2, 5]), rng.randint(1, 4)))
        if r < 0.3:
            exps = {v: rng.randint(0, 3) for v in reg.variables}
            exps[rng.choice(reg.variables)] += 1
            return MultiPoly.monomial(reg, exps, F(rng.choice([-2, 1, 3])))
        return rand_poly(reg, 4, 2)

    kinds = {"multiple": 0, "non-multiple": 0}
    for _ in range(300):
        reg = rng.choice(regs)
        a, b = rand_poly(reg, 6, 3), rand_divisor(reg)
        if b.is_zero() or a.is_zero():
            continue
        num = a * b
        got = num.divide_exact(b)
        assert got == divide_exact_linear_scan(num, b) == a
        kinds["multiple"] += 1
        if b.is_constant():
            continue
        # b has positive degree, so it cannot divide ab + c for a constant c != 0
        off = num + MultiPoly.const(reg, rng.choice([-1, 1, F(1, 2)]))
        assert off.divide_exact(b) is None
        assert divide_exact_linear_scan(off, b) is None
        kinds["non-multiple"] += 1
        # and a random perturbation: both sides agree whatever it gives
        off = num + rand_poly(reg, 3, 3)
        assert off.divide_exact(b) == divide_exact_linear_scan(off, b)
    assert min(kinds.values()) >= 100


def test_primitive_returns_an_already_primitive_polynomial_itself(xyw):
    reg, x, y, w = xyw
    p = lin(reg, {x: -2, y: 3}, 1) * lin(reg, {w: 1}, -1)  # leading term 3*y*w
    unit, prim = p.primitive()
    assert unit == 1 and prim is p
    for scale in (F(-2, 3), F(5), F(-1)):
        unit, prim = p.scale(scale).primitive()
        assert unit == scale and prim == p


def normalizing_transport(f, positions, target):
    """The transport sent through the public constructor: primitive parts,
    merge and sort all over again.  ``rename`` must agree with it."""
    groups = _field_groups(positions, f.registry, target)
    return RationalFunction(target, f.unit, _repack(f.factors, groups, target))


def assert_same_transport(f, positions, target):
    got = f.rename(positions, target)
    want = normalizing_transport(f, positions, target)
    assert got == want and repr(got) == repr(want)
    assert [p for p, _ in got.factors] == [p for p, _ in want.factors]


def test_embed_matches_rename_and_needs_increasing_positions(xyw):
    # rename takes any distinct in-range positions; increasing ones store
    # the factors as they come, others fix signs and sort again
    reg, x, y, w = xyw
    a, b = aux_var("a", 1), aux_var("b", 2)
    small = VarRegistry([a, b])
    f = RationalFunction(small, F(-3, 2), [(lin(small, {a: 1, b: -2}), 3),
                                           (lin(small, {b: 1}, 1), -1),
                                           (lin(small, {a: 1, b: 1}, -1), 1)])
    for positions in ([0, 2], [2, 0], [1, 0]):
        assert_same_transport(f, positions, reg)
    flipped = f.rename([2, 0], reg)  # (2b - a)^3 becomes (2x - w)^3: a sign flips
    assert flipped.unit == -f.unit
    for positions in ([1, 1], [0], [1, 3], [-1, 0], [0, 1, 2]):
        with pytest.raises(SymalgError):
            f.rename(positions, reg)


def random_function(rng, registry):
    factors = []
    for _ in range(rng.randint(0, 4)):
        terms = {
            tuple(rng.randint(0, 2) for _ in registry.variables): F(rng.randint(-4, 4),
                                                                    rng.randint(1, 3))
            for _ in range(rng.randint(1, 4))
        }
        poly = MultiPoly(registry, terms)
        if not poly.is_zero():
            factors.append((poly, rng.choice([-2, -1, 1, 2, 3])))
    return RationalFunction(registry, F(rng.randint(-5, 5), rng.randint(1, 4)), factors)


def test_embed_equals_the_merged_and_sorted_transport():
    # increasing positions store the transported factors as they come and
    # other injective positions only fix signs and sort; both must equal
    # the transport through the public constructor, factor order included
    rng = random.Random(7)
    small = VarRegistry([aux_var(n, i) for i, n in enumerate("abc", start=1)])
    big = VarRegistry([aux_var(f"t{i}", i) for i in range(1, 7)])
    increasing = 0
    for _ in range(400):
        f = random_function(rng, small)
        positions = rng.sample(range(len(big)), len(small))
        if rng.random() < 0.5:
            positions.sort()
        increasing += positions == sorted(positions)
        assert_same_transport(f, positions, big)
    assert 100 < increasing < 300
    for _ in range(100):
        f = random_function(rng, small)
        assert_same_transport(f, rng.sample(range(len(small)), len(small)), small)


def test_first_powers_are_the_operands_themselves(xyw):
    reg, x, y, w = xyw
    p = lin(reg, {x: 2, y: -1}, 3)
    f = RationalFunction(reg, F(-3, 4), [(p, 2), (lin(reg, {w: 1}, 1), -1)])
    assert p.pow(1) is p and f.pow(1) is f
    zero = RationalFunction.zero(reg)
    assert zero.pow(1) is zero
    assert p.pow(0) == MultiPoly.const(reg, 1) and f.pow(0) == RationalFunction.one(reg)
    assert p.pow(3) == p * p * p and f.pow(2) == f * f


def test_one_representative_symmetrize_is_cancelled(xyw):
    reg, x, y, w = xyw
    num = lin(reg, {x: 1, y: -1}) * lin(reg, {w: 1}, 2)
    f = RationalFunction(reg, F(5, 3), [(num, 1), (lin(reg, {x: 1, y: -1}), -1)])
    once = symmetrize(f, [[[x, y]]])  # one block: one representative
    twice = once.cancelled()
    assert once == twice and repr(once) == repr(twice)
    assert once == f.cancelled() and not once.denominator_factors()
