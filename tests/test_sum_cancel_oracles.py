"""Differential tests of the integer sum/cancel path against the Fraction
formulas it replaced.

The oracles below are the earlier implementations, kept only here: they
push the unit into an expanded numerator and divide every coefficient by
a Fraction unit.  The library keeps the unit outside and every expanded
polynomial on integers; both must give the same functions, equal under
``==`` and printed the same.
"""

import itertools
import random
from fractions import Fraction as F
from math import gcd

import pytest

from quivergrass import checks, shuffle, symalg
from quivergrass.checks import _words_up_to, make_context, shuffle_constants_suite, standard_laws
from quivergrass.fgl import FormalGroupLaw
from quivergrass.quiver import DilationTorus, default_nakajima, stock_quiver
from quivergrass.symalg import (
    MultiPoly,
    RationalFunction,
    VarRegistry,
    _coeff,
    _field_groups,
    _repack,
    _representatives,
    aux_var,
    block_shuffles,
    d_var,
    rat_equal,
    rat_sum,
    symmetrize,
    x_var,
)
from quivergrass.thom import KernelContext

# -- oracles ---------------------------------------------------------------


def primitive_oracle(p):
    """(unit, primitive part) with every coefficient divided by a Fraction unit."""
    if p.is_zero():
        return F(0), p
    den_lcm = 1
    for c in p.terms.values():
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    num_gcd = 0
    for c in p.terms.values():
        num_gcd = gcd(num_gcd, abs(c.numerator * (den_lcm // c.denominator)))
    _, lead = p.leading()
    if num_gcd == den_lcm == 1 and lead > 0:
        return F(1), p
    unit = F(num_gcd, den_lcm) if lead > 0 else F(-num_gcd, den_lcm)
    return unit, MultiPoly(p.registry, _packed={k: _coeff(c / unit) for k, c in p.terms.items()})


def numerator_oracle(f):
    """The unit times the positive factors, expanded from a constant."""
    num = MultiPoly.const(f.registry, f.unit)
    for p, e in f.factors:
        if e > 0:
            num = num * p.pow(e)
    return num


def cancelled_oracle(f):
    """Cancellation by exact division of a numerator that carries the unit."""
    if f.unit == 0:
        return f
    nums = [(p, e) for p, e in f.factors if e > 0]
    dens = [(p, e) for p, e in f.factors if e < 0]
    if not nums or not dens:
        return f
    num = numerator_oracle(f)
    out_dens = []
    for p, e in dens:
        k = -e
        while k > 0:
            q = num.divide_exact(p)
            if q is None:
                break
            num = q
            k -= 1
        if k:
            out_dens.append((p, -k))
    return RationalFunction(f.registry, 1, [(num, 1)] + out_dens)


def rat_sum_oracle(terms):
    """Sum with each unit pushed into its numerator and a copied running total."""
    registry0 = terms[0].registry
    terms = [t for t in terms if t.unit != 0]
    if not terms:
        return RationalFunction.zero(registry0)
    registry = terms[0].registry
    if len(terms) == 1:
        return terms[0]
    common = {}
    for t in terms:
        for p, e in t.factors:
            if e < 0:
                common[p] = max(common.get(p, 0), -e)
    total = MultiPoly.zero(registry)
    for t in terms:
        num = MultiPoly.const(registry, t.unit)
        dens = {p: -e for p, e in t.factors if e < 0}
        for p, e in t.factors:
            if e > 0:
                num = num * p.pow(e)
        for p, need in common.items():
            deficit = need - dens.get(p, 0)
            if deficit:
                num = num * p.pow(deficit)
        total = total + num
    result = RationalFunction(registry, 1, [(total, 1)] + [(p, -e) for p, e in common.items()])
    return cancelled_oracle(result)


def renamed_terms(f, partition, transport):
    """``transport(f, positions)`` for every shuffle representative."""
    per_color = [block_shuffles(blocks) for blocks in partition]
    terms = []
    for combo in itertools.product(*per_color):
        m = {}
        for part in combo:
            m.update(part)
        terms.append(transport(f, [f.registry.index(m.get(v, v)) for v in f.registry.variables]))
    return terms


def symmetrize_oracle(f, partition):
    """The sum over shuffle representatives, as ``rat_sum_oracle`` forms it."""
    # the normalizing transport, through the public constructor
    def transport(f, positions):
        groups = _field_groups(positions, f.registry, f.registry)
        return RationalFunction(f.registry, f.unit, _repack(f.factors, groups, f.registry))

    return rat_sum_oracle(renamed_terms(f, partition, transport))


def symmetrize_by_rat_sum(f, partition):
    """The flow the orbit path replaced: every representative renamed, then
    one ``rat_sum`` of them all."""
    terms = renamed_terms(f, partition, lambda f, positions: f.rename(positions, f.registry))
    return terms[0].cancelled() if len(terms) == 1 else rat_sum(terms)


def same(a, b):
    return a == b and repr(a) == repr(b)


# -- random inputs ---------------------------------------------------------

REG = VarRegistry([aux_var(f"v{i}") for i in range(3)])


def random_coeff(rng, fractions):
    c = 0
    while not c:
        c = F(rng.randint(-9, 9), rng.randint(1, 6)) if fractions else rng.randint(-9, 9)
    return c


def random_poly(rng, fractions=False, content=1):
    """1-4 terms of degree <= 2; ``content`` scales every coefficient."""
    exps = rng.sample(list(itertools.product(range(3), repeat=3)), rng.randint(1, 4))
    return MultiPoly(REG, {e: content * random_coeff(rng, fractions) for e in exps})


def random_unit(rng):
    return random_coeff(rng, fractions=rng.random() < 0.6)


def random_function(rng, pool):
    """A unit times powers of pool factors, exponents in [-2, 2], plus a
    random numerator polynomial half of the time."""
    factors = [(p, rng.randint(-2, 2)) for p in rng.sample(pool, rng.randint(1, len(pool)))]
    if rng.random() < 0.5:
        factors.append((random_poly(rng, rng.random() < 0.5, rng.choice([1, 2, 6])), 1))
    return RationalFunction(REG, random_unit(rng), factors)


def factor_pool(rng):
    v0, v1, v2 = REG.variables
    pool = [
        MultiPoly.linear(REG, {v0: 1, v1: -1}),
        MultiPoly.linear(REG, {v1: 1, v2: -1}, rng.randint(1, 3)),
        MultiPoly.linear(REG, {v0: 2, v2: 1}),
    ]
    return pool + [random_poly(rng)]


# -- tests -----------------------------------------------------------------


@pytest.mark.parametrize("fractions", [False, True])
def test_primitive_matches_the_fraction_unit_formula(fractions):
    rng = random.Random(41 + fractions)
    kinds = {"negative lead": 0, "content > 1": 0, "already primitive": 0}
    for _ in range(400):
        p = random_poly(rng, fractions, rng.choice([1, 1, 2, 3, 12]))
        if rng.random() < 0.3:
            p = -p
        got, want = p.primitive(), primitive_oracle(p)
        assert got[0] == want[0] and same(got[1], want[1])
        assert all(type(c) is int for c in got[1].terms.values())
        kinds["negative lead"] += p.leading()[1] < 0
        kinds["content > 1"] += abs(got[0]) > 1
        kinds["already primitive"] += got[0] == 1
    assert min(kinds.values()) >= 20


def test_cancelled_matches_the_unit_in_numerator_formula():
    rng = random.Random(43)
    divided = 0
    for _ in range(300):
        pool = factor_pool(rng)
        a, b = rng.sample(pool, 2)
        # A numerator factor that some denominators divide, and one that
        # they do not.
        num = a * b.pow(rng.randint(1, 2)) * random_poly(rng, content=rng.choice([1, 2]))
        f = RationalFunction(
            REG, random_unit(rng), [(num, 1), (b, -rng.randint(1, 3)), (pool[3], -1)]
        )
        got, want = f.cancelled(), cancelled_oracle(f)
        assert same(got, want)
        divided += got.denominator_factors() != f.denominator_factors()
    assert divided >= 100


def test_rat_sum_matches_the_unit_in_numerator_formula():
    rng = random.Random(47)
    zero_sums = single = 0
    for trial in range(250):
        pool = factor_pool(rng)
        terms = [random_function(rng, pool) for _ in range(rng.randint(1, 4))]
        if trial % 5 == 0:  # terms that cancel to zero
            terms = terms + [RationalFunction(REG, -t.unit, t.factors) for t in terms]
            rng.shuffle(terms)
        if trial % 7 == 0:  # a zero term beside a single nonzero one
            terms = [terms[0], RationalFunction.zero(REG)]
        got, want = rat_sum(terms), rat_sum_oracle(terms)
        assert same(got, want)
        zero_sums += got.is_zero()
        single += len([t for t in terms if not t.is_zero()]) == 1
    assert zero_sums >= 40 and single >= 40


@pytest.mark.parametrize("qname", ["a1", "a2"])
@pytest.mark.parametrize("law", [FormalGroupLaw.additive, FormalGroupLaw.multiplicative])
def test_generator_word_products_match_the_old_sum_and_cancel(monkeypatch, qname, law):
    """Every symmetrized sum of AC4's generator words (total weight <= 4)
    against the old flow: the Fraction-unit sum, then a second cancellation."""
    calls = []

    def checked(f, partition):
        got = symmetrize(f, partition)
        want = cancelled_oracle(symmetrize_oracle(f, partition))
        assert same(got, want)
        calls.append(len(list(itertools.product(*[block_shuffles(b) for b in partition]))))
        return got

    monkeypatch.setattr(shuffle, "symmetrize", checked)
    q = stock_quiver(qname)
    ctx = KernelContext(q, default_nakajima(q), DilationTorus.diagonal(), law())
    for word in _words_up_to(q, 4):
        assert shuffle.word_product(ctx, word).polynomial
    assert 1 in calls and max(calls) > 1


# -- the orbit path of symmetrize --------------------------------------------


@pytest.fixture
def sum_paths(monkeypatch):
    """``symmetrize`` and a count of its multi-representative sums by path:
    the orbit path, or the fallback, where ``_orbit_sum`` returns None and
    ``rat_sum`` sums the renamed copies."""
    fallbacks = []
    real = symalg._orbit_sum

    def spy(f, reps):
        got = real(f, reps)
        if got is None:
            fallbacks.append(len(reps))
        return got

    monkeypatch.setattr(symalg, "_orbit_sum", spy)
    paths = {"orbit": 0, "fallback": 0}

    def summed(f, partition):
        before = len(fallbacks)
        got = symmetrize(f, partition)
        if len(_representatives(f.registry, partition)) > 1:
            paths["fallback" if len(fallbacks) > before else "orbit"] += 1
        return got

    return summed, paths


def ac4_triple(qname, weight, degree):
    """One AC4 associativity triple of the stratum (quiver, total weight,
    monomial degree): words of lengths 1, 1, 1 or 1, 2, 1; on a2 the
    letters 1, 2, 1, the series-law division triple (1, 22, 1) for weight
    4 and degree 0, and (2, 11, 1) for weight 4 and degree 1; for degree 1
    the exponent 1 on the first letter."""
    lengths = (1, 1, 1) if weight == 3 else (1, 2, 1)
    if qname == "a1":
        letters = "1" * weight
    else:
        letters = "121" if weight == 3 else "1221" if degree == 0 else "2111"
    exps = (1,) * degree + (0,) * (weight - degree)
    triple, at = [], 0
    for n in lengths:
        triple.append((tuple(letters[at:at + n]), exps[at:at + n]))
        at += n
    return triple


@pytest.mark.parametrize("lname", ["additive", "multiplicative", "series4"])
def test_orbit_path_matches_the_rename_and_sum_flow(monkeypatch, sum_paths, lname):
    """Every symmetrized sum of AC4's generator words, of the shuffle
    constants and of one associativity triple per (quiver, weight, degree)
    stratum, against renaming every representative and one ``rat_sum``.
    Under the series law the a2 words stop at weight 3: the sixteen of
    weight 4 take about 18 s with the oracle; its a2 sums of weight 4 are
    the two triples of weight 4."""
    summed, paths = sum_paths

    def checked(f, partition):
        got = summed(f, partition)
        assert same(got, symmetrize_by_rat_sum(f, partition))
        return got

    monkeypatch.setattr(shuffle, "symmetrize", checked)
    law = dict(standard_laws())[lname]
    for qname in ("a1", "a2"):
        ctx = make_context(stock_quiver(qname), law)
        for word in _words_up_to(ctx.quiver, 3 if (lname, qname) == ("series4", "a2") else 4):
            shuffle.word_product(ctx, word)
        for weight in (3, 4):
            for degree in (0, 1):
                a, b, c = (shuffle.monomial_element(ctx, word, exps)
                           for word, exps in ac4_triple(qname, weight, degree))
                left = shuffle.shuffle_product(ctx, shuffle.shuffle_product(ctx, a, b), c)
                right = shuffle.shuffle_product(ctx, a, shuffle.shuffle_product(ctx, b, c))
                assert rat_equal(left.fn, right.fn)
    if lname == "additive":
        assert all(r.ok for r in shuffle_constants_suite())
    assert paths["orbit"] > paths["fallback"]


def test_two_color_orbits_with_unequal_blocks(sum_paths):
    """Blocks {x1}, {x2, x3} and {y1}, {y2}.  A Vandermonde denominator is
    closed under every representative, so the orbit path sums it; a generic
    linear denominator is not closed under the coset representatives
    (they are no group), so ``rat_sum`` falls back to
    summing the renamed copies."""
    summed, paths = sum_paths
    rng = random.Random(53)
    xs = [x_var(1, 0, "1", i) for i in (1, 2, 3)]
    ys = [x_var(1, 1, "2", j) for j in (1, 2)]
    d = d_var(1)
    reg = VarRegistry(xs + ys + [d])
    partition = [[[xs[0]], xs[1:]], [[ys[0]], [ys[1]]]]
    diagonals = [MultiPoly.linear(reg, {a: 1, b: -1})
                 for vs in (xs, ys) for a, b in itertools.combinations(vs, 2)]
    for trial in range(40):
        closed = trial % 2 == 0
        numerator = MultiPoly(reg, {
            tuple(rng.randint(0, 1) for _ in range(len(reg))): rng.randint(1, 5)
            for _ in range(rng.randint(1, 3))
        })
        if closed:
            kx, ky = rng.randint(1, 2), rng.randint(1, 2)
            dens = [(p, -kx) for p in diagonals[:3]] + [(diagonals[3], -ky)]
        else:
            # distinct positive x coefficients and a positive dilation term:
            # no representative maps the orbit of this form to itself
            coeffs = dict(zip(xs, rng.sample(range(1, 10), 3)))
            coeffs.update({y: rng.choice([-3, -1, 2, 5]) for y in ys})
            coeffs[d] = rng.randint(1, 4)
            dens = [(MultiPoly.linear(reg, coeffs), -1), (rng.choice(diagonals), -1)]
        f = RationalFunction(reg, random_unit(rng), [(numerator, 1)] + dens)
        taken = "orbit" if closed else "fallback"
        before = paths[taken]
        got = summed(f, partition)
        assert same(got, symmetrize_by_rat_sum(f, partition))
        assert paths[taken] == before + 1, (trial, f)
    assert paths == {"orbit": 20, "fallback": 20}


def test_an_antisymmetric_orbit_sums_to_zero(sum_paths):
    """Over S3 on singleton blocks every transposition flips the sign of the
    Vandermonde V = (x1 - x2)(x1 - x3)(x2 - x3), so the sum of m / V is the
    alternating sum of m's images over V: 0 for m = x1 x2 (two equal
    exponents), and V / V = 1 for m = x1^2 x2."""
    summed, paths = sum_paths
    xs = [x_var(1, 0, "1", i) for i in (1, 2, 3)]
    reg = VarRegistry(xs)
    vandermonde = [(MultiPoly.linear(reg, {a: 1, b: -1}), -1)
                   for a, b in itertools.combinations(xs, 2)]
    partition = [[[x] for x in xs]]
    for exps, want in (({xs[0]: 1, xs[1]: 1}, 0), ({xs[0]: 2, xs[1]: 1}, F(3, 2))):
        f = RationalFunction(reg, F(3, 2), [(MultiPoly.monomial(reg, exps), 1)] + vandermonde)
        got = summed(f, partition)
        assert got.is_scalar() and got.scalar_value() == want
        assert same(got, symmetrize_by_rat_sum(f, partition))
    assert paths == {"orbit": 2, "fallback": 0}


# -- one normal form -----------------------------------------------------------


@pytest.fixture
def constructor_spy(monkeypatch):
    """Counts of ``cancelled`` calls (and those that divide), of sums, and
    of public-constructor calls made inside either; ``rat_sum`` covers
    ``symmetrize``, ``+`` and ``-``."""
    counts = {"cancelled": 0, "divided": 0, "sums": 0, "constructed inside": 0}
    depth = [0]
    real_init, real_cancelled, real_sum = RationalFunction.__init__, RationalFunction.cancelled, symalg.rat_sum

    def init(self, *args, **kwargs):
        counts["constructed inside"] += depth[0] > 0
        real_init(self, *args, **kwargs)

    def inside(key, real):
        def run(*args):
            counts[key] += 1
            depth[0] += 1
            try:
                return real(*args)
            finally:
                depth[0] -= 1
        return run

    def cancelled(f):
        got = inside("cancelled", real_cancelled)(f)
        counts["divided"] += got.factors != f.factors
        return got

    monkeypatch.setattr(RationalFunction, "__init__", init)
    monkeypatch.setattr(RationalFunction, "cancelled", cancelled)
    monkeypatch.setattr(symalg, "rat_sum", inside("sums", real_sum))
    return counts


def test_cancelled_and_sums_never_call_the_public_constructor(constructor_spy):
    """One AC4 pass (shuffle constants, ideal words, 20 associativity
    triples per law), then seeded ``cancelled`` calls and differences: all
    build through ``_trusted``."""
    ok = [r.ok for r in shuffle_constants_suite()]
    ok += [r.ok for r in checks.ideal_suite(seed=0, max_total=4)]
    ok += [r.ok for r in checks.assoc_suite(seed=0, triples=20)]
    assert all(ok)
    ac4 = dict(constructor_spy)
    rng = random.Random(59)
    for _ in range(100):
        pool = factor_pool(rng)
        f, g = random_function(rng, pool), random_function(rng, pool)
        f.cancelled()
        f - g
        zero = f - f
        zero - zero  # a sum of zero terms only
    assert ac4["cancelled"] >= 300 and ac4["divided"] >= 30 and ac4["sums"] >= 300
    assert constructor_spy["constructed inside"] == 0


def test_symmetrize_over_an_empty_partition_is_cancelled():
    rng = random.Random(61)
    divided = 0
    for _ in range(200):
        f = random_function(rng, factor_pool(rng))
        got = symmetrize(f, [])
        assert same(got, f.cancelled())
        divided += got.factors != f.factors
    assert divided >= 20


def test_cancelled_and_sums_divide_in_the_factor_order():
    """a = v1 - v0 comes before b = v1^2 - v0^2 = a (v1 + v0) in the factor
    order, so v2 b / (a b) keeps b: dividing by b first would keep a."""
    v0, v1, v2 = (MultiPoly.linear(REG, {v: 1}) for v in REG.variables)
    a, b = v1 - v0, v1 * v1 - v0 * v0
    want = RationalFunction(REG, 1, [(v2 * (v1 + v0), 1), (b, -1)])
    f = RationalFunction(REG, 1, [(v2 * b, 1), (a, -1), (b, -1)])
    assert same(f.cancelled(), want)
    # v2 v1^2 / (a b) - v2 v0^2 / (a b): the total v2 b is no common factor
    terms = [RationalFunction(REG, sign, [(v2 * w * w, 1), (a, -1), (b, -1)])
             for sign, w in ((1, v1), (-1, v0))]
    assert same(rat_sum(terms), want)
