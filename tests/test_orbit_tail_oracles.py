"""Differential tests of the orbit-sum tail against the code it replaced.

The oracles below are the earlier implementations, kept only here:

* ``moved_keys_oracle`` moves a packed key one exponent field at a time;
  ``_moved_keys`` moves the fields that travel the same distance under
  one mask (``_field_groups``), and ``_repack`` moves the keys of several
  polynomials in one call.
* ``cancelled_sum_oracle`` builds the sum through the public constructor
  and cancels it with ``cancelled``, normalizing twice; ``_cancelled_sum``
  normalizes once and builds the result through ``_trusted``.
* ``factor_order_oracle`` is the full sort key of every factor;
  ``_in_factor_order`` builds the term list only on a (degree, term
  count) tie.

Each pair must agree exactly: the same keys, and functions equal under
``==`` and printed the same.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from quivergrass import checks, symalg
from quivergrass.checks import _words_up_to, make_context, standard_laws
from quivergrass.quiver import stock_quiver
from quivergrass.shuffle import word_product
from quivergrass.symalg import (
    _BITS,
    _MASK,
    MultiPoly,
    RationalFunction,
    VarRegistry,
    _cancelled_sum,
    _field_groups,
    _in_factor_order,
    _moved_keys,
    _repack,
    aux_var,
)

# -- oracles ---------------------------------------------------------------


def moved_keys_oracle(keys, positions, src, dst):
    """Each key with exponent field i moved into field ``positions[i]`` and
    its degree field moved from bit ``src`` to bit ``dst``, field by field."""
    shifts = [_BITS * p for p in positions]
    for k in keys:
        key = (k >> src) << dst
        for sh in shifts:
            e = k & _MASK
            if e:
                key += e << sh
            k >>= _BITS
        yield key


def cancelled_sum_oracle(registry, total, lcm, common):
    """The sum built through the public constructor, then ``cancelled``."""
    result = RationalFunction(
        registry,
        F(1, lcm),
        [(MultiPoly(registry, _packed={k: c for k, c in total.items() if c}), 1)]
        + [(p, -e) for p, e in common.items()],
    )
    return result.cancelled()


def factor_order_oracle(item):
    p, e = item
    low = p.registry.low_mask
    return (
        p.degree(),
        len(p.terms),
        sorted((k & low, (v.numerator, v.denominator)) for k, v in p.terms.items()),
        e,
    )


def same(a, b):
    return a == b and repr(a) == repr(b)


def registry(n):
    return VarRegistry([aux_var(f"v{i}") for i in range(n)])


# -- the mask mover ----------------------------------------------------------


def random_key(rng, n, shift):
    """A key of ``n`` fields: small exponents, some at ``_MASK``, and a degree
    field that is either the true degree or far past the packing width
    (the mover must carry every bit of it)."""
    exps = [rng.choice([0, 0, 1, 2, 7, _MASK]) for _ in range(n)]
    degree = sum(exps) if rng.random() < 0.5 else rng.getrandbits(rng.choice([17, 40, 90]))
    return sum(e << (_BITS * i) for i, e in enumerate(exps)) + (degree << shift)


@pytest.mark.parametrize("seed", range(6))
def test_mask_mover_matches_the_per_field_loop(seed):
    rng = random.Random(seed)
    kinds = {"into a larger registry": 0, "non-monotone": 0, "degree group moves": 0}
    for _ in range(60):
        n = rng.randint(0, 7)
        source, target = registry(n), registry(n + rng.choice([0, 0, 1, 3]))
        positions = rng.sample(range(len(target)), n)
        keys = [random_key(rng, n, source.shift) for _ in range(rng.choice([1, 2, 50]))]
        want = list(moved_keys_oracle(keys, positions, source.shift, target.shift))
        groups = _field_groups(positions, source, target)
        assert _moved_keys(keys, groups) == want
        # _repack moves several polynomials' keys in one call and splits them back
        polys = [MultiPoly(source, _packed={k: rng.randint(1, 9) for k in keys[i::3]}) for i in range(3)]
        moved = _repack([(p, i - 1) for i, p in enumerate(polys)], groups, target)
        assert [e for _, e in moved] == [-1, 0, 1]
        for p, (q, _) in zip(polys, moved):
            assert q.registry == target and list(q.terms.values()) == list(p.terms.values())
            assert list(q.terms) == list(moved_keys_oracle(p.terms, positions, source.shift, target.shift))
        # one mask per distance, the degree field's among them
        distances = {_BITS * (p - i) for i, p in enumerate(positions)} | {target.shift - source.shift}
        assert sorted(d for d, _ in groups) == sorted(distances)
        kinds["into a larger registry"] += target.shift != source.shift
        kinds["non-monotone"] += positions != sorted(positions)
        kinds["degree group moves"] += any(m < 0 and d for d, m in groups)
    assert min(kinds.values()) >= 10


def test_mask_mover_on_fields_at_the_mask():
    source, target = registry(3), registry(5)
    key = _MASK + (_MASK << _BITS) + (_MASK << 2 * _BITS) + ((3 * _MASK) << source.shift)
    for positions in itertools.permutations(range(5), 3):
        want = list(moved_keys_oracle([key], positions, source.shift, target.shift))
        assert _moved_keys([key], _field_groups(positions, source, target)) == want


# -- the one normalization of a sum -------------------------------------------


REG = registry(3)
V0, V1, V2 = REG.variables


def factor_pool():
    """Primitive non-constant factors, as every ``RationalFunction`` holds
    them, some dividing others: the order in which ``_cancelled_sum``
    divides decides which of them cancel."""
    a = MultiPoly.linear(REG, {V0: 1, V1: 1})
    b = MultiPoly.linear(REG, {V0: 1, V1: -1})
    c = MultiPoly.linear(REG, {V1: 2, V2: 1}, 1)
    m = MultiPoly.monomial(REG, {V2: 1})
    pool = [a, b, c, m, a * b, a * c, MultiPoly.linear(REG, {V0: 1, V2: 3})]
    return [p.primitive()[1] for p in pool]


def random_total(rng, pool, common):
    """An integer total of one of five kinds, with some cancelled keys left
    at 0 as the orbit path leaves them; and its kind."""
    scale = rng.choice([1, -1, 2, -6, 15])
    kind = rng.choice(["zero", "constant", "common factor", "over-divisible", "mixed"])
    if kind == "zero":
        poly = MultiPoly.zero(REG)
    elif kind == "constant":
        poly = MultiPoly.const(REG, scale)
    elif kind == "common factor":
        poly = rng.choice(list(common)).scale(scale)
    elif kind == "over-divisible":
        p = rng.choice(list(common))
        poly = p.pow(common[p] + rng.randint(1, 2)).scale(scale)
    else:
        poly = MultiPoly.const(REG, scale)
        for p in rng.sample(pool, rng.randint(1, 3)):
            poly = poly * p.pow(rng.randint(1, 2))
        if rng.random() < 0.5:
            poly = poly + MultiPoly.monomial(REG, {V0: 2, V2: 1}, rng.randint(1, 4))
    total = dict(poly.terms)
    for _ in range(rng.randint(0, 3)):
        total.setdefault(random_key(rng, 3, REG.shift) & ((1 << (REG.shift + _BITS)) - 1), 0)
    return total, kind


def test_cancelled_sum_matches_constructor_then_cancelled_on_seeded_totals():
    rng = random.Random(59)
    pool = factor_pool()
    kinds = {}
    for _ in range(600):
        common = {p: rng.randint(1, 3) for p in rng.sample(pool, rng.randint(1, 4))}
        total, kind = random_total(rng, pool, common)
        lcm = rng.choice([1, 1, 2, 6, 35])
        want = cancelled_sum_oracle(REG, total, lcm, common)
        got = _cancelled_sum(REG, dict(total), lcm, common)
        assert same(got, want), (kind, total, common)
        kinds[kind] = kinds.get(kind, 0) + 1
    assert len(kinds) == 5 and min(kinds.values()) >= 80


def test_cancelled_sum_merges_a_total_equal_to_a_factor_that_another_divides():
    """The total (v0 + v1)(v0 - v1) is itself a common factor, and the
    common factor v0 + v1 divides it: the constructor merges the two equal
    factors before any division, so the sum is 1 / (v0 + v1), not
    (v0 - v1) / ((v0 + v1)(v0 - v1))."""
    a, b = factor_pool()[:2]
    common = {a * b: 1, a: 1}
    got = _cancelled_sum(REG, dict((a * b).terms), 1, common)
    assert same(got, cancelled_sum_oracle(REG, (a * b).terms, 1, common))
    assert got.factors == ((a, -1),)


def test_cancelled_sum_matches_on_every_sum_of_an_ac4_pass(monkeypatch):
    """AC4's shuffle constants, generator words and associativity triples,
    every sum checked as it ends."""
    counts = {"sums": 0, "scalar": 0, "cancelled a denominator": 0}

    def checked(registry, total, lcm, common):
        want = cancelled_sum_oracle(registry, total, lcm, common)
        got = _cancelled_sum(registry, total, lcm, common)
        assert same(got, want)
        counts["sums"] += 1
        counts["scalar"] += got.is_scalar()
        counts["cancelled a denominator"] += (
            sum(e for _, e in got.denominator_factors()) < sum(common.values()))
        return got

    monkeypatch.setattr(symalg, "_cancelled_sum", checked)
    results = (checks.shuffle_constants_suite() + checks.ideal_suite(seed=0, max_total=4)
               + checks.assoc_suite(seed=0, triples=20))
    assert all(r.ok for r in results)
    assert counts["sums"] > 300 and counts["scalar"] > 20 and counts["cancelled a denominator"] > 100


# -- chunked moves -------------------------------------------------------------


@pytest.mark.parametrize("lname", ["additive", "multiplicative"])
def test_orbit_sums_do_not_depend_on_the_chunk_size(monkeypatch, lname):
    """The generator words of a2 with P moved 5 keys at a time: the same
    functions, from more and smaller additions into the total."""
    law = dict(standard_laws())[lname]
    sizes = []
    real = symalg._add_scaled

    def spy(total, keys, coeffs, scale):
        sizes.append(len(keys))
        return real(total, keys, coeffs, scale)

    monkeypatch.setattr(symalg, "_add_scaled", spy)
    runs = []
    for chunk in (symalg._CHUNK, 5):
        monkeypatch.setattr(symalg, "_CHUNK", chunk)
        sizes.clear()
        ctx = make_context(stock_quiver("a2"), law)
        runs.append(([word_product(ctx, w).fn for w in _words_up_to(ctx.quiver, 4)], list(sizes)))
    (whole, whole_sizes), (chunked, chunked_sizes) = runs
    assert all(same(a, b) for a, b in zip(whole, chunked))
    assert len(chunked_sizes) > 2 * len(whole_sizes) and max(whole_sizes) > 5
    assert chunked_sizes.count(5) > 100


# -- the lazy factor order ------------------------------------------------------


def tied_factors(rng):
    """Distinct primitive factors, many sharing degree and term count: equal
    monomials with other coefficients, other monomials of the same degree,
    and a few of other shapes."""
    out = {}
    while len(out) < rng.randint(2, 9):
        shape = rng.choice(["linear", "linear", "quadratic", "monomial", "binomial"])
        if shape == "linear":
            vs = rng.sample(REG.variables, 2)
            p = MultiPoly.linear(REG, {vs[0]: 1, vs[1]: rng.choice([-3, -1, 1, 2])}, rng.choice([0, 0, 1]))
        elif shape == "quadratic":
            p = MultiPoly(REG, {e: rng.choice([-2, 1, 3]) for e in rng.sample(
                [(2, 0, 0), (1, 1, 0), (0, 1, 1), (0, 0, 2), (1, 0, 0)], 3)})
        elif shape == "monomial":
            p = MultiPoly.monomial(REG, {rng.choice(REG.variables): rng.randint(1, 2)})
        else:
            p = MultiPoly(REG, {(rng.randint(0, 2), 1, 0): 1, (0, 0, rng.randint(0, 3)): rng.choice([-1, 5])})
        p = p.primitive()[1]
        if not p.is_constant():
            out[p] = rng.choice([-2, -1, 1, 3])
    return list(out.items())


def test_lazy_factor_order_matches_the_full_key():
    rng = random.Random(61)
    ties = 0
    for _ in range(500):
        pairs = tied_factors(rng)
        rng.shuffle(pairs)
        want = tuple(sorted(pairs, key=factor_order_oracle))
        got = _in_factor_order(pairs)
        assert [p for p, _ in got] == [p for p, _ in want] and got == want
        assert same(RationalFunction(REG, 3, pairs), RationalFunction(REG, 3, want))
        coarse = [(p.degree(), len(p.terms)) for p, _ in pairs]
        ties += len(set(coarse)) < len(coarse)
    assert ties > 250
