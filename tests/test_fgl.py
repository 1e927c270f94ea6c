import random
from fractions import Fraction as F

import pytest

from quivergrass import fgl
from quivergrass.fgl import (
    Character,
    FormalGroupLaw,
    TruncationOverflowError,
    fgl_verify,
    parse_series_file,
)
from quivergrass.symalg import MultiPoly, VarRegistry, aux_var, rat_equal, x_var, d_var


@pytest.fixture
def reg():
    return VarRegistry([x_var(1, 0, "i", 1), x_var(1, 0, "i", 2), d_var(1)])


def x1x2w(reg):
    return reg.variables[0], reg.variables[1], reg.variables[2]


def test_axioms_additive_multiplicative():
    assert fgl_verify(FormalGroupLaw.additive()).all_ok
    assert fgl_verify(FormalGroupLaw.multiplicative()).all_ok


def test_axioms_truncated_multiplicative():
    law = FormalGroupLaw.series({(1, 1): F(-1)}, 3)
    assert fgl_verify(law).all_ok


def test_axioms_reject_noncommutative():
    law = FormalGroupLaw.series({(1, 2): F(1)}, 4)
    rep = fgl_verify(law)
    assert not rep.commutative_ok


def test_additive_linear_form(reg):
    x1, x2, w = x1x2w(reg)
    law = FormalGroupLaw.additive()
    out = law.lambda_char(reg, Character.make({x1: 1, x2: -1}))
    assert rat_equal(out, __rf(MultiPoly.linear(reg, {x1: 1, x2: -1})))


def __rf(poly):
    from quivergrass.symalg import RationalFunction

    return RationalFunction.from_poly(poly)


def test_multiplicative_single_variable(reg):
    x1, x2, w = x1x2w(reg)
    law = FormalGroupLaw.multiplicative()
    out = law.lambda_char(reg, Character.make({x1: 1}))
    # 1 - X^-1 at X = 5 is 4/5
    assert out.evaluate({x1: F(5), x2: F(1), w: F(1)}) == F(4, 5)
    # vanishes exactly where the monomial equals 1
    assert out.evaluate({x1: F(1), x2: F(9), w: F(2)}) == 0


def test_zero_character_every_backend(reg):
    for law in (
        FormalGroupLaw.additive(),
        FormalGroupLaw.multiplicative(),
        FormalGroupLaw.series({(1, 1): F(-1)}, 4),
    ):
        assert law.lambda_char(reg, Character.zero()).is_zero()


def test_additive_additivity(reg):
    x1, x2, w = x1x2w(reg)
    law = FormalGroupLaw.additive()
    rng = random.Random(2)
    for _ in range(10):
        ca = {x1: rng.randint(-3, 3), x2: rng.randint(-3, 3)}
        cb = {x1: rng.randint(-3, 3), w: rng.randint(-3, 3)}
        a, b = Character.make(ca), Character.make(cb)
        lhs = law.lambda_char(reg, Character.make({v: ca.get(v, 0) + cb.get(v, 0)
                                                   for v in (x1, x2, w)}))
        rhs_sum = law.lambda_char(reg, a) + law.lambda_char(reg, b)
        assert rat_equal(lhs, rhs_sum)


def test_multiplicative_vanishing_locus(reg):
    x1, x2, w = x1x2w(reg)
    law = FormalGroupLaw.multiplicative()
    rng = random.Random(4)
    for _ in range(20):
        chi = Character.make({x1: rng.randint(-2, 2), x2: rng.randint(-2, 2)})
        pt = {x1: F(rng.randint(2, 9)), x2: F(rng.randint(2, 9)), w: F(1)}
        mono = F(1)
        for v, c in chi.coeffs:
            mono *= pt[v] ** c
        val = law.lambda_char(reg, chi).evaluate(pt) if not chi.is_zero() else F(0)
        if chi.is_zero():
            continue
        assert (val == 0) == (mono == 1)


def negated(chi):
    return Character.make({v: -c for v, c in chi.coeffs})


def test_negated_character_vanishing(reg):
    x1, x2, w = x1x2w(reg)
    rng = random.Random(9)
    for law in (FormalGroupLaw.additive(), FormalGroupLaw.multiplicative()):
        for _ in range(15):
            chi = Character.make({x1: rng.randint(-2, 2), x2: rng.randint(-2, 2)})
            if chi.is_zero():
                continue
            pt = {x1: F(rng.randint(2, 7)), x2: F(rng.randint(2, 7)), w: F(1)}
            a = law.lambda_char(reg, chi).evaluate(pt)
            b = law.lambda_char(reg, negated(chi)).evaluate(pt)
            assert (a == 0) == (b == 0)


def test_negated_character_series_formal():
    # For a truncated law the vanishing relation is the formal inverse
    # identity: lambda(-chi) = i(lambda(chi)) modulo the truncation order.
    u = aux_var("u", 1)
    reg1 = VarRegistry([u])
    law = FormalGroupLaw.series({(1, 1): F(-1), (2, 1): F(1, 2), (1, 2): F(1, 2)}, 4)
    chi = Character.make({u: 1})
    lam = law.lambda_char(reg1, chi).numerator()
    lam_neg = law.lambda_char(reg1, negated(chi)).numerator()
    assert law.f_add(lam, lam_neg).truncate(law.order).is_zero()


def test_truncation_guard(reg):
    law = FormalGroupLaw.series({(1, 1): F(-1)}, 4)
    x1 = reg.variables[0]
    with pytest.raises(TruncationOverflowError):
        law.lambda_char(reg, Character.make({x1: 100}))
    with pytest.raises(TruncationOverflowError):
        FormalGroupLaw.series({}, 1)


def test_series_file_roundtrip(tmp_path):
    path = tmp_path / "law.json"
    path.write_text('{"N": 4, "coeffs": {"1,1": "-1", "2,1": "1/2", "1,2": "1/2"}}')
    law = parse_series_file(str(path))
    assert law.order == 4
    assert fgl_verify(law).unit_ok


NON_SYMMETRIC = FormalGroupLaw.series({(1, 2): F(1), (1, 1): F(-1, 2)}, 4)


def test_lambda_char_matches_direct_orientation_on_shuffled_registries():
    # the orientation memoized per coefficient tuple, transported into
    # registries of random variable subsets (so a character's positions are
    # increasing but not contiguous), must be the direct computation
    rng = random.Random(41)
    laws = [FormalGroupLaw.additive(), FormalGroupLaw.multiplicative(), NON_SYMMETRIC]
    pool = [x_var(s, p, f"v{p}", i) for s in (1, 2, 3) for p in (0, 1) for i in (1, 2)]
    pool += [d_var(1), d_var(2)]  # a rank-2 dilation
    gaps = 0
    for _ in range(300):
        reg = VarRegistry(rng.sample(pool, rng.randint(3, len(pool))))
        chi = Character.make(
            {v: rng.choice([-2, -1, 1, 2]) for v in rng.sample(reg.variables, rng.randint(1, 3))}
        )
        positions = [reg.index(v) for v, _ in chi.coeffs]
        gaps += positions[-1] - positions[0] >= len(positions)
        for law in laws:
            got, want = law.lambda_char(reg, chi), law._orient(reg, chi)
            assert got == want and repr(got) == repr(want)
    assert gaps > 100


def test_truncation_overflow_is_not_cached(reg):
    law = FormalGroupLaw.series({(1, 1): F(-1)}, 4)
    x1 = reg.variables[0]
    before = dict(fgl._ORIENTATIONS)
    for _ in range(2):
        with pytest.raises(TruncationOverflowError):
            law.lambda_char(reg, Character.make({x1: 100}))
    assert fgl._ORIENTATIONS == before


def test_orientation_memo_is_bounded(reg):
    x1, x2, _ = x1x2w(reg)
    law = FormalGroupLaw.additive()
    for c in range(1, fgl._ORIENTATIONS_SIZE + 40):
        chi = Character.make({x1: c, x2: -1})
        got = law.lambda_char(reg, chi)
        assert got == law._orient(reg, chi)
        assert len(fgl._ORIENTATIONS) <= fgl._ORIENTATIONS_SIZE
    # the first signatures were evicted; they are computed again, unchanged
    chi = Character.make({x1: 1, x2: -1})
    assert law.lambda_char(reg, chi) == law._orient(reg, chi)
