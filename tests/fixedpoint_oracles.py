"""Oracles kept beside the code they check.  This file is a helper, not a
test module; the tests import it by name.

* The Buchberger engine as it was before it worked on packed keys: every
  leading key is unpacked into an exponent tuple, divisibility and
  quotients are taken field by field on tuples, and each monomial is
  packed again through the ``MultiPoly`` constructor.  It tries every
  pair and returns an unreduced basis; ``reduced`` turns any Groebner
  basis into the reduced one with the same tuple reductions.
* The q-polynomials as they were before they became one-variable
  ``MultiPoly``s: dense integer lists, lowest power first, with their own
  product, sum and exact division.
* ``sl2_enumerate`` as it was before it became one pass: Q^-1 is built in
  the given window for every candidate, and each candidate is kept as a
  record before the counts are taken.
"""

import itertools
from fractions import Fraction as Frac

from quivergrass.fixedpoints import TruncatedRing, ZWindow, _poly_divides_zm, comonic_inverse
from quivergrass.symalg import MultiPoly, SymalgError


# -- the tuple engine ---------------------------------------------------------

def _unpacked_leading(f):
    k, c = f.leading()
    return f.registry.unpack(k), c


def _spoly(f, g):
    fe, fc = _unpacked_leading(f)
    ge, gc = _unpacked_leading(g)
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))
    mf = MultiPoly(f.registry, {tuple(l - a for l, a in zip(lcm, fe)): Frac(1) / Frac(fc)})
    mg = MultiPoly(g.registry, {tuple(l - b for l, b in zip(lcm, ge)): Frac(1) / Frac(gc)})
    return mf * f - mg * g


def _reduce(f, basis):
    lead = [(_unpacked_leading(g)[0], _unpacked_leading(g)[1], g) for g in basis]
    rem = MultiPoly.zero(f.registry)
    work = f
    reg = f.registry
    while not work.is_zero():
        e, c = _unpacked_leading(work)
        hit = None
        for ge, gc, g in lead:
            if all(a >= b for a, b in zip(e, ge)):
                hit = (ge, gc, g)
                break
        if hit is None:
            term = MultiPoly(reg, {e: c})
            rem = rem + term
            work = work - term
        else:
            ge, gc, g = hit
            mono = MultiPoly(reg, {tuple(a - b for a, b in zip(e, ge)): Frac(c) / Frac(gc)})
            work = work - mono * g
    return rem


def buchberger(gens):
    basis = [g for g in gens if not g.is_zero()]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        fe, _ = _unpacked_leading(basis[i])
        ge, _ = _unpacked_leading(basis[j])
        if all(min(a, b) == 0 for a, b in zip(fe, ge)):
            continue  # coprime leading monomials reduce to zero
        s = _reduce(_spoly(basis[i], basis[j]), basis)
        if s.is_zero():
            continue
        basis.append(s)
        pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return basis


def _divides(e, f):
    return all(a <= b for a, b in zip(e, f))


def reduced(basis):
    """The reduced Groebner basis, by increasing leading key, of the ideal
    of a Groebner basis: drop every element whose leading monomial another
    element's divides (of two equal ones, the later), reduce each tail by
    the elements left, and divide by the leading coefficient."""
    leads = [_unpacked_leading(g)[0] for g in basis]
    minimal = [
        g for n, g in enumerate(basis)
        if not any(_divides(f, leads[n]) and (f != leads[n] or m < n)
                   for m, f in enumerate(leads) if m != n)
    ]
    out = []
    for g in minimal:
        e, c = _unpacked_leading(g)
        lead = MultiPoly(g.registry, {e: c})
        tail = _reduce(g - lead, [f for f in minimal if f is not g])
        out.append(MultiPoly(g.registry, {e: 1}) + tail.scale(Frac(1) / Frac(c)))
    return sorted(out, key=lambda g: g.leading()[0])


# -- dense q-polynomials ------------------------------------------------------

def qpoly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def qpoly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def qpoly_div_exact(a, b):
    rem = list(a)
    out = [0] * (len(rem) - len(b) + 1)
    for top in range(len(rem) - 1, len(b) - 2, -1):
        c = rem[top]
        if c == 0:
            continue
        k = top - (len(b) - 1)
        qc, r = divmod(c, b[-1])
        if r:
            raise SymalgError("inexact q-polynomial division")
        out[k] = qc
        for i, bc in enumerate(b):
            rem[k + i] -= qc * bc
    if any(rem[: len(b) - 1]):
        raise SymalgError("inexact q-polynomial division")
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def gaussian_binomial(n, k):
    result = [1]
    for i in range(1, k + 1):
        top = [1] + [0] * (n - k + i - 1) + [-1]   # 1 - q^(n-k+i)
        bot = [1] + [0] * (i - 1) + [-1]           # 1 - q^i
        result = qpoly_div_exact(qpoly_mul(result, [-c for c in top]), [-c for c in bot])
    return result


def quiver_grass_poincare(alpha):
    out = [1]
    for _, a in sorted(alpha.items()):
        total = [0]
        for p in range(a + 1):
            total = qpoly_add(total, gaussian_binomial(a, p))
        out = qpoly_mul(out, total)
    return out


# -- the per-candidate sl2 enumeration ----------------------------------------

def sl2_enumerate(p, e, n, window, m=None):
    """(s0_count, s0_expected, sminus_count, routes_agree, monic_polys); the
    up-front checks of ``fixedpoints.sl2_enumerate`` are left to it."""
    ring = TruncatedRing(p, e)
    nils = ring.nilpotents()
    smax = window - n
    candidates = []
    for tail in itertools.product(nils, repeat=smax):
        q = ZWindow(ring, window, {0: ring.one(), **{-i: c for i, c in enumerate(tail, start=1)}})
        q_inv = comonic_inverse(ring, q)
        in_s0_lat = q.scale_z(n).in_disc()
        in_s0_orc = all(ring.is_zero(c) for c in tail[n:])
        monic = sminus_lat = sminus_orc = None
        if in_s0_orc:
            coeffs = [ring.zero()] * (n + 1)
            coeffs[n] = ring.one()
            for i, c in enumerate(tail[:n], start=1):
                coeffs[n - i] = c
            monic = tuple(coeffs)
            if m is not None:
                sminus_lat = q_inv.scale_z(m - n).in_disc()
                sminus_orc = _poly_divides_zm(ring, coeffs, m)
        candidates.append((in_s0_lat, in_s0_orc, monic, sminus_lat, sminus_orc))

    s0_count = sum(1 for c in candidates if c[0])
    routes = all(c[0] == c[1] for c in candidates)
    sminus_count = None
    if m is not None:
        routes = routes and all(c[3] == c[4] for c in candidates if c[2] is not None)
        sminus_count = sum(1 for c in candidates if c[2] is not None and c[3])
    monic_polys = [c[2] for c in candidates if c[2] is not None]
    return s0_count, len(nils) ** min(n, smax), sminus_count, routes, monic_polys
