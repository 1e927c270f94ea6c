"""Lattice-model enumeration, graded counts, and the Grassmannian
fixed-scheme oracle.

Three mechanical layers cross-validate each other:

* ``sl2_enumerate`` walks the comonic Laurent candidates Q over a
  truncated nilpotent ring in one pass, tests membership two ways
  (windowed lattice division vs polynomial degree/divisibility), and
  reports the bijection with monic polynomials with nilpotent
  coefficients; the state budget is checked from p, e and the window
  before any ring element is built.  Q^-1 is built only for the S-
  probe (``m``) of an S0 candidate, and the window must hold the probe
  z^(m-n) Q^-1, not Q^-1 itself;
* ``gaussian_binomial`` / ``quiver_grass_poincare`` give the closed-form
  graded counts as ``MultiPoly``s in the one variable ``Q`` over
  ``Q_REGISTRY`` (built with ``*``, ``+`` and ``divide_exact``, evaluated
  with ``MultiPoly.evaluate``);
* ``carell_chart`` presents the fixed scheme of a principal nilpotent on a
  Grassmannian by explicit chart equations and counts standard
  monomials of the reduced Groebner basis of their ideal.  The engine
  works on packed monomial keys: divisibility is ``VarRegistry.divides``,
  a monomial quotient is a key difference, and two leading monomials are
  coprime when their ``VarRegistry.lcm`` is their product (the sum of
  their keys).  Each element is its leading key and a monic term dict
  with coefficients in ``_coeff`` normal form, and a normal form is one
  dict reduced in place: take its largest key k, then subtract
  c * x^(k - gk) * g term by term.  New pairs pass Gebauer and Moeller's UPDATE (J. Symbolic Comput. 1988:
  the product criterion and criteria M, F and B), and pairs are taken
  smallest lcm first.  A last pass reduces the tail of every element of
  the minimal basis, which leaves the reduced basis, unique for the
  fixed monomial order.  The staircase of standard monomials is walked
  on packed keys, a neighbour being a key plus a variable's key.
  Packed keys cannot overflow: an S-polynomial key has degree at most
  that of its pair's lcm, which ``VarRegistry.lcm`` checks against the
  packing width; a reduction key has degree at most that of the key it
  reduces; and a staircase key has degree at most one more than the
  number of standard monomials, which ``STAIRCASE_CAP`` bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction as Frac
from heapq import heapify, heappop
from math import isqrt
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .symalg import (
    MultiPoly,
    SymalgError,
    Variable,
    VarRegistry,
    _coeff,
    aux_var,
)


class WindowOverflowError(SymalgError):
    """A Laurent computation escaped the coordinate window."""


class DegreeOverflowError(SymalgError):
    """A request exceeded the supported desk-scale bounds."""


# ---------------------------------------------------------------------------
# Truncated nilpotent coefficient rings F_p[eps]/(eps^e)
# ---------------------------------------------------------------------------

class TruncatedRing:
    """F_p[eps]/(eps^e); elements are length-e tuples of residues."""

    def __init__(self, p: int, e: int):
        if p < 2 or any(p % k == 0 for k in range(2, isqrt(p) + 1)):
            raise ValueError("p must be prime")
        if e < 1:
            raise ValueError("e must be positive")
        self.p = p
        self.e = e

    def zero(self) -> Tuple[int, ...]:
        return (0,) * self.e

    def one(self) -> Tuple[int, ...]:
        return (1,) + (0,) * (self.e - 1)

    def add(self, a, b) -> Tuple[int, ...]:
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a) -> Tuple[int, ...]:
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b) -> Tuple[int, ...]:
        out = [0] * self.e
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                if i + j >= self.e:
                    break
                out[i + j] = (out[i + j] + x * y) % self.p
        return tuple(out)

    def is_zero(self, a) -> bool:
        return all(x == 0 for x in a)

    def is_nilpotent(self, a) -> bool:
        return a[0] == 0

    def elements(self) -> List[Tuple[int, ...]]:
        return [tuple(t) for t in itertools.product(range(self.p), repeat=self.e)]

    def nilpotents(self) -> List[Tuple[int, ...]]:
        """The p^(e-1) elements with a zero constant term, in ``elements`` order."""
        return [(0, *t) for t in itertools.product(range(self.p), repeat=self.e - 1)]

    def __repr__(self) -> str:
        return f"TruncatedRing(p={self.p}, e={self.e})"


class ZWindow:
    """Laurent polynomials over a truncated ring within powers [-N, N]."""

    def __init__(self, ring: TruncatedRing, window: int, coeffs: Mapping[int, Tuple[int, ...]]):
        self.ring = ring
        self.window = window
        self.coeffs: Dict[int, Tuple[int, ...]] = {}
        for k, c in coeffs.items():
            if ring.is_zero(c):
                continue
            if abs(k) > window:
                raise WindowOverflowError(f"power z^{k} escapes the window +-{window}")
            self.coeffs[k] = tuple(c)

    def in_disc(self) -> bool:
        """No negative powers (lies in the Taylor part)."""
        return all(k >= 0 for k in self.coeffs)

    def add(self, other: "ZWindow") -> "ZWindow":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = self.ring.add(out.get(k, self.ring.zero()), c)
        return ZWindow(self.ring, self.window, out)

    def mul(self, other: "ZWindow") -> "ZWindow":
        out: Dict[int, Tuple[int, ...]] = {}
        for i, a in self.coeffs.items():
            for j, b in other.coeffs.items():
                prod = self.ring.mul(a, b)
                if self.ring.is_zero(prod):
                    continue
                k = i + j
                out[k] = self.ring.add(out.get(k, self.ring.zero()), prod)
        return ZWindow(self.ring, self.window, out)

    def scale_z(self, power: int) -> "ZWindow":
        return ZWindow(self.ring, self.window, {k + power: c for k, c in self.coeffs.items()})

    def __repr__(self) -> str:
        bits = []
        for k in sorted(self.coeffs):
            bits.append(f"z^{k}*{self.coeffs[k]}")
        return " + ".join(bits) or "0"


def comonic_inverse(ring: TruncatedRing, q: ZWindow) -> ZWindow:
    """Inverse of 1 + (nilpotent tail): 1/(1+t) = sum (-t)^j, which
    terminates because products of e nilpotent coefficients vanish."""
    one = ZWindow(ring, q.window, {0: ring.one()})
    tail = q.add(ZWindow(ring, q.window, {0: ring.neg(ring.one())}))  # q - 1
    for _, c in tail.coeffs.items():
        if not ring.is_nilpotent(c):
            raise ValueError("tail coefficients must be nilpotent")
    minus_t = ZWindow(ring, q.window, {k: ring.neg(c) for k, c in tail.coeffs.items()})
    inv = one
    power = one
    for _ in range(1, ring.e):
        power = power.mul(minus_t)
        inv = inv.add(power)
    return inv


@dataclass
class Sl2Report:
    s0_count: int
    s0_expected: int
    sminus_count: Optional[int]
    routes_agree: bool
    monic_polys: List[Tuple[Tuple[int, ...], ...]]  # z^n Q of each S0 member, low to high


def _poly_divides_zm(ring: TruncatedRing, coeffs: Sequence[Tuple[int, ...]], m: int) -> bool:
    """Does the monic polynomial P (coeffs low..high, top == 1) divide z^m?

    Long division of z^m by P over the truncated ring; exact iff the
    remainder vanishes.
    """
    n = len(coeffs) - 1
    if m < n:
        return n == 0
    rem: Dict[int, Tuple[int, ...]] = {m: ring.one()}
    for deg in range(m, n - 1, -1):
        c = rem.get(deg)
        if c is None or ring.is_zero(c):
            continue
        # subtract c * z^(deg-n) * P
        for i, pc in enumerate(coeffs):
            k = deg - n + i
            delta = ring.mul(c, pc)
            rem[k] = ring.add(rem.get(k, ring.zero()), ring.neg(delta))
    return all(ring.is_zero(c) for d, c in rem.items() if d < n)


def sl2_enumerate(
    p: int, e: int, n: int, window: int, m: Optional[int] = None
) -> Sl2Report:
    """Enumerate comonic candidates and test the membership conditions
    along two independent routes."""
    if e < 2:
        raise ValueError("nilpotency order e must be at least 2")
    if n < 0 or (m is not None and m < 0):
        raise ValueError("the degrees n and m must be non-negative")
    if window < n + e:
        raise WindowOverflowError(f"window {window} too small; need at least n + e = {n + e}")
    if m is not None and window < m + e:
        raise WindowOverflowError(f"window {window} too small for the z^{m} probe")
    smax = window - n
    # (p^(e-1))^smax tails; smax >= e >= 2, so with p >= 2 an exponent
    # above 16 is over budget without computing the power.
    exponent = (e - 1) * smax
    if p >= 2 and (exponent > 16 or p ** exponent > 2 ** 16):
        raise DegreeOverflowError(
            f"{p}^{exponent} candidate states exceed the exhaustive budget of 2^16"
        )
    ring = TruncatedRing(p, e)
    nils = ring.nilpotents()

    s0_count = 0
    sminus_count = 0 if m is not None else None
    routes = True
    monic_polys: List[Tuple[Tuple[int, ...], ...]] = []
    for tail in itertools.product(nils, repeat=smax):
        q = ZWindow(ring, window, {0: ring.one(), **{-i: c for i, c in enumerate(tail, start=1)}})
        # Lattice route: z^0 e1 lies in the lattice iff z^n Q has no pole.
        in_s0 = q.scale_z(n).in_disc()
        s0_count += in_s0
        # Polynomial route: Q is z^-n times a monic polynomial of degree n.
        in_s0_poly = all(ring.is_zero(c) for c in tail[n:])
        routes = routes and in_s0 == in_s0_poly
        if not in_s0_poly:
            continue
        # z^n Q = z^n + q_1 z^(n-1) + ... + q_n; low-to-high coefficients.
        coeffs = [ring.zero()] * n + [ring.one()]
        for i, c in enumerate(tail[:n], start=1):
            coeffs[n - i] = c
        monic_polys.append(tuple(coeffs))
        if m is not None:
            # z^m e2 lies in the lattice iff z^(m-n) Q^-1 has no pole.  Q^-1
            # reaches z^-((e-1)n), so it is built in a window that holds it;
            # only the probe itself must fit the given window.
            inv = comonic_inverse(ring, ZWindow(ring, max(window, (e - 1) * n), q.coeffs))
            probe = ZWindow(ring, window, {k + m - n: c for k, c in inv.coeffs.items()})
            in_sminus = probe.in_disc()
            sminus_count += in_sminus
            routes = routes and in_sminus == _poly_divides_zm(ring, coeffs, m)
    s0_expected = len(nils) ** min(n, smax)
    return Sl2Report(s0_count, s0_expected, sminus_count, routes, monic_polys)


# ---------------------------------------------------------------------------
# q-polynomials
# ---------------------------------------------------------------------------

Q = aux_var("q")
Q_REGISTRY = VarRegistry([Q])


def _q_power(m: int) -> MultiPoly:
    return MultiPoly.monomial(Q_REGISTRY, {Q: m})


def gaussian_binomial(n: int, k: int) -> MultiPoly:
    """The q-binomial coefficient as an integer polynomial in q."""
    if k < 0 or k > n:
        raise ValueError("binomial index out of range")
    one = _q_power(0)
    result = one
    for i in range(1, k + 1):
        # times (q^(n-k+i) - 1) / (q^i - 1), exact by q-Pascal
        result = (result * (_q_power(n - k + i) - one)).divide_exact(_q_power(i) - one)
    return result


# The largest dimension-vector entry ``quiver_grass_poincare`` takes; its
# cost grows about as the fourth power of the largest entry.
POINCARE_ENTRY_CAP = 32
# The largest degree of the product it takes, sum of floor(a^2 / 4) over
# the entries a: four entries at the cap (about 0.4 s), so that many
# entries cannot add up to a long run either.
POINCARE_DEGREE_CAP = 4 * (POINCARE_ENTRY_CAP ** 2 // 4)
# The largest sum of the entries a.  The value at q = 1 is 2 to that sum,
# and 2^2048 has 617 digits, well inside the 4,300 digits that Python
# converts to a string by default.  floor(a^2 / 4) >= a / 2 for a >= 2, so
# the cap only cuts inputs with entries of 1, which add nothing to the degree.
POINCARE_SUM_CAP = 2 * POINCARE_DEGREE_CAP


def quiver_grass_poincare(alpha: Mapping[str, int]) -> MultiPoly:
    """Graded point count of the product of total Grassmannians attached
    to the zero representation of the given dimension."""
    if any(a < 0 for a in alpha.values()):
        raise ValueError("dimension vector entries must be non-negative")
    if any(a > POINCARE_ENTRY_CAP for a in alpha.values()):
        raise DegreeOverflowError(f"dimension vector entries are bounded at {POINCARE_ENTRY_CAP}")
    if sum(alpha.values()) > POINCARE_SUM_CAP:
        raise DegreeOverflowError(
            f"the sum of the dimension vector entries is bounded at {POINCARE_SUM_CAP}"
        )
    # The top degree of the sum over p of binomial(a, p)_q is floor(a^2 / 4).
    if sum(a * a // 4 for a in alpha.values()) > POINCARE_DEGREE_CAP:
        raise DegreeOverflowError(
            f"the Poincare polynomial's degree, the sum of floor(a^2/4) over the entries, "
            f"is bounded at {POINCARE_DEGREE_CAP}"
        )
    out = _q_power(0)
    for _, a in sorted(alpha.items()):
        total = MultiPoly.zero(Q_REGISTRY)
        for p in range(a + 1):
            total = total + gaussian_binomial(a, p)
        out = out * total
    return out


def qpoly_str(a: MultiPoly) -> str:
    """A polynomial in q, lowest power first."""
    bits = []
    for k in sorted(a.terms):
        c, i = a.terms[k], k >> a.registry.shift
        mono = "q" if i == 1 else f"q^{i}"
        if i == 0:
            bits.append(str(c))
        elif c == 1:
            bits.append(mono)
        elif c == -1:
            bits.append(f"-{mono}")
        else:
            bits.append(f"{c}*{mono}")
    return " + ".join(bits).replace("+ -", "- ") or "0"


# ---------------------------------------------------------------------------
# Buchberger engine and the fixed-scheme chart
# ---------------------------------------------------------------------------

def _subtract(work: Dict[int, Frac], c: Frac, shift: int, gk: int, g: Dict[int, Frac]) -> None:
    """work -= c * x^shift * (g minus its leading term x^gk), in place; the
    caller has already taken the cancelled leading term out of ``work``."""
    for t, gc in g.items():
        if t == gk:
            continue
        k = t + shift
        v = work.get(k, 0) - c * gc
        if not v:
            del work[k]
        elif type(v) is int or v.denominator != 1:
            work[k] = v
        else:
            work[k] = v.numerator


def _normal_form(work: Dict[int, Frac], basis: Sequence[Tuple[int, Dict[int, Frac]]],
                 divides) -> Dict[int, Frac]:
    """The remainder of ``work`` on division by ``basis``, monic elements
    as (leading key, terms); ``work`` is consumed."""
    rem: Dict[int, Frac] = {}
    while work:
        k = max(work)
        c = work.pop(k)
        for gk, g in basis:
            if divides(gk, k):
                _subtract(work, c, k - gk, gk, g)
                break
        else:
            rem[k] = c
    return rem


def _monic(terms: Dict[int, Frac]) -> Tuple[int, Dict[int, Frac]]:
    """The leading key of a nonzero term dict, and the dict divided in
    place by its leading coefficient."""
    lead = max(terms)
    c = terms[lead]
    if c != 1:
        for k, v in terms.items():
            terms[k] = _coeff(Frac(v) / c)
    return lead, terms


def buchberger(gens: Sequence[MultiPoly]) -> List[MultiPoly]:
    """The reduced Groebner basis of the ideal that ``gens`` generate,
    monic, by increasing leading key."""
    live = [g for g in gens if not g.is_zero()]
    if not live:
        return []
    reg = live[0].registry
    divides, lcm = reg.divides, reg.lcm
    elements: List[Tuple[int, Dict[int, Frac]]] = []  # every element ever added
    active: List[int] = []  # indices of the minimal basis so far
    pairs: List[Tuple[int, int, int]] = []  # heap of (lcm key, i, j)

    def update(terms: Dict[int, Frac]) -> None:
        # Gebauer and Moeller's UPDATE: add the new element h to the basis.
        hk = _monic(terms)[0]
        h = len(elements)
        elements.append((hk, terms))
        lcms = {i: lcm(elements[i][0], hk) for i in active}
        # Criteria M and F: a new pair goes when another new pair's lcm
        # divides its lcm, the last of several equal lcms staying.  Coprime
        # pairs stay as witnesses until the product criterion drops them.
        # By increasing lcm, a pair still to come divides m only if it
        # has lcm m itself.
        new = sorted((m, i) for i, m in lcms.items())
        kept: List[Tuple[int, int]] = []
        for n, (m, i) in enumerate(new):
            if m == elements[i][0] + hk or not (
                (n + 1 < len(new) and new[n + 1][0] == m)
                or any(divides(m2, m) for m2, _ in kept)
            ):
                kept.append((m, i))

        def lcm_h(i: int) -> int:
            if i not in lcms:
                lcms[i] = lcm(elements[i][0], hk)
            return lcms[i]

        # Criterion B: an old pair goes when hk divides its lcm and neither
        # of its elements has that same lcm with h.
        pairs[:] = [
            (m, i, j) for m, i, j in pairs
            if not divides(hk, m) or lcm_h(i) == m or lcm_h(j) == m
        ]
        pairs.extend((m, i, h) for m, i in kept if m != elements[i][0] + hk)
        heapify(pairs)
        active[:] = [i for i in active if not divides(hk, elements[i][0])]
        active.append(h)

    def basis() -> List[Tuple[int, Dict[int, Frac]]]:
        return [elements[i] for i in active]

    for g in live:
        rem = _normal_form(dict(g.terms), basis(), divides)
        if rem:
            update(rem)
    while pairs:
        m, i, j = heappop(pairs)
        (fk, f), (gk, g) = elements[i], elements[j]
        shift = m - fk
        work = {t + shift: c for t, c in f.items() if t != fk}
        _subtract(work, 1, m - gk, gk, g)
        rem = _normal_form(work, basis(), divides)
        if rem:
            update(rem)
    # The active leading keys are minimal; reducing every tail makes the
    # basis the reduced one.
    final = sorted(basis())
    out = []
    for k, g in final:
        tail = _normal_form({t: c for t, c in g.items() if t != k}, final, divides)
        tail[k] = 1
        out.append(MultiPoly(reg, _packed=tail))
    return out


# The most standard monomials a chart may have before the staircase is
# taken to be infinite.
STAIRCASE_CAP = 4096


def standard_monomials(basis: Sequence[MultiPoly], nvars: int) -> List[Tuple[int, ...]]:
    """Monomials outside the leading-term ideal, by breadth-first degree;
    ``nvars`` is the number of variables of the basis's registry."""
    reg = basis[0].registry if basis else VarRegistry(aux_var("x", i) for i in range(nvars))
    divides = reg.divides
    leads = [g.leading()[0] for g in basis if not g.is_zero()]
    steps = [reg.pack([0] * i + [1]) for i in range(nvars)]
    out: List[int] = []
    frontier = [0]
    seen: Set[int] = {0}
    while frontier:
        new_frontier = []
        for key in frontier:
            if any(divides(lk, key) for lk in leads):
                continue
            out.append(key)
            if len(out) > STAIRCASE_CAP:
                raise DegreeOverflowError("standard-monomial staircase exceeds the cap")
            for step in steps:
                nk = key + step
                if nk not in seen:
                    seen.add(nk)
                    new_frontier.append(nk)
        frontier = new_frontier
    return [reg.unpack(key) for key in out]


@dataclass
class CarellChart:
    n: int
    p: int
    variables: List[Variable]
    weights: Dict[Variable, int]
    equations: List[MultiPoly]
    standard: List[Tuple[int, ...]]

    @property
    def dimension(self) -> int:
        return len(self.standard)

    def weight_series(self) -> MultiPoly:
        wts = [self.weights[v] for v in self.variables]
        series = MultiPoly.zero(Q_REGISTRY)
        for mono in self.standard:
            series = series + _q_power(sum(e * wt for e, wt in zip(mono, wts)))
        return series


def _nilpotent_move(subset: Tuple[int, ...], n: int) -> List[Tuple[int, ...]]:
    """Images of a wedge basis vector under the principal nilpotent.

    Basis lines are indexed 1..n; the operator sends line i to line i+1
    (and kills line n).  Replacing i by i+1 in a sorted subset keeps the
    order, so every surviving image has coefficient +1.
    """
    out = []
    s = set(subset)
    for i in subset:
        if i == n or (i + 1) in s:
            continue
        out.append(tuple(sorted(s - {i} | {i + 1})))
    return out


# The largest ambient dimension ``carell_chart`` takes.
CARELL_N_CAP = 4


def carell_chart(n: int, p: int) -> CarellChart:
    """Chart equations of the fixed scheme of the principal nilpotent at
    its unique fixed point, with the loop-rotation weights."""
    if n < 0:
        raise ValueError("the ambient dimension n must be non-negative")
    if n > CARELL_N_CAP:
        raise DegreeOverflowError(f"the fixed-scheme oracle is bounded at n <= {CARELL_N_CAP}")
    if p < 0 or p > n:
        raise ValueError("subspace dimension out of range")
    subsets = [tuple(s) for s in itertools.combinations(range(1, n + 1), p)]
    top = tuple(range(n - p + 1, n + 1))
    others = [s for s in subsets if s != top]
    if not others:
        return CarellChart(n, p, [], {}, [], [()])
    variables = [aux_var("w" + "".join(map(str, s)), i + 1) for i, s in enumerate(others)]
    var_of = dict(zip(others, variables))
    reg = VarRegistry(variables)

    def w(subset: Tuple[int, ...]) -> MultiPoly:
        if subset == top:
            return MultiPoly.const(reg, 1)
        return MultiPoly.var(reg, var_of[subset])

    # (e.w)_T = sum over S with a move S -> T of w_S.
    image: Dict[Tuple[int, ...], MultiPoly] = {s: MultiPoly.zero(reg) for s in subsets}
    for s in subsets:
        for t in _nilpotent_move(s, n):
            image[t] = image[t] + w(s)
    scale = image[top]
    equations: List[MultiPoly] = []
    for s in others:
        equations.append(image[s] - scale * w(s))
    # Chart form of the quadratic coordinate relations (only n=4, p=2 has one).
    if n == 4 and p == 2:
        rel = w((1, 2)) * w((3, 4)) - w((1, 3)) * w((2, 4)) + w((1, 4)) * w((2, 3))
        equations.append(rel)
    basis = buchberger(equations)
    std = standard_monomials(basis, len(variables))
    weights = {
        var_of[s]: sum(i - 1 for i in top) - sum(i - 1 for i in s) for s in others
    }
    return CarellChart(n, p, variables, weights, equations, std)
