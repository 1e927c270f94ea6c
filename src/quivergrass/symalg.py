"""Exact multivariate polynomial and rational-function arithmetic over Q.

Polynomials are sparse maps from monomials to exact coefficients, always
in canonical form: no zero coefficient is stored, and every coefficient
is in ``_coeff`` normal form (an int, or a Fraction that is not
integral).  ``MultiPoly(registry, _packed=d)`` stores ``d`` as it is, so
the caller hands over a fresh, zero-free, normal dict and gives it up;
every builder here makes one.  Monomials are
packed into integers after Monagan and Pearce (CASC 2007): sixteen bits
per variable, the first registry variable lowest, and above them, at bit
``_BITS * len(registry)`` (``VarRegistry.shift``), an unbounded field
holding the total degree.  Multiplying monomials is one integer
addition, and comparing two keys as plain integers is the graded
canonical order below, so ``leading``, ``degree`` and sorting never
unpack a key.  Total degree at most ``_MASK`` bounds every exponent
field, so no field can carry into the next: ``pack``, the monomial
constructors and ``*`` (hence ``pow``) check that one bound, once per
monomial or once per product, and raise ``SymalgError`` past it instead
of corrupting a neighbouring exponent.  Exact division takes the
largest remainder term from a heap of pending keys (Johnson, EUROSAM
1974) instead of scanning the remainder.

Rational functions are kept factored: a scalar unit times a list of
(primitive polynomial, signed exponent) pairs.  Kernels are products of
short factors, so cancellation is syntactic factor matching with an
exact-division fallback; no multivariate GCD is ever needed.

Factor polynomials have integer coefficients, and the scalar lives only
in the unit: ``rat_sum`` and ``cancelled`` never put it into a
polynomial.  ``cancelled`` expands the numerator factors alone and
divides exactly; by Gauss's lemma products and exact quotients of
primitive polynomials with positive leading terms are again primitive
with positive leading terms, so every step stays on integers.
``rat_sum`` scales the units' numerators to the least common
denominator L of the units, adds the integer numerators in place, and
puts 1/L back into the unit.

Normalization happens in one constructor and one trusted path, and
both end in one merge, ``RationalFunction._trusted``: the exponents of
equal factors summed, the factors put in the factor order.  The public
``RationalFunction`` constructor first splits every factor it is given
into unit times primitive part (``MultiPoly.primitive``) and folds
constant factors into the unit.  Hence the invariant: the factors of an
existing ``RationalFunction`` are primitive and non-constant.
Arithmetic that only recombines existing factors (``*``, ``inverse``,
``pow``, the negated operand of ``-``) relies on it and calls
``_trusted`` alone, so nothing is normalized again.
``substitute`` makes new polynomials through the public constructor.
Exact division has one tail, ``_divided``: it divides a primitive
numerator exactly by the denominator factors in the factor order and
hands the quotient, primitive by Gauss's lemma, to ``_trusted``; a
constant quotient goes into the unit.  ``cancelled`` hands it the
expanded numerator factors.  Every sum (``rat_sum``, hence
``symmetrize``) ends in ``_cancelled_sum``, which normalizes once: it
takes ``primitive`` of the integer total and hands that to
``_divided``, except that a total equal to a common factor merges with
it undivided.  This is the same function, factor for factor, that the
constructor and ``cancelled`` would make of the sum.

``RationalFunction.rename`` is the one transport from chart to chart.  It
sends variable i to target position ``positions[i]``; the positions must
be distinct, so the map is injective: distinct monomials stay distinct,
each factor keeps its content, and distinct factors stay distinct, so
nothing is normalized again.  When the positions strictly increase the
map also keeps the order of packed keys (exponent fields compare from
the highest position down and the degree field moves unchanged), hence
the leading term of every factor and the factor sort order carry over,
and the transported factors are stored as they come.  Otherwise a
factor's leading term may change: a factor whose new leading
coefficient is negative is negated, (-1)^e goes into the unit, and the
factors are sorted again through ``_trusted``.

``symmetrize`` sums f over its shuffle representatives sigma, each a
``rename`` within the registry, by handing ``rat_sum`` an ``_Orbit``: f
and the representatives, the renamed copies t_sigma made only on demand.
Summed one by one, the copies t_sigma would form the common denominator C of their denominators and expand
N_sigma * C / D_sigma once per sigma.  The orbit path expands only once:
when every sigma maps the factor multiset of C to itself up to a sign
eps_sigma, sigma(C) = eps_sigma * C as polynomials, and C contains D_f,
then P = N_f * C / D_f is a polynomial and t_sigma * C = eps_sigma * u *
sigma(P), u the unit of f.  So the numerator ``rat_sum`` would add up is
u.numerator * sum eps_sigma sigma(P), over u.denominator, the same
integers key by key, and the result ends in the same ``_cancelled_sum``:
identical, not just equal.  P is expanded once.  Each sigma(P) is moved
``_CHUNK`` keys at a time by ``_moved_keys``, the mover of ``_repack``:
the exponent fields that sigma moves the same distance, and the degree
field, move together under one mask, one list pass per distance
(``_field_groups``, computed once per representative).  Each chunk goes
straight into the running total; the identity adds P's own keys, and P
is dropped before the cancellation, so no permuted copy of P beyond one
chunk is ever held beside P and the total.  When the check fails (the
coset representatives are no group, so C need not be closed), ``rat_sum``
renames the copies and sums them one by one.

Canonical variable order: the canonical order is the tuple order of
``Variable`` = (role, slot, vpos, index, vname), the roles being their
ranks (torus, dilation, aux), so ``VarRegistry``, ``Character.make`` and
``block_shuffles`` sort with no key.  Aux variables with equal ``index``
tie-break on their name.

Canonical monomial order: graded, ties broken with the *last* registry
variable most significant (that is exactly the packed-integer order).
Factors are sorted by degree, term count, then their terms keyed by the
exponent bits alone (``k & low_mask``, the degree field masked off); that
last key is built only for factors that tie on the first two.
Factors are normalized to integer coefficients with content 1 and a
positive leading coefficient; the scalar they shed is absorbed into the
unit.  This keeps printed forms stable for golden files.

Everything here is immutable after construction and safe to share; a
parallel reduction over symmetrization terms must reproduce the
sequential canonical-order sum bit for bit.
"""

from __future__ import annotations

import itertools
from heapq import heapify, heappop, heappush
from fractions import Fraction
from math import gcd
from operator import add, mul
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

Frac = Fraction

ROLE_TORUS = 0
ROLE_DILATION = 1
ROLE_AUX = 2

_BITS = 16
_MASK = (1 << _BITS) - 1
_CHUNK = 4096  # keys of P moved at a time by the orbit path


def _coeff(c):
    """Exact coefficient normalization: integers stay plain ints (their
    arithmetic is several times faster than Fraction's), everything else
    becomes a Fraction, demoted to int when integral."""
    if type(c) is int:
        return c
    f = Fraction(c)
    return f.numerator if f.denominator == 1 else f


class SymalgError(Exception):
    """Base error for the arithmetic substrate."""


class RegistryMismatchError(SymalgError):
    """Raised when operands live over different variable registries."""


class PoleError(SymalgError):
    """Raised when a denominator factor evaluates to zero."""

    def __init__(self, factor_repr: str):
        super().__init__(f"denominator factor vanishes: {factor_repr}")
        self.factor_repr = factor_repr


class Variable(NamedTuple):
    """A named coordinate; its tuple order is the canonical order.

    ``role`` is ROLE_TORUS for a torus coordinate x[slot, vertex, index],
    ROLE_DILATION for a dilation coordinate, ROLE_AUX for a free symbol.
    ``vpos`` is the vertex position in the quiver's declared vertex order
    (0 for a dilation coordinate, the index for an aux symbol).
    """

    role: int
    slot: int
    vpos: int
    index: int
    vname: str

    @property
    def name(self) -> str:
        if self.role == ROLE_TORUS:
            return f"x[{self.slot},{self.vname},{self.index}]"
        if self.role == ROLE_DILATION:
            return f"d{self.index}"
        return self.vname

    def __repr__(self) -> str:
        return self.name


def x_var(slot: int, vpos: int, vname: str, index: int) -> Variable:
    return Variable(ROLE_TORUS, slot, vpos, index, vname)


def d_var(index: int) -> Variable:
    return Variable(ROLE_DILATION, 0, 0, index, "")


def aux_var(name: str, index: int = 0) -> Variable:
    return Variable(ROLE_AUX, 0, index, index, name)


class VarRegistry:
    """A set of variables in canonical order."""

    def __init__(self, variables: Iterable[Variable]):
        vs = sorted(variables)
        if len(set(vs)) != len(vs):
            raise SymalgError("duplicate variables in registry")
        self.variables: Tuple[Variable, ...] = tuple(vs)
        self.position: Dict[Variable, int] = {v: i for i, v in enumerate(vs)}
        # Bit offset of the total-degree field, the mask of the exponent
        # fields below it, and the lowest bit of every field above the
        # first: subtracting two keys borrows into one of those bits
        # exactly when some exponent of the subtrahend is the larger.
        self.shift = _BITS * len(vs)
        self.low_mask = (1 << self.shift) - 1
        self.borrow_bits = sum(1 << (_BITS * i) for i in range(1, len(vs) + 1))

    def __len__(self) -> int:
        return len(self.variables)

    def __contains__(self, v: Variable) -> bool:
        return v in self.position

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VarRegistry) and self.variables == other.variables

    def __hash__(self) -> int:
        return hash(self.variables)

    def index(self, v: Variable) -> int:
        return self.position[v]

    def pack(self, exponents: Sequence[int]) -> int:
        if len(exponents) > len(self.variables):
            raise SymalgError("more exponents than registry variables")
        key = degree = 0
        for i, e in enumerate(exponents):
            if e < 0:
                raise SymalgError("negative exponent in a monomial")
            key += e << (_BITS * i)
            degree += e
        return key + self.degree_field(degree)

    def degree_field(self, degree: int) -> int:
        """The total-degree field of a key, checked against the bound."""
        if degree > _MASK:
            raise SymalgError("monomial degree exceeds the packing width")
        return degree << self.shift

    def divides(self, a: int, b: int) -> bool:
        """Does monomial key ``a`` divide key ``b``?  ``b - a`` borrows into
        a field's lowest bit exactly when some exponent of ``a`` is the
        larger (the inline test of ``MultiPoly.divide_exact``)."""
        return not ((b - a) ^ b ^ a) & self.borrow_bits

    def lcm(self, a: int, b: int) -> int:
        """The key of the least common multiple of monomial keys ``a`` and
        ``b``: the larger exponent field by field, under a checked degree."""
        key = degree = 0
        for offset in range(0, self.shift, _BITS):
            e = max((a >> offset) & _MASK, (b >> offset) & _MASK)
            key += e << offset
            degree += e
        return key + self.degree_field(degree)

    def unpack(self, key: int) -> Tuple[int, ...]:
        out = []
        for _ in range(len(self.variables)):
            out.append(key & _MASK)
            key >>= _BITS
        return tuple(out)

    def __repr__(self) -> str:
        return "VarRegistry(" + ", ".join(v.name for v in self.variables) + ")"


class _Layout(NamedTuple):
    """A polynomial as ``MultiPoly.evaluate`` reads it: the variables that
    occur, each with its largest exponent, and each term as (coefficient,
    its exponents of those variables)."""

    variables: Tuple[Tuple[Variable, int], ...]
    rows: Tuple[Tuple[Union[int, Fraction], Tuple[int, ...]], ...]


def _same_registry(a: "MultiPoly", b: "MultiPoly") -> None:
    if a.registry != b.registry:
        raise RegistryMismatchError("operands use different variable registries")


def _var_key(registry: VarRegistry, v: Variable) -> int:
    return (1 << (_BITS * registry.index(v))) + registry.degree_field(1)


class MultiPoly:
    """Sparse exact polynomial over a registry.

    The constructor accepts exponent tuples; internal storage is packed.
    """

    __slots__ = ("registry", "terms", "_hash", "_layout")

    def __init__(
        self,
        registry: VarRegistry,
        terms: Mapping[Tuple[int, ...], Frac] = (),
        _packed: Optional[Dict[int, Frac]] = None,
    ):
        self.registry = registry
        if _packed is not None:
            self.terms: Dict[int, Frac] = _packed
        else:
            self.terms = {}
            for e, c in dict(terms).items():
                c = _coeff(c)
                if c == 0:
                    continue
                key = registry.pack(e)
                prev = self.terms.get(key)
                self.terms[key] = c if prev is None else _coeff(prev + c)
                if self.terms[key] == 0:
                    del self.terms[key]
        self._hash: Optional[int] = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(registry: VarRegistry) -> "MultiPoly":
        return MultiPoly(registry, _packed={})

    @staticmethod
    def const(registry: VarRegistry, c) -> "MultiPoly":
        c = _coeff(c)
        return MultiPoly(registry, _packed=({0: c} if c else {}))

    @staticmethod
    def var(registry: VarRegistry, v: Variable) -> "MultiPoly":
        return MultiPoly(registry, _packed={_var_key(registry, v): 1})

    @staticmethod
    def monomial(registry: VarRegistry, exps: Mapping[Variable, int], coeff=1) -> "MultiPoly":
        exponents = [0] * len(registry)
        for v, e in exps.items():
            exponents[registry.index(v)] = e
        key = registry.pack(exponents)
        coeff = _coeff(coeff)
        return MultiPoly(registry, _packed=({key: coeff} if coeff else {}))

    @staticmethod
    def linear(registry: VarRegistry, coeffs: Mapping[Variable, int], const=0) -> "MultiPoly":
        packed: Dict[int, Frac] = {}
        for v, c in coeffs.items():
            if c:
                packed[_var_key(registry, v)] = _coeff(c)
        if const:
            packed[0] = packed.get(0, 0) + _coeff(const)
        return MultiPoly(registry, _packed=packed)

    # -- basic structure ----------------------------------------------

    def items_unpacked(self):
        unpack = self.registry.unpack
        for k, c in self.terms.items():
            yield unpack(k), c

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(k == 0 for k in self.terms)

    def constant_value(self) -> Frac:
        if self.is_zero():
            return Frac(0)
        if not self.is_constant():
            raise SymalgError("not a constant polynomial")
        return next(iter(self.terms.values()))

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(self.terms) >> self.registry.shift

    def leading(self) -> Tuple[int, Frac]:
        """Leading (packed monomial, coefficient) in the canonical order."""
        if not self.terms:
            raise SymalgError("zero polynomial has no leading term")
        k = max(self.terms)
        return k, self.terms[k]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.registry == other.registry
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.registry, frozenset(self.terms.items())))
        return self._hash

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        _same_registry(self, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            if s is None:
                out[k] = c
            else:
                s = s + c
                if s:
                    out[k] = _coeff(s)
                else:
                    del out[k]
        return MultiPoly(self.registry, _packed=out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.registry, _packed={k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        _same_registry(self, other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            if s is None:
                out[k] = -c
            else:
                s = s - c
                if s:
                    out[k] = _coeff(s)
                else:
                    del out[k]
        return MultiPoly(self.registry, _packed=out)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        _same_registry(self, other)
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.registry)
        a, b = self.terms, other.terms
        shift = self.registry.shift
        # Degrees add; within the bound no exponent field can carry.
        self.registry.degree_field((max(a) >> shift) + (max(b) >> shift))
        if len(a) > len(b):
            a, b = b, a
        out: Dict[int, Frac] = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                s = get(k)
                if s is None:
                    out[k] = ca * cb
                else:
                    s = s + ca * cb
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        if {*map(type, a.values()), *map(type, b.values())} != {int}:
            # Fraction products and sums may be integral: demote them.
            out = {k: _coeff(c) for k, c in out.items()}
        return MultiPoly(self.registry, _packed=out)

    def scale(self, c) -> "MultiPoly":
        c = _coeff(c)
        if c == 0:
            return MultiPoly.zero(self.registry)
        return MultiPoly(self.registry, _packed={k: _coeff(c * v) for k, v in self.terms.items()})

    def pow(self, n: int) -> "MultiPoly":
        if n < 0:
            raise SymalgError("negative power of a polynomial")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return MultiPoly.const(self.registry, 1) if result is None else result

    def truncate(self, max_degree: int) -> "MultiPoly":
        bound = (max_degree + 1) << self.registry.shift  # least key of higher degree
        return MultiPoly(
            self.registry,
            _packed={k: c for k, c in self.terms.items() if k < bound},
        )

    # -- evaluation / substitution --------------------------------------

    def evaluate(self, assignment: Mapping[Variable, Frac]) -> Frac:
        """The value at ``assignment``, which must hold every variable that
        occurs here (``KeyError`` otherwise); no other variable is read.

        Evaluated over the integers: with the value of variable i written
        n_i/d_i (d_i > 0) and E_i its largest exponent here, the value is
        sum c * prod n_i^e_i * d_i^(E_i - e_i), divided once by prod
        d_i^E_i.  A Fraction coefficient makes that sum a Fraction, and the
        result is exact either way.  The variables that occur and the terms'
        exponents of them are read once per polynomial and kept."""
        num, den = self._ratio(assignment)
        return Frac(num, den)

    def _ratio(self, assignment: Mapping[Variable, Frac]) -> Tuple[Union[int, Frac], int]:
        """(N, D) with the value N / D and D > 0, by the formula of
        ``evaluate``; N is an int when every coefficient is."""
        layout = getattr(self, "_layout", None)  # the slot is set on first use
        if layout is None:
            rows = [(self.registry.unpack(k), c) for k, c in self.terms.items()]
            tops = [max(col) for col in zip(*(exps for exps, _ in rows))]
            occurring = [i for i, top in enumerate(tops) if top]
            layout = self._layout = _Layout(
                tuple((self.registry.variables[i], tops[i]) for i in occurring),
                tuple((c, tuple(exps[i] for i in occurring)) for exps, c in rows),
            )
        variables, rows = layout
        den = 1
        powers: List[List[int]] = []  # n_i^e * d_i^(E_i - e) by e, per occurring variable
        for v, top in variables:
            x = assignment[v]
            if not isinstance(x, (int, Frac)):
                x = Frac(x)
            n, d = x.numerator, x.denominator
            powers.append([n ** e * d ** (top - e) for e in range(top + 1)])
            den *= d ** top
        total = 0
        for c, exps in rows:
            for e, by_e in zip(exps, powers):
                c *= by_e[e]
            total += c
        return total, den

    def substitute(self, assignment: Mapping[Variable, Frac]) -> "MultiPoly":
        """Replace a subset of variables by scalars (registry unchanged)."""
        idx = {self.registry.index(v): Frac(c) for v, c in assignment.items()}
        out: Dict[int, Frac] = {}
        for exps, c in self.items_unpacked():
            t = c
            ne = list(exps)
            for i, val in idx.items():
                if exps[i]:
                    t *= val ** exps[i]
                    ne[i] = 0
            if t == 0:
                continue
            key = self.registry.pack(ne)
            s = out.get(key, 0) + t
            if s:
                out[key] = _coeff(s)
            else:
                out.pop(key, None)
        return MultiPoly(self.registry, _packed=out)

    # -- normal forms ----------------------------------------------------

    def primitive(self) -> Tuple[Frac, "MultiPoly"]:
        """Split into (unit, primitive part): integer coefficients, content 1,
        positive leading coefficient under the canonical monomial order.
        An already primitive polynomial is returned as it is."""
        if self.is_zero():
            return Frac(0), self
        den_lcm = 1
        for c in self.terms.values():
            den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
        # Coefficients scaled to integers, then their content g, signed so
        # that the leading coefficient comes out positive; every division
        # by g below is exact.
        ints = [c.numerator * (den_lcm // c.denominator) for c in self.terms.values()]
        g = gcd(*ints)
        if self.leading()[1] < 0:
            g = -g
        if g == den_lcm == 1:
            return Frac(1), self
        return Frac(g, den_lcm), MultiPoly(
            self.registry, _packed={k: n // g for k, n in zip(self.terms, ints)}
        )

    def divide_exact(self, divisor: "MultiPoly") -> Optional["MultiPoly"]:
        """Quotient self/divisor if the division is exact, else None."""
        _same_registry(self, divisor)
        if divisor.is_zero():
            raise SymalgError("division by the zero polynomial")
        if self.is_zero():
            return self
        dk, dc = divisor.leading()
        borrow_bits = self.registry.borrow_bits
        rem = dict(self.terms)
        # Max-heap of negated remainder keys.  An entry whose term has
        # cancelled is stale and skipped; a key re-created after that is
        # pushed again.  Each step takes the largest remaining key and only
        # creates smaller ones, so no key is ever processed twice.
        pending = [-k for k in rem]
        heapify(pending)
        q: Dict[int, Frac] = {}
        dterms = [(fk, fc) for fk, fc in divisor.terms.items() if fk != dk]
        while pending:
            k = -heappop(pending)
            c = rem.pop(k, None)
            if c is None:
                continue
            tk = k - dk
            if (tk ^ k ^ dk) & borrow_bits:  # dk does not divide k (VarRegistry.divides)
                return None
            # Exact quotients stay integers; only a non-integral one is a Fraction.
            tq, r = divmod(c, dc)
            tc = q[tk] = tq if not r else Frac(c) / dc
            for fk, fc in dterms:
                nk = tk + fk
                s = rem.get(nk)
                if s is None:
                    rem[nk] = -tc * fc
                    heappush(pending, -nk)
                else:
                    s -= tc * fc
                    if s:
                        rem[nk] = s
                    else:
                        del rem[nk]
        return MultiPoly(self.registry, _packed=q)

    # -- display ----------------------------------------------------------

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            exps = self.registry.unpack(k)
            mono = "*".join(
                f"{v.name}^{e}" if e > 1 else v.name
                for v, e in zip(self.registry.variables, exps)
                if e
            )
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits).replace("+ -", "- ")


# (distance, mask) pairs: a key moves to the OR of ``(k & mask)`` shifted
# left by each distance (right by a negative one).
_Groups = Tuple[Tuple[int, int], ...]


def _field_groups(positions: Sequence[int], source: VarRegistry, target: VarRegistry) -> _Groups:
    """How ``_moved_keys`` moves a key of ``source`` into ``target``, exponent
    field i into field ``positions[i]`` and the degree field from
    ``source.shift`` to ``target.shift``: the fields that move the same
    distance share one mask, and the unbounded degree field is the mask of
    every bit from ``source.shift`` up (a negative int)."""
    groups = {target.shift - source.shift: -1 << source.shift}
    get = groups.get
    for i, p in enumerate(positions):
        d = _BITS * (p - i)
        groups[d] = get(d, 0) | _MASK << (_BITS * i)
    return tuple(groups.items())


def _moved_keys(keys: Sequence[int], groups: _Groups) -> List[int]:
    """Each packed key of ``keys`` moved by ``groups``, one list pass per
    group; the target fields are disjoint, so OR-ing the moved groups adds
    them."""
    d, m = groups[0]
    out = [(k & m) << d for k in keys] if d >= 0 else [(k & m) >> -d for k in keys]
    for d, m in groups[1:]:
        if d >= 0:
            out = [o | (k & m) << d for o, k in zip(out, keys)]
        else:
            out = [o | (k & m) >> -d for o, k in zip(out, keys)]
    return out


def _repack(
    factors: Iterable[Tuple[MultiPoly, int]], groups: _Groups, target: VarRegistry
) -> List[Tuple[MultiPoly, int]]:
    """Every (polynomial, exponent) pair with the polynomial's keys moved by
    ``groups`` (``_field_groups``) into ``target``, all their keys in one
    ``_moved_keys`` call.  The positions are distinct, so distinct keys
    stay distinct and the degree field moves unchanged."""
    factors = list(factors)
    moved = iter(_moved_keys([k for p, _ in factors for k in p.terms], groups))
    islice = itertools.islice
    return [
        (MultiPoly(target, _packed=dict(zip(islice(moved, len(p.terms)), p.terms.values()))), e)
        for p, e in factors
    ]


def _tie_key(p: MultiPoly) -> List[Tuple[int, int]]:
    """The factor order's tie-break: the terms keyed by their exponent bits
    (``k & low_mask``).  Factor coefficients are integers (the factor
    invariant), so the coefficient compares as itself."""
    return sorted(zip(map(p.registry.low_mask.__and__, p.terms), p.terms.values()))


def _in_factor_order(pairs: Sequence[Tuple[MultiPoly, int]]) -> Tuple[Tuple[MultiPoly, int], ...]:
    """The (factor, exponent) pairs, distinct factors over one registry,
    sorted by degree, then term count, then ``_tie_key``; the tie-break
    is built only for the factors whose degree and term count tie."""
    if len(pairs) < 2:
        return tuple(pairs)
    shift = pairs[0][0].registry.shift
    keys = [(max(p.terms) >> shift, len(p.terms)) for p, _ in pairs]
    if len(set(keys)) < len(keys):
        count: Dict[Tuple[int, int], int] = {}
        for key in keys:
            count[key] = count.get(key, 0) + 1
        keys = [key + (_tie_key(p),) if count[key] > 1 else key for key, (p, _) in zip(keys, pairs)]
    return tuple(pairs[i] for i in sorted(range(len(pairs)), key=keys.__getitem__))


class RationalFunction:
    """Scalar unit times a product of primitive-polynomial powers."""

    __slots__ = ("registry", "unit", "factors")

    def __init__(
        self,
        registry: VarRegistry,
        unit,
        factors: Iterable[Tuple[MultiPoly, int]] = (),
    ):
        unit = Frac(unit)
        prims: List[Tuple[MultiPoly, int]] = []
        for p, e in factors:
            if e == 0:
                continue
            if p.registry != registry:
                raise RegistryMismatchError("factor over a different registry")
            if p.is_zero():
                if e < 0:
                    raise SymalgError("zero factor with negative exponent")
                unit = Frac(0)
                continue
            u, prim = p.primitive()
            if prim.is_constant():
                unit *= (u * prim.constant_value()) ** e
                continue
            unit *= u ** e
            prims.append((prim, e))
        merged = RationalFunction._trusted(registry, unit, prims)
        self.registry, self.unit, self.factors = registry, merged.unit, merged.factors

    @classmethod
    def _trusted(
        cls,
        registry: VarRegistry,
        unit: Frac,
        factors: Iterable[Tuple[MultiPoly, int]],
    ) -> "RationalFunction":
        """Merge factors that already satisfy the factor invariant (primitive,
        non-constant, over ``registry``); ``unit`` must be a Fraction.  Only
        exponents are summed, and the factors put in the factor order:
        nothing is normalized again.  The public constructor ends here too."""
        self = cls.__new__(cls)
        self.registry = registry
        if unit == 0:
            self.unit = Frac(0)
            self.factors: Tuple[Tuple[MultiPoly, int], ...] = ()
            return self
        merged: Dict[MultiPoly, int] = {}
        for p, e in factors:
            merged[p] = merged.get(p, 0) + e
        self.unit = unit
        self.factors = _in_factor_order([(p, e) for p, e in merged.items() if e != 0])
        return self

    # -- constructors -----------------------------------------------------

    @staticmethod
    def one(registry: VarRegistry) -> "RationalFunction":
        return RationalFunction._trusted(registry, Frac(1), ())

    @staticmethod
    def zero(registry: VarRegistry) -> "RationalFunction":
        return RationalFunction._trusted(registry, Frac(0), ())

    @staticmethod
    def from_poly(p: MultiPoly) -> "RationalFunction":
        return RationalFunction(p.registry, 1, [(p, 1)])

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.unit == 0

    def is_scalar(self) -> bool:
        return not self.factors

    def scalar_value(self) -> Frac:
        if not self.is_scalar():
            raise SymalgError("not a scalar")
        return self.unit

    def is_regular(self) -> bool:
        """Polynomial up to units of the coordinate ring: any denominator
        factor must be a single monomial (invertible on the torus)."""
        return all(e > 0 or len(p.terms) == 1 for p, e in self.factors)

    def is_monomial_unit(self) -> bool:
        """True for c * (product of single-term factors)^Z, c != 0."""
        return self.unit != 0 and all(len(p.terms) == 1 for p, _ in self.factors)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RationalFunction)
            and self.registry == other.registry
            and self.unit == other.unit
            and self.factors == other.factors
        )

    def __hash__(self) -> int:
        return hash((self.registry, self.unit, self.factors))

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        if self.registry != other.registry:
            raise RegistryMismatchError("product over different registries")
        return RationalFunction._trusted(
            self.registry, self.unit * other.unit, self.factors + other.factors
        )

    def inverse(self) -> "RationalFunction":
        if self.unit == 0:
            raise SymalgError("inverse of zero")
        return RationalFunction._trusted(
            self.registry, 1 / self.unit, [(p, -e) for p, e in self.factors]
        )

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        return self * other.inverse()

    def pow(self, n: int) -> "RationalFunction":
        if n == 1:
            return self
        if self.unit == 0:
            if n <= 0:
                raise SymalgError("zero to a non-positive power")
            return self
        return RationalFunction._trusted(
            self.registry, self.unit ** n, [(p, e * n) for p, e in self.factors]
        )

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return rat_sum([self, other])

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return rat_sum([self, RationalFunction._trusted(other.registry, -other.unit, other.factors)])

    def numerator(self) -> MultiPoly:
        num = _expand(self.registry, [(p, e) for p, e in self.factors if e > 0])
        return num if self.unit == 1 else num.scale(self.unit)

    def denominator(self) -> MultiPoly:
        return _expand(self.registry, self.denominator_factors())

    def denominator_factors(self) -> Tuple[Tuple[MultiPoly, int], ...]:
        return tuple((p, -e) for p, e in self.factors if e < 0)

    # -- normalization --------------------------------------------------------

    def cancelled(self) -> "RationalFunction":
        """Push exact-division cancellation of denominators into numerators."""
        if self.unit == 0:
            return self
        nums = [(p, e) for p, e in self.factors if e > 0]
        dens = [(p, -e) for p, e in self.factors if e < 0]
        if not nums or not dens:
            return self
        return _divided(self.registry, self.unit, _expand(self.registry, nums), dens)

    # -- maps -------------------------------------------------------------------

    def rename(self, positions: Sequence[int], target: VarRegistry) -> "RationalFunction":
        """Transport into ``target``, variable i going to the distinct
        position ``positions[i]``; nothing is normalized again (see the
        module docstring)."""
        size = len(target)
        if (
            len(positions) != len(self.registry)
            or len(set(positions)) != len(positions)
            or not all(0 <= p < size for p in positions)
        ):
            raise SymalgError("a transport needs distinct positions in the target")
        groups = _field_groups(positions, self.registry, target)
        if all(a < b for a, b in zip(positions, positions[1:])):
            out = RationalFunction.__new__(RationalFunction)
            out.registry = target
            out.unit = self.unit
            out.factors = tuple(_repack(self.factors, groups, target))
            return out
        sign, factors = _moved_factors(self.factors, groups, target)
        return RationalFunction._trusted(target, -self.unit if sign < 0 else self.unit, factors)

    def substitute(self, assignment: Mapping[Variable, Frac]) -> "RationalFunction":
        out: List[Tuple[MultiPoly, int]] = []
        for p, e in self.factors:
            s = p.substitute(assignment)
            if s.is_zero() and e < 0:
                raise PoleError(repr(p))
            out.append((s, e))
        return RationalFunction(self.registry, self.unit, out)

    def evaluate(self, assignment: Mapping[Variable, Frac]) -> Frac:
        """The value at ``assignment``, factor by factor over the integers
        (``MultiPoly.evaluate``); ``PoleError`` names a vanishing
        denominator factor."""
        num, den = self._ratio(assignment)
        return Frac(num, den)

    def _ratio(self, assignment: Mapping[Variable, Frac], power: int = 1) -> Tuple[int, int]:
        """(N, D) with N / D the value of ``self.pow(power)`` at
        ``assignment``, read factor by factor without building the power."""
        if self.unit == 0:
            if power <= 0:
                raise SymalgError("zero to a non-positive power")
            return 0, 1
        # Scan all factors before multiplying so poles are reported even
        # when a numerator factor vanishes at the same point.
        vals: List[Tuple[int, int, int]] = []
        for p, e in self.factors:
            n, d = p._ratio(assignment)
            e *= power
            if e < 0 and n == 0:
                raise PoleError(repr(p))
            vals.append((n, d, e) if e > 0 else (d, n, -e))
        num, den = self.unit.numerator, self.unit.denominator
        num, den = (num ** power, den ** power) if power > 0 else (den ** -power, num ** -power)
        for n, d, e in vals:
            num *= n ** e
            den *= d ** e
        return num, den

    # -- display -------------------------------------------------------------------

    def __repr__(self) -> str:
        if self.unit == 0:
            return "0"
        bits = []
        if self.unit != 1 or not self.factors:
            bits.append(str(self.unit))
        for p, e in self.factors:
            s = f"({p})"
            if e != 1:
                s += f"^{e}"
            bits.append(s)
        return " * ".join(bits)


def _moved_factors(
    factors: Iterable[Tuple[MultiPoly, int]], groups: _Groups, target: VarRegistry
) -> Tuple[int, List[Tuple[MultiPoly, int]]]:
    """Each factor ``_repack``ed, and negated where its new leading
    coefficient is negative; with the sign, +-1, that the product of their
    powers changed by."""
    sign = 1
    out: List[Tuple[MultiPoly, int]] = []
    for q, e in _repack(factors, groups, target):
        if q.leading()[1] < 0:
            q = -q
            if e % 2:
                sign = -sign
        out.append((q, e))
    return sign, out


def _expand(registry: VarRegistry, powers: Iterable[Tuple[MultiPoly, int]]) -> MultiPoly:
    """The expanded product of ``p ** e`` over ``powers``, all e > 0,
    started from the first power; 1 for no powers."""
    out: Optional[MultiPoly] = None
    for p, e in powers:
        pw = p.pow(e)
        out = pw if out is None else out * pw
    return MultiPoly.const(registry, 1) if out is None else out


def rat_sum(terms: Union[Sequence[RationalFunction], "_Orbit"]) -> RationalFunction:
    """Exact n-ary sum over a common denominator, with cancellation.

    A single nonzero term is returned as it is, uncancelled.  An ``_Orbit``
    is summed by the orbit path when it applies (module docstring), and
    otherwise renamed into its terms."""
    if isinstance(terms, _Orbit):
        orbit = _orbit_sum(terms.f, terms.reps)
        if orbit is not None:
            return orbit
        terms = list(terms)
    if not terms:
        raise SymalgError("empty sum needs a registry; use RationalFunction.zero")
    registry0 = terms[0].registry
    terms = [t for t in terms if t.unit != 0]
    if not terms:
        return RationalFunction.zero(registry0)
    registry = terms[0].registry
    for t in terms:
        if t.registry != registry:
            raise RegistryMismatchError("sum over different registries")
    if len(terms) == 1:
        return terms[0]
    common: Dict[MultiPoly, int] = {}
    for t in terms:
        for p, e in t.factors:
            if e < 0:
                common[p] = max(common.get(p, 0), -e)
    # Integer numerators over the lcm L of the unit denominators, added in
    # place; 1/L goes back into the unit.
    lcm = 1
    for t in terms:
        d = t.unit.denominator
        lcm = lcm * d // gcd(lcm, d)
    total: Dict[int, int] = {}
    for t in terms:
        scale = t.unit.numerator * (lcm // t.unit.denominator)
        poly = _expand(registry, _over_common(t, common)).terms
        _add_scaled(total, poly, poly.values(), scale)
    return _cancelled_sum(registry, total, lcm, common)


def _over_common(f: RationalFunction, common: Mapping[MultiPoly, int]) -> List[Tuple[MultiPoly, int]]:
    """The powers whose product is f's numerator times ``common`` over f's
    denominator (N_f * C / D_f); f's denominator must divide ``common``."""
    dens = {p: -e for p, e in f.factors if e < 0}
    powers = [(p, e) for p, e in f.factors if e > 0]
    for p, need in common.items():
        deficit = need - dens.get(p, 0)
        if deficit:
            powers.append((p, deficit))
    return powers


def _add_scaled(total: Dict[int, int], keys: Sequence[int], coeffs: Iterable[int], scale: int) -> None:
    """Add ``scale`` times the terms (``keys``, ``coeffs``) into ``total`` in
    place.  ``keys`` (a list or a dict) are distinct and read twice in
    step: each sum is read before its key is written.  A key whose sum
    cancels stays, at 0, until ``_cancelled_sum`` drops it."""
    before = map(total.get, keys, itertools.repeat(0))
    total.update(zip(keys, map(add, before, map(mul, coeffs, itertools.repeat(scale)))))


def _cancelled_sum(
    registry: VarRegistry, total: Dict[int, int], lcm: int, common: Mapping[MultiPoly, int]
) -> RationalFunction:
    """The cancelled sum (total / lcm) / ``common``, as every sum ends,
    normalized once: the total's primitive part goes to ``_divided`` with
    the common factors in the factor order.  A total equal to a common
    factor merges with it undivided, as the constructor merges equal
    factors."""
    for k in [k for k, c in total.items() if not c]:
        del total[k]
    u, num = MultiPoly(registry, _packed=total).primitive()
    if not u:
        return RationalFunction._trusted(registry, u, ())
    dens = _in_factor_order(list(common.items()))
    if any(p == num for p, _ in dens):
        return RationalFunction._trusted(registry, u / lcm, [(num, 1)] + [(p, -e) for p, e in dens])
    return _divided(registry, u / lcm, num, dens)


def _divided(
    registry: VarRegistry, unit: Frac, num: MultiPoly, dens: Iterable[Tuple[MultiPoly, int]]
) -> RationalFunction:
    """``unit`` * num / prod p^e over ``dens`` (e > 0, in the factor order),
    num primitive with a positive leading term: num is divided exactly by
    each factor as often as it goes, and the result is built through
    ``_trusted`` (by Gauss's lemma each quotient is primitive); a constant
    quotient is dropped."""
    out: List[Tuple[MultiPoly, int]] = []
    for p, e in dens:
        while e and not num.is_constant():
            q = num.divide_exact(p)
            if q is None:
                break
            num = q
            e -= 1
        if e:
            out.append((p, -e))
    return RationalFunction._trusted(registry, unit, out if num.is_constant() else [(num, 1)] + out)


def rat_equal(a: RationalFunction, b: RationalFunction) -> bool:
    """Functional equality via cross-multiplied expansion."""
    if a.registry != b.registry:
        raise RegistryMismatchError("comparison over different registries")
    if a.unit == 0 or b.unit == 0:
        return a.unit == b.unit
    if a.factors == b.factors:
        return a.unit == b.unit
    if a.denominator_factors() == b.denominator_factors():
        return a.numerator() == b.numerator()
    left = a.numerator() * b.denominator()
    right = b.numerator() * a.denominator()
    return left == right


def block_shuffles(blocks: Sequence[Sequence[Variable]]) -> List[Dict[Variable, Variable]]:
    """Coset representatives of prod(S_block) inside the symmetric group of
    the union, as variable substitution maps.

    Each block keeps its internal order; representatives choose which
    positions of the union each block occupies.  Blocks must be disjoint
    and share a color (same role, slot, vertex).
    """
    allv: List[Variable] = []
    for b in blocks:
        allv.extend(b)
    if len(set(allv)) != len(allv):
        raise SymalgError("blocks overlap")
    if len({(v.role, v.slot, v.vpos) for v in allv}) > 1:
        raise SymalgError("blocks span more than one color")
    union = sorted(allv)
    n = len(union)
    sizes = [len(b) for b in blocks]
    reps: List[Dict[Variable, Variable]] = []
    position_sets = _ordered_set_partitions(n, sizes)
    for parts in position_sets:
        m: Dict[Variable, Variable] = {}
        for block, positions in zip(blocks, parts):
            for v, pos in zip(block, positions):
                m[v] = union[pos]
        reps.append(m)
    return reps


def _ordered_set_partitions(n: int, sizes: Sequence[int]) -> List[List[Tuple[int, ...]]]:
    if sum(sizes) != n:
        raise SymalgError("block sizes must cover the color")
    out: List[List[Tuple[int, ...]]] = []

    def rec(remaining: Tuple[int, ...], k: int, acc: List[Tuple[int, ...]]):
        if k == len(sizes):
            out.append(list(acc))
            return
        for combo in itertools.combinations(remaining, sizes[k]):
            rest = tuple(i for i in remaining if i not in combo)
            acc.append(combo)
            rec(rest, k + 1, acc)
            acc.pop()

    rec(tuple(range(n)), 0, [])
    return out


def symmetrize(
    f: RationalFunction, partition: Sequence[Sequence[Sequence[Variable]]]
) -> RationalFunction:
    """Sum of f over shuffle representatives, one block family per color.

    ``partition`` is a list of per-color block lists.  The result is the
    sum over the product of each color's representatives, in canonical
    order (deterministic, so a parallel reduction must reproduce it), and
    it is cancelled, also when there is only one representative.
    """
    registry = f.registry
    reps = _representatives(registry, partition)
    if len(reps) == 1:
        return f.rename(reps[0], registry).cancelled()
    return rat_sum(_Orbit(f, reps))


class _Orbit:
    """The summands of ``symmetrize``: f renamed by every position list in
    ``reps``, in order, each renamed only when iterated."""

    __slots__ = ("f", "reps")

    def __init__(self, f: RationalFunction, reps: Sequence[Sequence[int]]):
        self.f = f
        self.reps = reps

    def __len__(self) -> int:
        return len(self.reps)

    def __iter__(self) -> Iterator[RationalFunction]:
        f = self.f
        return (f.rename(positions, f.registry) for positions in self.reps)


def _representatives(
    registry: VarRegistry, partition: Sequence[Sequence[Sequence[Variable]]]
) -> List[List[int]]:
    """The shuffle representatives of ``symmetrize`` as ``rename`` position
    lists, in canonical order: the product of every color's
    ``block_shuffles``."""
    per_color = [block_shuffles(blocks) for blocks in partition]
    reps: List[List[int]] = []
    for combo in itertools.product(*per_color):
        m: Dict[Variable, Variable] = {}
        for part in combo:
            m.update(part)
        reps.append([registry.index(m.get(v, v)) for v in registry.variables])
    return reps


def _orbit_sum(f: RationalFunction, reps: Sequence[Sequence[int]]) -> Optional[RationalFunction]:
    """The orbit path of ``symmetrize`` (module docstring): equal to
    ``rat_sum`` of f renamed by every position list in ``reps``, or None
    when some representative does not map the common denominator to +-
    itself."""
    registry = f.registry
    if f.unit == 0:
        return None
    movers = [_field_groups(positions, registry, registry) for positions in reps]
    dens = [(p, -e) for p, e in f.factors if e < 0]
    # The common denominator rat_sum would form: every denominator factor
    # moved as ``rename`` moves it, at its largest power.
    common: Dict[MultiPoly, int] = {}
    for groups in movers:
        for q, e in _moved_factors(dens, groups, registry)[1]:
            if common.get(q, 0) < e:
                common[q] = e
    signs: List[int] = []
    for groups in movers:
        sign, image = _moved_factors(common.items(), groups, registry)
        if dict(image) != common:
            return None
        signs.append(sign)
    if any(common.get(p, 0) < e for p, e in dens):
        return None
    terms = _expand(registry, _over_common(f, common)).terms
    keys, coeffs = list(terms), list(terms.values())
    del terms
    identity = list(range(len(registry)))
    total: Dict[int, int] = {}
    for positions, groups, sign in zip(reps, movers, signs):
        scale = sign * f.unit.numerator
        if positions == identity:
            _add_scaled(total, keys, coeffs, scale)
            continue
        # sigma(P), moved into the total one chunk of keys at a time.
        for i in range(0, len(keys), _CHUNK):
            _add_scaled(total, _moved_keys(keys[i:i + _CHUNK], groups), coeffs[i:i + _CHUNK], scale)
    del keys, coeffs  # P goes before the cancellation
    return _cancelled_sum(registry, total, f.unit.denominator, common)
