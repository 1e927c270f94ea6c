"""Formal group backends and the orientation map on torus characters.

Three backends realize the coordinate of the one-dimensional group that
drives every kernel factor:

* additive  -- exact; a character maps to its linear form.
* multiplicative -- exact; the registry variables are read as the
  exponentiated coordinates X_v, and a character sum(n_v * v) maps to
  1 - prod X_v^(-n_v), stored in factored form with non-negative
  exponents.
* series(F, N) -- a truncated law F(u,v) = u + v + sum a_ij u^i v^j;
  a character maps to the F-combination of its coordinates truncated at
  total degree N.

An orientation depends only on the law and on the character's
coefficients, in order: every registry is in canonical order, so the
positions of a character's variables always increase.  ``canonical``
computes it once per (law, coefficients) on the canonical aux registry
y1..yk and keeps it in a memo shared by every chart and bounded by
``_ORIENTATIONS_SIZE`` (the oldest entry goes first), so ``f_add`` and
``f_inverse_series`` run once per coefficient tuple, not once per
factor.  ``lambda_char`` transports it into a chart with
``RationalFunction.rename`` along those positions.  At a point,
orientations are read on the canonical chart and never transported:
``power_at`` evaluates the canonical orientation at yi = the value of the
i-th variable of the character.  A rename is an injective transport of
variables, so both give the same value.

Values are immutable; a law can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Frac
from typing import Dict, Mapping, NamedTuple, Tuple

from .quiver import json_int, json_rational, read_json
from .symalg import (
    MultiPoly,
    RationalFunction,
    SymalgError,
    Variable,
    VarRegistry,
    aux_var,
)

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
SERIES = "series"


class TruncationOverflowError(SymalgError):
    """Raised when a series-backend computation exceeds safe bounds."""


# Canonical orientations by (law, coefficients).
_ORIENTATIONS_SIZE = 256
_ORIENTATIONS: Dict[tuple, RationalFunction] = {}


class Character(NamedTuple):
    """Integer combination of torus coordinates and dilation coordinates.

    ``coeffs`` holds (variable, nonzero coefficient) pairs in canonical
    variable order, so equal characters are equal tuples.
    """

    coeffs: Tuple[Tuple[Variable, int], ...]

    @staticmethod
    def make(coeffs: Mapping[Variable, int]) -> "Character":
        return Character(tuple(sorted((v, int(c)) for v, c in coeffs.items() if c != 0)))

    @staticmethod
    def zero() -> "Character":
        return Character(())

    def is_zero(self) -> bool:
        return not self.coeffs

    def check_in(self, registry: VarRegistry) -> None:
        """Raise ``SymalgError`` unless every variable is in ``registry``."""
        for v, _ in self.coeffs:
            if v not in registry:
                raise SymalgError(f"character uses {v.name} outside the registry")

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for v, c in self.coeffs:
            if c == 1:
                bits.append(f"+{v.name}")
            elif c == -1:
                bits.append(f"-{v.name}")
            else:
                bits.append(f"{c:+d}*{v.name}")
        s = "".join(bits)
        return s[1:] if s.startswith("+") else s


@dataclass(frozen=True)
class FormalGroupLaw:
    """Backend selector plus, for the series case, the law coefficients."""

    backend: str
    coeffs: Tuple[Tuple[Tuple[int, int], Frac], ...] = ()
    order: int = 0

    @staticmethod
    def additive() -> "FormalGroupLaw":
        return FormalGroupLaw(ADDITIVE)

    @staticmethod
    def multiplicative() -> "FormalGroupLaw":
        return FormalGroupLaw(MULTIPLICATIVE)

    @staticmethod
    def series(coeffs: Mapping[Tuple[int, int], Frac], order: int) -> "FormalGroupLaw":
        if order < 2:
            raise TruncationOverflowError("series order must be at least 2")
        items = []
        for (i, j), c in coeffs.items():
            if i < 1 or j < 1:
                raise SymalgError("series coefficients start at a_{11}")
            if i + j > order:
                continue
            if c != 0:
                items.append(((i, j), Frac(c)))
        return FormalGroupLaw(SERIES, tuple(sorted(items)), order)

    def f_add(self, a: MultiPoly, b: MultiPoly) -> MultiPoly:
        """F(a, b), truncated for the series backend."""
        if self.backend == ADDITIVE:
            return a + b
        if self.backend == MULTIPLICATIVE:
            return a + b - a * b
        out = a + b
        for (i, j), c in self.coeffs:
            out = out + (a.pow(i) * b.pow(j)).scale(c)
        return out.truncate(self.order)

    def f_inverse_series(self, a: MultiPoly) -> MultiPoly:
        """The formal inverse i(a) with F(a, i(a)) = 0, degree by degree."""
        if self.backend == ADDITIVE:
            return -a
        if self.backend == MULTIPLICATIVE:
            raise SymalgError("multiplicative inverse is handled in factored form")
        g = -a
        cap = self.order
        for _ in range(cap):
            err = self.f_add(a, g)
            if err.is_zero():
                break
            # F(a, g + delta) = F(a, g) + delta + higher; correct linearly.
            g = (g - err).truncate(cap)
        return g

    # -- the orientation of a character ------------------------------------

    def lambda_char(self, registry: VarRegistry, chi: Character) -> RationalFunction:
        """The orientation of ``chi`` on the chart of ``registry``: the
        canonical orientation transported into ``registry`` (see the module
        docstring)."""
        chi.check_in(registry)
        if chi.is_zero():
            return RationalFunction.zero(registry)
        return self.canonical(chi).rename([registry.index(v) for v, _ in chi.coeffs], registry)

    def canonical(self, chi: Character) -> RationalFunction:
        """The orientation of a nonzero ``chi`` on the canonical aux chart
        y1..yk, yi standing for the i-th variable of ``chi``: computed once
        per (law, coefficients) and memoized."""
        key = (self, tuple(c for _, c in chi.coeffs))
        canonical = _ORIENTATIONS.get(key)
        if canonical is None:
            aux = [aux_var(f"y{i + 1}", i + 1) for i in range(len(chi.coeffs))]
            canonical = self._orient(
                VarRegistry(aux), Character(tuple((y, c) for y, (_, c) in zip(aux, chi.coeffs)))
            )
            if len(_ORIENTATIONS) >= _ORIENTATIONS_SIZE:
                del _ORIENTATIONS[next(iter(_ORIENTATIONS))]
            _ORIENTATIONS[key] = canonical
        return canonical

    def power_at(self, chi: Character, exponent: int, assignment: Mapping[Variable, Frac]) -> Frac:
        """lambda(chi)^exponent at the point ``assignment`` of a chart that
        holds ``chi``: the canonical orientation raised to ``exponent`` and
        evaluated factor by factor at yi = the value of the i-th variable of
        ``chi``.  Raises ``PoleError`` where a factor with a negative
        exponent in the power vanishes."""
        canonical = self.canonical(chi)
        point = dict(zip(canonical.registry.variables, [assignment[v] for v, _ in chi.coeffs]))
        num, den = canonical._ratio(point, exponent)
        return Frac(num, den)

    def _orient(self, registry: VarRegistry, chi: Character) -> RationalFunction:
        """The orientation of a nonzero ``chi``, computed on ``registry``."""
        if self.backend == ADDITIVE:
            form = MultiPoly.linear(registry, dict(chi.coeffs))
            return RationalFunction.from_poly(form)
        if self.backend == MULTIPLICATIVE:
            # 1 - prod X_v^(-n_v)  =  (P - N) / P  with
            # P = prod_{n>0} X^n and N = prod_{n<0} X^(-n).
            p_exp = [0] * len(registry)
            n_exp = [0] * len(registry)
            for v, c in chi.coeffs:
                if c > 0:
                    p_exp[registry.index(v)] += c
                else:
                    n_exp[registry.index(v)] += -c
            p_mono = MultiPoly(registry, {tuple(p_exp): Frac(1)})
            n_mono = MultiPoly(registry, {tuple(n_exp): Frac(1)})
            num = p_mono - n_mono
            out = RationalFunction(registry, 1, [(num, 1), (p_mono, -1)])
            return out
        # Series backend: F-combination of the coordinates.
        total_steps = sum(abs(c) for _, c in chi.coeffs)
        if total_steps > 64:
            raise TruncationOverflowError(
                f"character needs {total_steps} law applications; limit is 64"
            )
        acc = MultiPoly.zero(registry)
        for v, c in chi.coeffs:
            base = MultiPoly.var(registry, v)
            step = base if c > 0 else self.f_inverse_series(base)
            for _ in range(abs(c)):
                acc = self.f_add(acc, step)
        return RationalFunction.from_poly(acc)

    # -- scalar group operations (for point evaluation) ----------------------

    def point_zero(self) -> Frac:
        return Frac(1) if self.backend == MULTIPLICATIVE else Frac(0)

    def point_add(self, a: Frac, b: Frac) -> Frac:
        a, b = Frac(a), Frac(b)
        if self.backend == MULTIPLICATIVE:
            return a * b
        if self.backend == ADDITIVE:
            return a + b
        raise SymalgError("series backend has no exact point group")

    def point(self, a) -> Frac:
        """``a`` as a point of the group: 0 is no point of the multiplicative one."""
        a = Frac(a)
        if self.backend == MULTIPLICATIVE and a == 0:
            raise SymalgError("0 is not a point of the multiplicative group")
        return a

    def point_neg(self, a: Frac) -> Frac:
        a = self.point(a)
        if self.backend == MULTIPLICATIVE:
            return Frac(1) / a
        if self.backend == ADDITIVE:
            return -a
        raise SymalgError("series backend has no exact point group")

    def char_value(self, dchar: Character, assignment: Mapping[Variable, Frac]) -> Frac:
        """Value of a (dilation) character at a scalar point of the torus."""
        acc = self.point_zero()
        for v, c in dchar.coeffs:
            val = Frac(assignment[v])
            step = val if c > 0 else self.point_neg(val)
            for _ in range(abs(c)):
                acc = self.point_add(acc, step)
        return acc

    def __repr__(self) -> str:
        if self.backend == SERIES:
            return f"FormalGroupLaw(series, N={self.order})"
        return f"FormalGroupLaw({self.backend})"


@dataclass
class AxiomReport:
    """Outcome of the group-law axiom checks."""

    unit_ok: bool
    commutative_ok: bool
    associative_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.unit_ok and self.commutative_ok and self.associative_ok


def fgl_verify(law: FormalGroupLaw) -> AxiomReport:
    """Check unit, commutativity and associativity of the law.

    Exact for the additive and multiplicative backends (their laws are
    honest polynomials); modulo the truncation order for a series law.
    """
    u, v, w = aux_var("u", 1), aux_var("v", 2), aux_var("w", 3)
    reg = VarRegistry([u, v, w])
    trunc = law.order if law.backend == SERIES else None

    def cut(p: MultiPoly) -> MultiPoly:
        return p.truncate(trunc) if trunc is not None else p

    pu = MultiPoly.var(reg, u)
    f_uv = law.f_add(pu, MultiPoly.var(reg, v))
    f_u0 = law.f_add(pu, MultiPoly.zero(reg))
    unit_ok = cut(f_u0) == cut(pu)
    f_vu = law.f_add(MultiPoly.var(reg, v), pu)
    comm_ok = cut(f_uv) == cut(f_vu)
    pw = MultiPoly.var(reg, w)
    left = law.f_add(f_uv, pw)
    right = law.f_add(pu, law.f_add(MultiPoly.var(reg, v), pw))
    assoc_ok = cut(left) == cut(right)
    return AxiomReport(unit_ok, comm_ok, assoc_ok)


def parse_series_file(path: str) -> FormalGroupLaw:
    """Series law file: JSON with keys "N" and "coeffs" {"i,j": a_ij}."""
    data = read_json(path)
    if not isinstance(data, dict) or "N" not in data or not isinstance(
        data.get("coeffs", {}), dict
    ):
        raise SymalgError('a series law is a JSON object {"N": n, "coeffs": {"i,j": a_ij}}')
    order = json_int(data["N"])
    coeffs: Dict[Tuple[int, int], Frac] = {}
    for key, val in data.get("coeffs", {}).items():
        try:
            i, j = (int(t) for t in key.split(","))
        except ValueError:
            raise SymalgError(f'series law key {key!r}: expected "i,j" with integers') from None
        coeffs[(i, j)] = json_rational(val, f"series law coefficient {key!r}")
    return FormalGroupLaw.series(coeffs, order)


def select_fgl(spec: str) -> FormalGroupLaw:
    """CLI selector: additive | multiplicative | series:<file>."""
    if spec == ADDITIVE:
        return FormalGroupLaw.additive()
    if spec == MULTIPLICATIVE:
        return FormalGroupLaw.multiplicative()
    if spec.startswith("series:"):
        return parse_series_file(spec.split(":", 1)[1])
    raise SymalgError(f"unknown formal group selector {spec!r}")
