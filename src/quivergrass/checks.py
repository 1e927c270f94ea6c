"""Bundled verification suites behind the CLI ``verify`` command.

Each suite returns a flat list of check results; the CLI renders them
and the test suite asserts on them.  All randomness is seeded, so a
fixed configuration reproduces byte-identical reports.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction as Frac
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .fgl import FormalGroupLaw, fgl_verify
from .locality import (
    PointConfig,
    TauPoint,
    is_m_tau_disjoint,
    pair_blocks,
    tau_point,
    verify_m_locality,
    verify_trivialization,
)
from .quiver import (
    DilationTorus,
    DimVector,
    QuiverSpec,
    default_nakajima,
    dim_total,
    stock_quiver,
)
from .shuffle import (
    generator,
    monomial_element,
    shuffle_product,
    word_product,
)
from .symalg import rat_equal
from .thom import KernelContext, crosscheck, divisor_quotient


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail"
    value: str
    expected: str
    provenance: str

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _result(name: str, ok: bool, value, expected="", provenance: str = "") -> CheckResult:
    return CheckResult(name, "pass" if ok else "fail", str(value), str(expected), provenance)


def make_context(
    quiver: QuiverSpec,
    law: FormalGroupLaw,
    dilation: Optional[DilationTorus] = None,
) -> KernelContext:
    return KernelContext(
        quiver, default_nakajima(quiver), dilation or DilationTorus.diagonal(), law
    )


def standard_laws() -> List[Tuple[str, FormalGroupLaw]]:
    return [
        ("additive", FormalGroupLaw.additive()),
        ("multiplicative", FormalGroupLaw.multiplicative()),
        ("series4", FormalGroupLaw.series({(2, 1): Frac(-1), (1, 2): Frac(-1)}, 4)),
    ]


CROSSCHECK_QUIVERS = ["a1", "a2", "a3", "kronecker2", "cyclic3"]


def enumerate_dimvectors(quiver: QuiverSpec, total: int) -> List[DimVector]:
    out: List[DimVector] = []
    names = quiver.vertices

    def rec(i: int, left: int, acc: List[int]):
        if i == len(names) - 1:
            out.append(dict(zip(names, acc + [left])))
            return
        for k in range(left + 1):
            rec(i + 1, left - k, acc + [k])

    if total >= 0:
        rec(0, total, [])
    return out


def enumerate_flags(quiver: QuiverSpec, max_total: int) -> List[Tuple[DimVector, ...]]:
    nonzero: List[DimVector] = []
    for t in range(1, max_total + 1):
        nonzero.extend(enumerate_dimvectors(quiver, t))
    flags: List[Tuple[DimVector, ...]] = []

    def rec(acc: List[DimVector], used: int):
        if acc:
            flags.append(tuple(acc))
        for v in nonzero:
            t = dim_total(v)
            if used + t <= max_total:
                rec(acc + [v], used + t)

    rec([], 0)
    return flags


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def fgl_suite(seed: int = 0) -> List[CheckResult]:
    out = []
    for name, law in standard_laws():
        report = fgl_verify(law)
        out.append(
            _result(
                f"fgl.axioms.{name}",
                report.all_ok,
                f"unit={report.unit_ok} comm={report.commutative_ok} assoc={report.associative_ok}",
                "all axioms hold",
                "direct expansion of the law",
            )
        )
    return out


def crosscheck_suite(
    seed: int = 0,
    quivers: Sequence[str] = tuple(CROSSCHECK_QUIVERS),
    max_total: int = 4,
    laws: Optional[Sequence[Tuple[str, FormalGroupLaw]]] = None,
) -> List[CheckResult]:
    out = []
    for qname in quivers:
        quiver = stock_quiver(qname)
        for lname, law in laws or standard_laws():
            ctx = make_context(quiver, law)
            units_by_total: Dict[int, set] = {}
            bad = []
            count = 0
            for flag in enumerate_flags(quiver, max_total):
                rep = crosscheck(ctx, flag)
                count += 1
                if not rep.ok:
                    bad.append(flag)
                    continue
                total = sum(dim_total(v) for v in flag)
                units_by_total.setdefault(total, set()).add(repr(rep.unit))
            constant = all(len(us) == 1 for us in units_by_total.values())
            out.append(
                _result(
                    f"crosscheck.{qname}.{lname}",
                    not bad and constant,
                    f"{count} flag types, units {sorted(set().union(*units_by_total.values())) if units_by_total else []}",
                    "unit ratio on every flag type, constant per component",
                    "dual assembly of the same correspondence kernel",
                )
            )
    return out


def bilinearity_suite(
    seed: int = 0,
    quivers: Sequence[str] = ("a1", "a2", "kronecker2"),
    max_side: int = 3,
    laws: Optional[Sequence[Tuple[str, FormalGroupLaw]]] = None,
) -> List[CheckResult]:
    out = []
    for qname in quivers:
        quiver = stock_quiver(qname)
        for lname, law in laws or [("additive", FormalGroupLaw.additive())]:
            ctx = make_context(quiver, law)
            checked = 0
            failures = []
            vs = [v for t in range(1, max_side + 1) for v in enumerate_dimvectors(quiver, t)]
            for v in vs:
                splits = _splits(quiver, v)
                for w in vs:
                    lhs = ctx.biextension_kernel(v, w)
                    for v1, v2 in splits:
                        quotient = divisor_quotient(lhs, _bilinear_parts(ctx, v1, v2, w))
                        checked += 1
                        if not (quotient.is_scalar() and quotient.unit == 1):
                            failures.append((v1, v2, w))
            out.append(
                _result(
                    f"bilinearity.{qname}.{lname}",
                    not failures,
                    f"{checked} splits checked",
                    "kernel(v'+v'', w) = kernel(v', w) * kernel(v'', w)",
                    "block-partition renaming of the factored kernels",
                )
            )
    return out


def _splits(quiver: QuiverSpec, v: DimVector) -> List[Tuple[DimVector, DimVector]]:
    names = quiver.vertices
    ranges = [range(v.get(n, 0) + 1) for n in names]
    out = []
    for combo in itertools.product(*ranges):
        v1 = dict(zip(names, combo))
        v2 = {n: v.get(n, 0) - v1[n] for n in names}
        if dim_total(v1) and dim_total(v2):
            out.append((v1, v2))
    return out


def _bilinear_parts(ctx, v1: DimVector, v2: DimVector, w: DimVector):
    """kernel(v1, w) on the first v1 coordinates of slot 1, kernel(v2, w)
    on the rest; both share slot 2."""
    return [
        (ctx.biextension_kernel(v1, w), lambda g, vtx, s: (g, s)),
        (ctx.biextension_kernel(v2, w),
         lambda g, vtx, s: (g, s + v1.get(vtx, 0) if g == 1 else s)),
    ]


def classical_suite(
    quivers: Sequence[str] = ("a1", "a2", "a3", "kronecker2", "cyclic3"),
) -> List[CheckResult]:
    out = []
    for qname in quivers:
        quiver = stock_quiver(qname)
        ctx = make_context(quiver, FormalGroupLaw.additive())
        ok = True
        for total in range(1, 4):
            for v in enumerate_dimvectors(quiver, total):
                report = ctx.classical_divisor(v)
                if not report.matches_incidence:
                    ok = False
        out.append(
            _result(
                f"classical.{qname}",
                ok,
                "diagonal multiplicities",
                "arrow-count form",
                "plain representation-space kernel at zero dilation",
            )
        )
    jordan = stock_quiver("jordan")
    ctx = make_context(jordan, FormalGroupLaw.additive())
    rep = ctx.classical_divisor({"1": 2})
    out.append(
        _result(
            "classical.jordan.degenerate",
            rep.degenerate,
            f"degenerate={rep.degenerate}",
            "loop blocks are flagged, not divided",
            "weight-zero characters on the single slot",
        )
    )
    return out


def ideal_suite(seed: int = 0, max_total: int = 4) -> List[CheckResult]:
    out = []
    for qname in ("a1", "a2"):
        quiver = stock_quiver(qname)
        for lname, law in (
            ("additive", FormalGroupLaw.additive()),
            ("multiplicative", FormalGroupLaw.multiplicative()),
        ):
            ctx = make_context(quiver, law)
            failures = []
            words = _words_up_to(quiver, max_total)
            for word in words:
                elt = word_product(ctx, word)
                if not elt.polynomial:
                    failures.append(word)
            out.append(
                _result(
                    f"ideal.words.{qname}.{lname}",
                    not failures,
                    f"{len(words)} generator words polynomial",
                    "all generator products polynomial",
                    "denominator cancellation after block shuffles",
                )
            )
    return out


def _words_up_to(quiver: QuiverSpec, max_total: int) -> List[Tuple[str, ...]]:
    words: List[Tuple[str, ...]] = []
    for length in range(1, max_total + 1):
        words.extend(itertools.product(quiver.vertices, repeat=length))
    return words


def assoc_suite(seed: int = 0, triples: int = 20,
                laws: Optional[Sequence[Tuple[str, FormalGroupLaw]]] = None) -> List[CheckResult]:
    out = []
    for offset, (lname, law) in enumerate(laws or standard_laws()):
        rng = random.Random(seed + 101 * offset)
        failures = 0
        for _ in range(triples):
            qname = rng.choice(("a1", "a2"))
            quiver = stock_quiver(qname)
            ctx = make_context(quiver, law)
            elements = [_random_element(ctx, rng) for _ in range(3)]
            while sum(dim_total(e.weight) for e in elements) > 4:
                elements = [_random_element(ctx, rng) for _ in range(3)]
            a, b, c = elements
            left = shuffle_product(ctx, shuffle_product(ctx, a, b), c)
            right = shuffle_product(ctx, a, shuffle_product(ctx, b, c))
            if not rat_equal(left.fn, right.fn):
                failures += 1
        out.append(
            _result(
                f"assoc.{lname}",
                failures == 0,
                f"{triples} random triples",
                "(a*b)*c = a*(b*c) exactly",
                "cross-multiplied comparison of the symmetrized sums",
            )
        )
    return out


def _random_element(ctx: KernelContext, rng: random.Random):
    letters = list(ctx.quiver.vertices)
    length = rng.choice((1, 1, 1, 2))
    word = tuple(rng.choice(letters) for _ in range(length))
    nvars = length
    exps = tuple(rng.choice((0, 0, 1)) for _ in range(nvars))
    return monomial_element(ctx, word, exps)


def locality_suite(seed: int = 0, max_total: int = 4, random_configs: int = 100) -> List[CheckResult]:
    out = []
    for qname in ("a1", "a2"):
        quiver = stock_quiver(qname)
        for lname, law in standard_laws():
            ctx = make_context(quiver, law)
            failures = []
            pairs = 0
            for w1, w2 in _word_pairs(quiver, max_total):
                rep = verify_m_locality(ctx, w1, w2)
                pairs += 1
                if not rep.identity_holds:
                    failures.append((w1, w2))
            out.append(
                _result(
                    f"locality.identity.{qname}.{lname}",
                    not failures,
                    f"{pairs} word pairs",
                    "word kernel = block kernels * pair kernel, exactly",
                    "factored comparison on the concatenated chart",
                )
            )

    rng = random.Random(seed)
    for qname in ("a1", "a2"):
        quiver = stock_quiver(qname)
        ctx = make_context(quiver, FormalGroupLaw.additive())
        good = bad = 0
        for _ in range(random_configs):
            d1, d2, tau = _random_disjoint(ctx, rng)
            rep = verify_trivialization(ctx, d1, d2, tau)
            if rep.disjoint and rep.trivializes:
                good += 1
        for _ in range(random_configs):
            d1, d2, tau = _random_colliding(ctx, rng)
            rep = verify_trivialization(ctx, d1, d2, tau)
            if (not rep.disjoint) and rep.culprits:
                bad += 1
        out.append(
            _result(
                f"locality.random.{qname}",
                good == random_configs and bad == random_configs,
                f"{good}/{random_configs} disjoint finite nonzero; {bad}/{random_configs} collisions hit a named factor",
                f"{random_configs} and {random_configs}",
                "evaluation of the two-sided pair kernel",
            )
        )
    return out


def _word_pairs(quiver: QuiverSpec, max_total: int):
    words = [()] + _words_up_to(quiver, max_total)
    for w1 in words:
        for w2 in words:
            if 0 < len(w1) + len(w2) <= max_total:
                yield tuple(w1), tuple(w2)


def _random_config(ctx: KernelContext, rng: random.Random, size: int) -> PointConfig:
    coords: Dict[str, List[Frac]] = {}
    for v in ctx.quiver.vertices:
        n = rng.randint(0, size)
        coords[v] = [Frac(rng.randint(-50, 50), rng.randint(1, 4)) for _ in range(n)]
    return PointConfig(coords)


def _random_pair(ctx, rng) -> Tuple[PointConfig, PointConfig, TauPoint]:
    """tau and two nonempty configurations of at most two points per color."""
    while True:
        tau = tau_point(ctx, [Frac(rng.randint(1, 30), rng.randint(1, 3))
                              for _ in range(ctx.dilation.rank)])
        d1 = _random_config(ctx, rng, 2)
        d2 = _random_config(ctx, rng, 2)
        if not (d1.is_empty() or d2.is_empty()):
            return d1, d2, tau


def _random_disjoint(ctx, rng) -> Tuple[PointConfig, PointConfig, TauPoint]:
    while True:
        d1, d2, tau = _random_pair(ctx, rng)
        if is_m_tau_disjoint(ctx, d1, d2, tau):
            return d1, d2, tau


def _random_colliding(ctx, rng) -> Tuple[PointConfig, PointConfig, TauPoint]:
    """A random pair with a point of D2 planted on the shifted diagonal of
    a random block of ``pair_blocks``: for a point x (y) of D1 in the
    block's source (target) color, y = x - shift in the target color when
    the block leaves slot 1, else x = y + shift in the source color."""
    law = ctx.law
    while True:
        d1, d2, tau = _random_pair(ctx, rng)
        block = rng.choice(pair_blocks(ctx, d1.weight(ctx), {v: 1 for v in ctx.quiver.vertices}))
        (g, i), (_, j) = block.source, block.target
        shift = law.char_value(block.twist, tau)
        if g == 1:
            d2.coords[j].append(law.point_add(rng.choice(d1.coords[i]), law.point_neg(shift)))
        else:
            d2.coords[i].append(law.point_add(rng.choice(d1.coords[j]), shift))
        if not is_m_tau_disjoint(ctx, d1, d2, tau):
            return d1, d2, tau


def shuffle_constants_suite() -> List[CheckResult]:
    quiver = stock_quiver("a1")
    ctx = make_context(quiver, FormalGroupLaw.additive())
    e = generator(ctx, "1")
    ee = shuffle_product(ctx, e, e)
    eee = shuffle_product(ctx, ee, e)
    out = [
        _result(
            "shuffle.ee",
            ee.fn.is_scalar() and ee.fn.scalar_value() == 2,
            repr(ee.fn),
            "2",
            "two-term symmetrized sum",
        ),
        _result(
            "shuffle.eee",
            eee.fn.is_scalar() and eee.fn.scalar_value() == 6,
            repr(eee.fn),
            "6",
            "six-term symmetrized sum",
        ),
    ]
    return out


# Every suite by name, in the order ``all`` runs them; each takes a seed,
# which only the suites in ``DRAWS`` (``all`` through them) draw from.
SUITES: Dict[str, Callable[[int], List[CheckResult]]] = {
    "fgl": fgl_suite,
    "classical": lambda seed: classical_suite(),
    "biextension": bilinearity_suite,
    "crosscheck": crosscheck_suite,
    "ideal": lambda seed: ideal_suite(seed) + shuffle_constants_suite(),
    "assoc": assoc_suite,
    "locality": locality_suite,
}
DRAWS = {"assoc", "locality", "all"}


def suite(name: str, seed: int = 0) -> List[CheckResult]:
    if name == "all":
        return [r for run in SUITES.values() for r in run(seed)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](seed)
