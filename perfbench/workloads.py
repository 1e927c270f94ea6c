"""Inputs, items and verdict checks of the four benchmark workloads.

A workload is a list of items built from the seed.  An item is a
zero-argument callable that returns True when the program's verdict is
right.  The worker runs the list in order, and passes over it again when
it runs out, until its time is up.

Items are grouped in strata of similar cost.  The seed chooses the
elements inside a stratum and the order, never how many items a stratum
holds, and ``interleave`` spreads every stratum evenly over the list, so
a run that stops part-way through still sees the same mix whatever the
seed.  The program is called through its modules' attributes
(``thom.crosscheck``, ``shuffle.shuffle_product``, ...) so that a traced
run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from math import comb, factorial
from pathlib import Path
from typing import Callable, Dict, Hashable, Iterator, List, Sequence, Tuple

from quivergrass import checks, cli, locality, shuffle, symalg, thom
from quivergrass.fgl import FormalGroupLaw
from quivergrass.quiver import dim_total, stock_quiver

BENCH_DIR = Path(__file__).resolve().parent
GOLDENS = BENCH_DIR / "goldens" / "cli.json"


@dataclass
class Item:
    key: Hashable  # what the item computes, comparable with the AC suites' inputs
    run: Callable[[], bool]


def interleave(strata: Dict[Hashable, List[Item]], rng: random.Random) -> List[Item]:
    """Shuffle each stratum, then place its k-th of n items at (k + 1/2) / n.

    Every prefix of the result holds each stratum in proportion to its
    size, and how many items of a stratum a prefix holds depends on the
    prefix's length only, not on the seed.
    """
    placed: List[Tuple[float, Item]] = []
    for key in sorted(strata, key=repr):
        items = list(strata[key])
        rng.shuffle(items)
        placed.extend(((k + 0.5) / len(items), item) for k, item in enumerate(items))
    placed.sort(key=lambda p: p[0])
    return [item for _, item in placed]


def passes(name: str, seed: int) -> Iterator[List[Item]]:
    """The workload's passes over its item list, without end; the same seed
    gives the same passes.  Every pass repeats the first, except that
    ``locality`` draws new configurations from the seed's random stream
    for each pass, so a run that repeats the word pairs still meets new
    configurations."""
    order = random.Random(f"{name}:{seed}")
    if name == "locality":
        for strata in locality_passes(seed):
            yield interleave(strata, order)
    builders = {"crosscheck": crosscheck_strata, "shuffle": shuffle_strata, "cli": cli_strata}
    items = interleave(builders[name](seed), order)
    while True:
        yield items


def _law(name: str) -> FormalGroupLaw:
    return dict(checks.standard_laws())[name]


def _flag_key(flag) -> Tuple:
    return tuple(tuple(sorted(v.items())) for v in flag)


# -- crosscheck: AC1, every flag type of total dimension <= 4 -----------------------


def crosscheck_strata(seed: int) -> Dict[Hashable, List[Item]]:
    strata: Dict[Hashable, List[Item]] = defaultdict(list)
    units: Dict[Tuple, str] = {}
    for qname in checks.CROSSCHECK_QUIVERS:
        quiver = stock_quiver(qname)
        for lname, law in checks.standard_laws():
            ctx = checks.make_context(quiver, law)
            for flag in checks.enumerate_flags(quiver, 4):
                total = sum(dim_total(v) for v in flag)
                component = (qname, lname, total)
                strata[(qname, lname, len(flag), total)].append(
                    Item((qname, lname, _flag_key(flag)),
                         partial(_crosscheck_item, ctx, flag, units, component))
                )
    return strata


def _crosscheck_item(ctx, flag, units: Dict[Tuple, str], component: Tuple) -> bool:
    """As in AC1: the dual assemblies differ by a unit, the same unit on
    every flag type of one (quiver, law, total dimension)."""
    rep = thom.crosscheck(ctx, flag)
    if not rep.ok:
        return False
    unit = repr(rep.unit) if rep.unit is not None else "degenerate"
    return units.setdefault(component, unit) == unit


# -- shuffle: AC4 generator words, constants and stratified associativity triples ---

# Associativity triples per (law, quiver, total weight, monomial degree)
# stratum.  Every (law, quiver, total weight) of AC4's triples appears.  The
# monomial degree (the number of exponents 1) is 0 or 1: AC4 also draws
# higher degrees, and under the series law those triples take from 15 s to
# minutes each, longer than a whole run (README, "A known slow input").
# The series-law a2 triples of total weight 4 need the largest exact
# divisions; they are drawn from a family of near-equal cost so that the
# seed's choice does not move the run's speed.
TRIPLE_STRATA: Dict[Tuple[str, str, int, int], int] = {
    (law, quiver, weight, degree): 6
    for law in ("additive", "multiplicative", "series4")
    for quiver in ("a1", "a2")
    for weight in (3, 4)
    for degree in (0, 1)
}
DIVISION_STRATUM = ("series4", "a2", 4, 0)
TRIPLE_STRATA[DIVISION_STRATUM] = 1
del TRIPLE_STRATA[("series4", "a2", 4, 1)]


def shuffle_strata(seed: int) -> Dict[Hashable, List[Item]]:
    rng = random.Random(seed)
    strata: Dict[Hashable, List[Item]] = defaultdict(list)
    for qname in ("a1", "a2"):
        for lname in ("additive", "multiplicative"):
            ctx = checks.make_context(stock_quiver(qname), _law(lname))
            for word in checks._words_up_to(ctx.quiver, 4):
                strata[("word", qname, lname, len(word))].append(
                    Item(("word", qname, lname, word), partial(_word_item, ctx, word))
                )
    a1 = checks.make_context(stock_quiver("a1"), FormalGroupLaw.additive())
    strata[("constant",)] = [
        Item(("constant", "e*e"), partial(_generator_power_item, a1, 2, 2)),
        Item(("constant", "e*e*e"), partial(_generator_power_item, a1, 3, 6)),
    ]
    for stratum, count in TRIPLE_STRATA.items():
        lname, qname, weight, degree = stratum
        ctx = checks.make_context(stock_quiver(qname), _law(lname))
        if stratum == DIVISION_STRATUM:
            specs = [_draw_division_triple(rng) for _ in range(count)]
        else:
            specs = _draw_triples(rng, ctx.quiver.vertices, weight, degree, count)
        strata[("assoc", *stratum)] = [
            Item(("assoc", lname, qname, spec), partial(_assoc_item, ctx, spec))
            for spec in specs
        ]
    return strata


def _triple_candidates(letters: Sequence[str], weight: int, degree: int) -> List[Tuple]:
    """Every triple of AC4's element kind (a word of length 1 or 2 with 0/1
    exponents) of the given total weight and monomial degree.  AC4's draw,
    conditioned on weight and degree, is uniform over this list."""
    out = []
    for lengths in itertools.product((1, 2), repeat=3):
        if sum(lengths) != weight:
            continue
        for word in itertools.product(letters, repeat=weight):
            for exps in itertools.product((0, 1), repeat=weight):
                if sum(exps) != degree:
                    continue
                spec, at = [], 0
                for n in lengths:
                    spec.append((word[at:at + n], exps[at:at + n]))
                    at += n
                out.append(tuple(spec))
    # Triples that mix vertices cost more (arrow factors join the kernels),
    # so order by how many letters differ from the most common one.
    return sorted(out, key=lambda spec: (_mixing(spec), spec))


def _mixing(spec) -> int:
    letters = [letter for word, _ in spec for letter in word]
    return len(letters) - max(letters.count(v) for v in set(letters))


def _draw_triples(rng: random.Random, letters: Sequence[str], weight: int, degree: int,
                  count: int) -> List[Tuple]:
    """``count`` evenly spaced candidates from a random start: each run
    samples every part of the candidate list, so the seed moves which
    triples run but hardly their total cost."""
    candidates = _triple_candidates(letters, weight, degree)
    start = rng.random()
    return [candidates[int((j + start) * len(candidates) / count)] for j in range(count)]


def _draw_division_triple(rng: random.Random):
    """A series-law a2 triple (v, uu, v) with u != v and no monomial factors;
    both choices of u take the same time to within a few percent."""
    u, v = rng.sample(("1", "2"), 2)
    return (((v,), (0,)), ((u, u), (0, 0)), ((v,), (0,)))


def _word_item(ctx, word) -> bool:
    """AC4 ideal: generator products are polynomial.  On one vertex the
    numerator's coefficients are the Mahonian numbers, which sum to n!."""
    elt = shuffle.word_product(ctx, word)
    if not elt.polynomial:
        return False
    if len(ctx.quiver.vertices) == 1:
        return sum(elt.fn.numerator().terms.values()) == factorial(len(word))
    return True


def _generator_power_item(ctx, n: int, expected: int) -> bool:
    e = shuffle.generator(ctx, "1")
    out = e
    for _ in range(n - 1):
        out = shuffle.shuffle_product(ctx, out, e)
    return out.fn.is_scalar() and out.fn.scalar_value() == expected


def _assoc_item(ctx, spec) -> bool:
    a, b, c = (shuffle.monomial_element(ctx, word, exps) for word, exps in spec)
    left = shuffle.shuffle_product(ctx, shuffle.shuffle_product(ctx, a, b), c)
    right = shuffle.shuffle_product(ctx, a, shuffle.shuffle_product(ctx, b, c))
    return symalg.rat_equal(left.fn, right.fn)


# -- locality: AC5 word-pair factorizations and seeded configurations ---------------

LOCALITY_CONFIGS = 100  # disjoint and colliding configurations per quiver, as in AC5


def locality_passes(seed: int) -> Iterator[Dict[Hashable, List[Item]]]:
    """AC5's items, then the same word pairs with the next configurations."""
    pairs: Dict[Hashable, List[Item]] = defaultdict(list)
    for qname in ("a1", "a2"):
        for lname, law in checks.standard_laws():
            ctx = checks.make_context(stock_quiver(qname), law)
            for w1, w2 in checks._word_pairs(ctx.quiver, 4):
                pairs[("pair", qname, lname, len(w1) + len(w2))].append(
                    Item(("pair", qname, lname, w1, w2), partial(_pair_item, ctx, w1, w2))
                )
    contexts = {q: checks.make_context(stock_quiver(q), FormalGroupLaw.additive())
                for q in ("a1", "a2")}
    rng = random.Random(seed)
    while True:
        strata = dict(pairs)
        for qname, ctx in contexts.items():
            for kind, draw in (("disjoint", checks._random_disjoint),
                               ("colliding", checks._random_colliding)):
                strata[(kind, qname)] = [
                    Item((kind, qname, config_key(d1, d2, tau)),
                         partial(_config_item, ctx, d1, d2, tau, kind == "disjoint"))
                    for d1, d2, tau in (draw(ctx, rng) for _ in range(LOCALITY_CONFIGS))
                ]
        yield strata


def locality_strata(seed: int) -> Dict[Hashable, List[Item]]:
    """The first pass: exactly AC5's word pairs and configurations."""
    return next(locality_passes(seed))


def config_key(d1, d2, tau) -> Tuple:
    def side(cfg):
        return tuple(sorted((c, tuple(v)) for c, v in cfg.coords.items()))

    return side(d1), side(d2), tuple(sorted((v.name, x) for v, x in tau.items()))


def _pair_item(ctx, w1, w2) -> bool:
    return locality.verify_m_locality(ctx, w1, w2).identity_holds


def _config_item(ctx, d1, d2, tau, disjoint: bool) -> bool:
    """Disjoint pairs evaluate finite and nonzero; collisions name a factor."""
    rep = locality.verify_trivialization(ctx, d1, d2, tau)
    if disjoint:
        return rep.disjoint and rep.trivializes
    return not rep.disjoint and bool(rep.culprits)


# -- cli: a fixed command list over all eight subcommands ---------------------------

_DATA = "perfbench/data"
A1 = f"{_DATA}/a1.json"
A2 = f"{_DATA}/a2.json"

# (argv, {result name: value from a reference outside the program}).  Every
# command must also exit 0, pass all its own checks (so every dual-assembly
# report is ok) and print exactly its golden report.
CLI_COMMANDS: List[Tuple[List[str], Dict[str, object]]] = [
    (["kernel", "--quiver", A2, "--flag", "1,0|0,1"], {}),
    (["kernel", "--quiver", A2, "--flag", "1,1|1,0", "--fgl", "multiplicative"], {}),
    # One arrow joins the two vertices of a2.json.
    (["kernel", "--quiver", A2, "--flag", "1,1", "--classical"],
     {"classical.multiplicity.1-2": 1}),
    (["shuffle", "--quiver", A1, "--word", "1,1"], {"shuffle.product": 2}),
    (["shuffle", "--quiver", A1, "--word", "1,1,1"], {"shuffle.product": 6}),
    (["shuffle", "--dim", "2", "--degree", "2"], {"shuffle.weight_space_dim": 4}),
    (["verify", "fgl", "--quiver", A1, "--config", f"{_DATA}/points.json"], {}),
    (["verify", "--suite", "crosscheck", "--quiver", A1], {}),
    (["sl2-lattice", "--p", "2", "--e", "2", "--n", "2", "--window", "5"],
     {"sl2.count": 2 ** 2}),
    (["poincare", "--alpha", "2,1"], {"poincare.total": 2 ** (2 + 1)}),
    (["carell", "--n", "4", "--k", "2"], {"carell.dim": comb(4, 2)}),
    (["ind-rank", "--poset", "chain:2", "--divisor", "a:i:3"],
     {"ind_rank": comb(3 + 2, 2)}),
    (["zastava-fiber", "--quiver", A1, "--config", f"{_DATA}/fiber.json"], {}),
]


def command_id(argv: Sequence[str]) -> str:
    return " ".join(argv)


def run_cli(argv: Sequence[str]) -> Tuple[int, str]:
    """One in-process CLI call with a JSON report; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv) + ["--format", "json"])
    return code, out.getvalue()


def cli_strata(seed: int) -> Dict[Hashable, List[Item]]:
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    return {
        command_id(argv): [Item(command_id(argv),
                                partial(_cli_item, argv, goldens[command_id(argv)], expect))]
        for argv, expect in CLI_COMMANDS
    }


def _cli_item(argv, golden: str, expect: Dict[str, object]) -> bool:
    code, out = run_cli(argv)
    if code != cli.EXIT_OK or out != golden:
        return False
    results = json.loads(out)["results"]
    values = {r["name"]: r["value"] for r in results}
    return all(r["status"] == "pass" for r in results) and all(
        values.get(name) == str(want) for name, want in expect.items()
    )
