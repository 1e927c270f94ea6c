"""Command-line front end.

Subcommands: kernel, shuffle, verify, sl2-lattice, poincare, carell,
ind-rank, zastava-fiber.  Each declares only the options it reads.
Reports are deterministic for a fixed configuration; wall-clock timing
is only emitted under --timing so golden files stay byte-identical.

The parser is built once per process, on the first ``main`` call, and
``_emit`` renders every report.  Inputs past a bound exit 2: a
``poincare`` entry above ``fixedpoints.POINCARE_ENTRY_CAP``, entries
whose product has a degree above ``fixedpoints.POINCARE_DEGREE_CAP`` or
whose sum is above ``fixedpoints.POINCARE_SUM_CAP``, a ``carell --n``
above ``fixedpoints.CARELL_N_CAP``, a ``shuffle --dim --degree`` weight
space of more than ``shuffle.WEIGHT_SPACE_CAP`` candidate products with
their representatives or ``shuffle.WEIGHT_SPACE_TERMS_CAP`` numerator
terms, and an ``ind-rank`` or ``zastava-fiber`` fiber of more than
``zastava.SYSTEM_CAP`` (2^16) monotone systems.

Exit codes: 0 all checks passed, 1 a check failed, 2 bad input (a parse
error too), 3 the report could not be written (a full disk, a closed
pipe): one line on stderr and no traceback.

Each command builds one ``KernelContext`` (``_load_context``) and reads
its dilation check, run once, from ``KernelContext.dilation_report``.
``kernel`` always prints the ``quiver.dilation_consistency`` line;
``shuffle``, ``verify`` and ``zastava-fiber`` print it only when the
check fails, and then stop with exit 1.  The ``verify`` suites run on
their own quivers and laws, so ``verify`` exits 2 on a ``--quiver`` that
neither ``--suite crosscheck`` nor ``--config`` reads, and on an
``--fgl`` that neither ``--suite crosscheck --quiver`` nor ``--config``
reads, on a ``--seed`` that no suite of ``checks.DRAWS`` reads, and on
two different suite names, one positional and one given to ``--suite``.
``shuffle --word`` reads no ``--degree``, and ``shuffle --dim`` no
``--tau``; ``zastava-fiber`` reads its tau from its config file only.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from . import checks as checksmod
from .checks import CheckResult, _result
from .fgl import select_fgl
from .locality import (
    check_points,
    parse_point_config,
    tau_point,
    verify_trivialization,
)
from .quiver import (
    QuiverFormatError,
    dim_total,
    json_int,
    json_rational,
    load_quiver,
    read_json,
    stock_quiver,
)
from .shuffle import weight_space, word_product
from .symalg import SymalgError
from .thom import KernelContext, crosscheck
from .fixedpoints import (
    CARELL_N_CAP,
    DegreeOverflowError,
    Q,
    carell_chart,
    gaussian_binomial,
    qpoly_str,
    quiver_grass_poincare,
    sl2_enumerate,
)
from .zastava import (
    ColoredDivisor,
    DivisorPoint,
    Poset,
    PosetFormatError,
    ind_fiber,
    ind_rank,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_OUTPUT_ERROR = 3


def _parsed(option: str, text: str, parse, form: str):
    """``parse(text)`` for the value of ``option``; a malformed value is
    reported with the option's name and the expected form."""
    try:
        return parse(text)
    except ValueError:
        raise ValueError(f"{option} {text!r}: expected {form}") from None


def _load_context(args) -> KernelContext:
    """The command's one context: the ``--quiver`` file, or stock a1 with
    its default weights on the diagonal torus (``checks.make_context``)."""
    if not args.quiver:
        return checksmod.make_context(stock_quiver("a1"), select_fgl(args.fgl or "additive"))
    quiver, weights, torus = load_quiver(args.quiver)
    return KernelContext(quiver, weights, torus, select_fgl(args.fgl or "additive"))


def _dilation_result(ctx: KernelContext) -> CheckResult:
    """The ``quiver.dilation_consistency`` line of the context's report."""
    dil = ctx.dilation_report
    return _result(
        "quiver.dilation_consistency",
        dil.all_ok,
        "; ".join(f"{aid}:{'ok' if ok else 'violated'}" for aid, ok, _, _ in dil.entries)
        or "no arrows",
        "weight pairs restrict to the symplectic character",
        "integer-linear check on the subtorus basis",
    )


def _parse_flag(ctx: KernelContext, option: str, text: str, single: bool = False):
    """The slots "1,0|0,1" given to ``option``; ``single`` allows only one."""
    n = len(ctx.quiver.vertices)
    try:
        slots = [[int(x) for x in chunk.split(",")] for chunk in text.split("|")]
    except ValueError:
        slots = [[]]
    if (single and len(slots) > 1) or any(len(d) != n or min(d) < 0 for d in slots):
        form = "one dimension vector" if single else "dimension vectors separated by |"
        raise QuiverFormatError(
            f"{option} {text!r}: expected {form}, each {n} comma-separated non-negative integers"
        )
    return tuple(dict(zip(ctx.quiver.vertices, d)) for d in slots)


def _parse_tau(ctx: KernelContext, text: str):
    values = _parsed("--tau", text, lambda t: [json_rational(v, "--tau") for v in t.split(",")],
                     "comma-separated rationals")
    if len(values) == 1 and ctx.dilation.rank > 1:
        values = values * ctx.dilation.rank
    try:
        tau = tau_point(ctx, values)
        check_points(ctx.law, tau, ())
    except SymalgError as exc:
        raise SymalgError(f"--tau {text}: {exc}") from None
    return tau


def _emit(command: str, echo: Dict, results: List[CheckResult], args) -> int:
    timing = {"elapsed_ms": int((time.time() - args._t0) * 1000)} if args.timing else {}
    if args.format == "json":
        body = {"command": command, "config_echo": echo,
                "results": [dataclasses.asdict(r) for r in results], **timing}
        print(json.dumps(body, indent=2, sort_keys=True))
    else:
        for r in results:
            line = f"[{r.status}] {r.name}: {r.value}"
            if r.expected:
                line += f"  (expected: {r.expected})"
            print(line)
        for key, value in timing.items():
            print(f"{key}: {value}")
    return EXIT_OK if all(r.ok for r in results) else EXIT_CHECK_FAILED


# -- subcommand handlers -------------------------------------------------------

Report = Tuple[Dict, List[CheckResult]]  # (config echo, check results), rendered by main


def cmd_kernel(args) -> Report:
    ctx = _load_context(args)
    results: List[CheckResult] = []
    echo = {"quiver": args.quiver or "a1", "fgl": args.fgl, "flag": args.flag}
    results.append(_dilation_result(ctx))
    if ctx.quiver.loops:
        results.append(
            _result(
                "quiver.loops",
                True,
                ",".join(a.aid for a in ctx.quiver.loops),
                "",
                "loop arrows produce weight-zero classical factors",
            )
        )
    if args.classical:
        rep = ctx.classical_divisor(*_parse_flag(ctx, "--flag (with --classical)", args.flag, True))
        for pair, (got, want) in sorted(rep.incidence_match.items()):
            results.append(
                _result(
                    f"classical.multiplicity.{pair[0]}-{pair[1]}",
                    got == want,
                    got,
                    want,
                    "plain representation-space kernel",
                )
            )
        results.append(
            _result(
                "classical.kernel",
                True,
                repr(rep.kernel.fn) + ("  [degenerate: loop factors]" if rep.degenerate else ""),
                "",
                "factored form",
            )
        )
    else:
        flag = _parse_flag(ctx, "--flag", args.flag)
        kernel = ctx.flag_kernel(flag)
        results.append(_result("kernel", True, repr(kernel.fn), "", "factored form"))
        cross = crosscheck(ctx, flag)
        results.append(
            _result(
                "kernel.dual_assembly_unit",
                cross.ok,
                repr(cross.unit),
                "a unit, constant per component",
                "independent one-pass assembly",
            )
        )
    return echo, results


def cmd_shuffle(args) -> Report:
    ctx = _load_context(args)
    results: List[CheckResult] = []
    echo = {"quiver": args.quiver or "a1", "fgl": args.fgl}
    if not ctx.dilation_report.all_ok:
        return echo, [_dilation_result(ctx)]
    form, unread = ("--word", "degree") if args.word is not None else ("--dim", "tau")
    if getattr(args, unread) is not None:
        raise ValueError(f"--{unread} {getattr(args, unread)}: shuffle {form} reads no --{unread}")
    if args.word is not None:
        word = tuple(w.strip() for w in args.word.split(","))
        for vertex in word:
            if vertex not in ctx.quiver.vertices:
                raise QuiverFormatError(f"--word {args.word!r}: unknown vertex {vertex!r}")
        echo["word"] = ",".join(word)
        elt = word_product(ctx, word)
        fn = elt.fn
        if args.tau is not None:
            fn = fn.substitute(_parse_tau(ctx, args.tau))
        shown = str(fn.scalar_value()) if fn.is_scalar() else repr(fn)
        results.append(
            _result("shuffle.product", True, shown, "", "symmetrized kernel product")
        )
        results.append(
            _result("shuffle.polynomial", elt.polynomial, elt.polynomial, True,
                 "denominator cancellation")
        )
    else:
        (alpha,) = _parse_flag(ctx, "--dim", args.dim, single=True)
        echo["dim"] = args.dim
        echo["degree"] = degree = args.degree or 0
        if dim_total(alpha) > 4:
            raise ValueError(f"--dim {args.dim}: expected a total weight of at most 4")
        if degree < 0:
            raise ValueError(f"--degree {degree}: expected a non-negative integer")
        try:
            dim = weight_space(ctx, alpha, degree)
        except DegreeOverflowError as exc:
            raise DegreeOverflowError(f"--degree {degree}: {exc}") from None
        results.append(
            _result(
                "shuffle.weight_space_dim",
                True,
                dim,
                "",
                "exact row reduction at two random dilation points",
            )
        )
    return echo, results


def cmd_verify(args) -> Report:
    if args.suite and args.suite_flag and args.suite != args.suite_flag:
        raise ValueError(f"verify {args.suite!r} and --suite {args.suite_flag!r} name two "
                         "suites; give one")
    args.suite = args.suite_flag or args.suite or "all"
    one_quiver = args.suite == "crosscheck" and args.quiver  # the per-flag listing of one file
    reads_context = one_quiver or args.config
    for name, read, readers in (
        ("quiver", reads_context, "--suite crosscheck and --config"),
        ("fgl", reads_context, "--suite crosscheck with --quiver and --config"),
        ("seed", args.suite in checksmod.DRAWS, "--suite assoc, locality and all"),
    ):
        value = getattr(args, name)
        if value is not None and not read:
            raise ValueError(f"--{name} {value}: --suite {args.suite} reads no --{name}; "
                             f"only {readers} read it")
    echo = {"suite": args.suite, "seed": args.seed or 0}
    ctx = _load_context(args) if reads_context else None
    if ctx is not None and not ctx.dilation_report.all_ok:
        return echo, [_dilation_result(ctx)]
    if one_quiver:
        results = _crosscheck_single_quiver(ctx)
    else:
        results = checksmod.suite(args.suite, seed=echo["seed"])
    if args.config:
        d1, d2, tau_values = parse_point_config(read_json(args.config))
        tau = tau_point(ctx, tau_values)
        rep = verify_trivialization(ctx, d1, d2, tau)
        results.append(
            _result(
                "locality.config",
                rep.ok,
                rep.describe(),
                "finite nonzero when disjoint; named factor otherwise",
                "two-sided pair kernel evaluation",
            )
        )
        echo["config"] = args.config
    return echo, results


def _crosscheck_single_quiver(ctx: KernelContext) -> List[CheckResult]:
    """Per-flag-type unit listing for one quiver file."""
    results: List[CheckResult] = []
    for flag in checksmod.enumerate_flags(ctx.quiver, 4):
        rep = crosscheck(ctx, flag)
        label = "|".join(
            ",".join(str(v.get(name, 0)) for name in ctx.quiver.vertices) for v in flag
        )
        results.append(
            _result(
                f"crosscheck.flag[{label}]",
                rep.ok,
                repr(rep.unit),
                "a unit",
                "dual assembly of the correspondence kernel",
            )
        )
    return results


def cmd_sl2(args) -> Report:
    rep = sl2_enumerate(args.p, args.e, args.n, args.window, m=args.m)
    results = [
        _result(
            "sl2.count",
            rep.s0_count == rep.s0_expected,
            rep.s0_count,
            rep.s0_expected,
            "exhaustive enumeration vs monic nilpotent-coefficient polynomials",
        ),
        _result(
            "sl2.routes",
            rep.routes_agree,
            "lattice route agrees with polynomial route",
            "agreement on every candidate",
            "windowed division vs degree/divisibility",
        ),
    ]
    if args.m is not None:
        results.append(
            _result("sl2.sminus_count", True, rep.sminus_count, "", "divisibility enumeration")
        )
    table = ["".join(str(c) for c in sum(poly, ())) for poly in rep.monic_polys]
    results.append(
        _result("sl2.bijection_table", True, ";".join(sorted(table)), "", "coefficient strings")
    )
    echo = {"p": args.p, "e": args.e, "n": args.n, "window": args.window, "m": args.m}
    return echo, results


def cmd_poincare(args) -> Report:
    dims = _parsed("--alpha", args.alpha, lambda t: [int(x) for x in t.split(",")],
                   "comma-separated integers")
    alpha = {str(i + 1): d for i, d in enumerate(dims)}
    poly = quiver_grass_poincare(alpha)
    total = poly.evaluate({Q: 1})
    expected = 1
    for d in dims:
        expected *= 2 ** d
    results = [
        _result("poincare.series", True, qpoly_str(poly), "", "product of q-binomial sums"),
        _result("poincare.total", total == expected, total, expected, "value at q = 1"),
    ]
    return {"alpha": args.alpha}, results


def cmd_carell(args) -> Report:
    if not 0 <= args.n <= CARELL_N_CAP:
        raise ValueError(f"--n {args.n}: expected an integer from 0 to {CARELL_N_CAP}")
    if not 0 <= args.k <= args.n:
        raise ValueError(f"--k {args.k}: expected an integer from 0 to --n ({args.n})")
    chart = carell_chart(args.n, args.k)
    gauss = gaussian_binomial(args.n, args.k)
    results = [
        _result(
            "carell.dim",
            chart.dimension == comb(args.n, args.k),
            chart.dimension,
            comb(args.n, args.k),
            "standard monomials of the fixed-scheme chart ideal",
        ),
        _result(
            "carell.weight_series",
            chart.weight_series() == gauss,
            qpoly_str(chart.weight_series()),
            qpoly_str(gauss),
            "rotation weights of the standard monomials",
        ),
    ]
    return {"n": args.n, "k": args.k}, results


def cmd_ind_rank(args) -> Report:
    poset = _parsed("--poset", args.poset, Poset.parse,
                    "chain:<m>, antichain:<k> or a poset JSON file")
    try:
        divisor = ColoredDivisor.parse(args.divisor)
    except PosetFormatError as exc:
        raise PosetFormatError(f"--divisor {args.divisor!r}: {exc}") from None
    rank = ind_rank(poset, divisor)
    results = [
        _result("ind_rank", True, rank, "", "count of monotone subdivisor systems")
    ]
    echo = {"poset": args.poset, "divisor": args.divisor}
    return echo, results


def cmd_zastava_fiber(args) -> Report:
    data = read_json(args.config)
    if not (
        isinstance(data, dict)
        and isinstance(data.get("tau", []), list)
        and isinstance(data.get("points"), list)
        and all(isinstance(p, dict) for p in data["points"])
    ):
        raise ValueError('a fiber config is {"tau": [..], "poset": .., "points": [{..}, ..]}')
    for p in data["points"]:
        for key in ("id", "color", "coord"):
            if key not in p:
                raise ValueError(f"fiber point {p!r} has no {key!r}")
    echo = {"config": args.config, "poset": str(data.get("poset", "chain:1"))}
    ctx = _load_context(args)
    if not ctx.dilation_report.all_ok:
        return echo, [_dilation_result(ctx)]
    tau = tau_point(ctx, [json_rational(v, "tau") for v in data.get("tau", [])])
    poset = _parsed("poset", str(data.get("poset", "chain:1")), Poset.parse,
                    "chain:<m>, antichain:<k> or a poset JSON file")
    points = [
        DivisorPoint(str(p["id"]), str(p["color"]), json_int(p.get("multiplicity", 1)))
        for p in data["points"]
    ]
    coords = {str(p["id"]): json_rational(p["coord"], f"coord of point {p['id']}")
              for p in data["points"]}
    divisor = ColoredDivisor(points, coords)
    fiber = ind_fiber(ctx, poset, divisor, tau)
    results = [
        _result("zastava.rank", True, fiber.rank, "", "monotone system count"),
    ]
    for system, value in zip(fiber.maps, fiber.values):
        label = ";".join(
            f"{e}:{'+'.join(pid for pid, k in sub if k) or 'empty'}"
            for e, sub in sorted(system.items())
        )
        results.append(_result(f"zastava.value[{label}]", True, value, "", "pair-kernel product"))
    return echo, results


# -- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Every parse error is bad input: ``main`` prints it on one line and exits 2."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call; parsing never changes it."""
    parser = _Parser(
        prog="quivergrass",
        description="Exact kernels, shuffle products, and fixed-point counts for quiver charts.",
    )
    # --format and --timing may also follow the command; SUPPRESS keeps the
    # subparser from clobbering a value given before it.
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    for p in (parser, common):
        p.add_argument("--format", choices=("text", "json"))
        p.add_argument("--timing", action="store_true",
                       help="include elapsed_ms in the report (non-deterministic)")
    parser.set_defaults(format="text", timing=False)
    sub = parser.add_subparsers(dest="cmd", required=True)
    fgl = "additive | multiplicative | series:<file>"

    p = sub.add_parser("kernel", parents=[common], help="kernel of a flag type")
    p.add_argument("--quiver", required=True)
    p.add_argument("--flag", required=True, help='slot dims, e.g. "1,0|0,1"')
    p.add_argument("--classical", action="store_true")
    p.add_argument("--fgl", default="additive", help=fgl)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("shuffle", parents=[common],
                       help="generator products and weight spaces")
    p.add_argument("--quiver", default=None)
    form = p.add_mutually_exclusive_group(required=True)
    form.add_argument("--word", help='vertices, e.g. "1,2,1"')
    form.add_argument("--dim", help='weight, e.g. "2" or "1,1"')
    p.add_argument("--degree", type=int, help="with --dim (default 0)")
    p.add_argument("--fgl", default="additive", help=fgl)
    p.add_argument("--tau", help="with --word: dilation coordinates, comma separated")
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("verify", parents=[common], help="run a bundled verification suite")
    p.add_argument("suite", nargs="?", default=None)
    p.add_argument("--suite", dest="suite_flag", default=None,
                   help="|".join([*checksmod.SUITES, "all"]))
    p.add_argument("--quiver", default=None)
    p.add_argument("--config", default=None, help="point-configuration JSON for locality")
    p.add_argument("--fgl", default=None, help=f"{fgl} (default additive)")
    p.add_argument("--seed", type=int, default=None, help="with assoc, locality or all (default 0)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sl2-lattice", parents=[common],
                       help="lattice-model enumeration over a truncated ring")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=cmd_sl2)

    p = sub.add_parser("poincare", parents=[common],
                       help="graded count for a zero representation")
    p.add_argument("--alpha", required=True)
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("carell", parents=[common], help="fixed-scheme dimension oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_carell)

    p = sub.add_parser("ind-rank", parents=[common], help="rank of a poset-induced fiber")
    p.add_argument("--poset", required=True, help="chain:<m>, antichain:<k> or a poset JSON file")
    p.add_argument("--divisor", required=True, help='e.g. "a:i:2,b:j:1"')
    p.set_defaults(func=cmd_ind_rank)

    p = sub.add_parser("zastava-fiber", parents=[common],
                       help="fiber data at a point configuration")
    p.add_argument("--quiver", default=None)
    p.add_argument("--config", required=True)
    p.add_argument("--fgl", default="additive", help=fgl)
    p.set_defaults(func=cmd_zastava_fiber)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args._t0 = time.time()
        echo, results = args.func(args)
    except (QuiverFormatError, SymalgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    try:
        code = _emit(args.cmd, echo, results, args)
        sys.stdout.flush()
    except OSError as exc:
        # What is left of the report goes to devnull, so that the
        # interpreter's final flush of stdout does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_OUTPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
