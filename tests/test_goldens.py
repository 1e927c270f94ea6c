"""The CLI reports that a change of the library must keep byte-identical,
compared with the files under ``tests/goldens``.

* ``shuffle.json`` holds the full text and JSON reports of ``shuffle
  --word``, of ``shuffle --dim`` on a1 at weights 0 to 3 and on the
  rank-2 torus of a2 at weight (1, 1) under the additive,
  multiplicative and series4 laws, and the sha256 of the text reports
  of ``verify --suite ideal`` and ``verify --suite assoc``.
* ``fixedpoints.json`` holds the text and JSON reports of ``carell`` for
  every n <= 4 and 0 <= k <= n, of ``poincare`` on four dimension
  vectors, and of five ``sl2-lattice`` commands: the one the benchmark
  runs, three with the S- probe ``--m`` and one over F_3.
* ``kernel.json`` holds the text and JSON reports of ``kernel`` and
  ``kernel --classical`` on a1 and a2 flags and on the rank-2 torus of
  a2 under the additive, multiplicative and series4 laws, of ``verify
  --config`` on a disjoint and a colliding configuration (which pins the
  order of the named factors), and of ``verify --suite crosscheck
  --quiver`` on a1 and a2.
* ``zastava.json`` holds the text and JSON reports of ``zastava-fiber``
  and ``ind-rank``.
* ``verify.json`` holds the sha256 of the JSON report of ``verify --suite
  all``, every suite in one run (about 7 s).  The JSON form is the one
  pinned: it carries every field of every result, and the text form is
  rendered from the same results.

Re-record them from the repository root, at the commit whose output is
the reference:

    PYTHONPATH=src python3 tests/test_goldens.py

A change that alters one of these reports on purpose re-records them and
says which reports changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from quivergrass.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens"
DATA = "tests/data"
A2 = f"{DATA}/a2_rank2.json"
LAWS = ("additive", "multiplicative", f"series:{DATA}/series4.json")

WORDS = [([], "1,1"), ([], "1,1,1"),
         (["--quiver", A2], "1,2"), (["--quiver", A2], "1,2,1"), (["--quiver", A2], "2,1,1,2")]

# (options, --dim, --degree) of the weight-space reports
DIMS = [([], "0", "2"), ([], "1", "2"), ([], "3", "2")] + [
    (["--quiver", A2, "--fgl", law], "1,1", "4") for law in LAWS]

# (argv, stored as a sha256 of the report instead of the report itself)
SHUFFLE = [
    (["shuffle", *quiver, "--word", word, "--fgl", law, "--format", fmt], False)
    for quiver, word in WORDS
    for law in ("additive", "multiplicative")
    for fmt in ("text", "json")
] + [
    (["shuffle", "--dim", "2", "--degree", "2"], False),
] + [
    (["shuffle", *options, "--dim", dim, "--degree", degree, "--format", fmt], False)
    for options, dim, degree in DIMS
    for fmt in ("text", "json")
] + [
    (["verify", "--suite", "ideal"], True),
    (["verify", "--suite", "assoc"], True),
]

FIXEDPOINTS = [
    (argv + ["--format", fmt], False)
    for argv in (
        [["carell", "--n", str(n), "--k", str(k)] for n in range(5) for k in range(n + 1)]
        + [["poincare", "--alpha", alpha] for alpha in ("0", "2", "2,1", "3,2,1")]
        + [["sl2-lattice", *options.split()] for options in (
            "--p 2 --e 2 --n 2 --window 5",
            "--p 2 --e 2 --n 1 --window 4 --m 1",
            "--p 2 --e 2 --n 1 --window 4 --m 2",
            "--p 2 --e 2 --n 2 --window 5 --m 3",
            "--p 3 --e 2 --n 1 --window 3",
        )]
    )
    for fmt in ("text", "json")
]

# (quiver file, flags of the kernel, flags of the classical kernel)
FLAGS = [
    (f"{DATA}/a1.json", ("1|1", "2|1"), ("2",)),
    (f"{DATA}/a2.json", ("1,0|0,1", "1,1|1,0", "0,1|1,1"), ("1,1", "2,1")),
    (A2, ("1,0|0,1", "1,1|1,0"), ("1,1",)),
]

KERNEL = [
    (argv + ["--fgl", law, "--format", fmt], False)
    for argv in (
        [["kernel", "--quiver", quiver, "--flag", flag] for quiver, flags, _ in FLAGS for flag in flags]
        + [["kernel", "--quiver", quiver, "--flag", flag, "--classical"]
           for quiver, _, flags in FLAGS for flag in flags]
    )
    for law in LAWS
    for fmt in ("text", "json")
] + [
    (argv + ["--format", fmt], False)
    for argv in (
        [["verify", "fgl", "--quiver", A2, "--config", f"{DATA}/a2_rank2_{kind}_config.json"]
         for kind in ("disjoint", "colliding")]
        + [["verify", "--suite", "crosscheck", "--quiver", f"{DATA}/{q}.json"] for q in ("a1", "a2")]
    )
    for fmt in ("text", "json")
]

ZASTAVA = [
    (argv + ["--format", fmt], False)
    for argv in (
        [["zastava-fiber", "--config", f"{DATA}/a1_fiber.json"],
         ["zastava-fiber", "--quiver", A2, "--config", f"{DATA}/a2_rank2_fiber.json"]]
        + [["ind-rank", "--poset", poset, "--divisor", divisor] for poset, divisor in (
            ("chain:2", "a:i:3"),
            ("antichain:2", "a:i:1,b:j:1"),
            ("chain:3", "a:i:2,b:j:1"),
            (f"{DATA}/poset_diamond.json", "a:i:2"),
        )]
    )
    for fmt in ("text", "json")
]

VERIFY = [(["verify", "--suite", "all", "--format", "json"], True)]

SUITES = {"shuffle.json": SHUFFLE, "fixedpoints.json": FIXEDPOINTS,
          "kernel.json": KERNEL, "zastava.json": ZASTAVA, "verify.json": VERIFY}


def report(argv, hashed):
    """The report of one in-process CLI call, run from the repository root."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    assert code == EXIT_OK, argv
    text = out.getvalue()
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest() if hashed else text


def reports(commands):
    return {" ".join(argv): report(argv, hashed) for argv, hashed in commands}


def check_goldens(name):
    goldens = json.loads((GOLDENS / name).read_text(encoding="utf-8"))
    assert list(goldens) == [" ".join(argv) for argv, _ in SUITES[name]]
    for key, got in reports(SUITES[name]).items():
        assert got == goldens[key], key


def test_shuffle_reports_match_the_goldens():
    check_goldens("shuffle.json")


def test_fixedpoint_reports_match_the_goldens():
    check_goldens("fixedpoints.json")


def test_kernel_reports_match_the_goldens():
    check_goldens("kernel.json")


def test_zastava_reports_match_the_goldens():
    check_goldens("zastava.json")


def test_verify_all_report_matches_the_golden():
    check_goldens("verify.json")


if __name__ == "__main__":
    GOLDENS.mkdir(exist_ok=True)
    for name, commands in SUITES.items():
        (GOLDENS / name).write_text(json.dumps(reports(commands), indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(commands)} reports to {(GOLDENS / name).relative_to(ROOT)}", file=sys.stderr)
