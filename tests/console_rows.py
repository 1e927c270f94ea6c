"""Every console row of the CLI's exit-code promise, in one table.

A row is an argv (``{data}`` stands for ``tests/data``), the exit code it
must give (0 ok, 1 a check failed, 2 bad input, 3 an unwritable report),
and optionally text its output (stdout for 0 and 1, the one stderr line
for 2 and 3) must contain, or equal, and a wall-clock bound in seconds.

Tier-1 runs every row in-process through ``cli.main``.  As a script, this
file runs every row through the console command on its command line::

    python tests/console_rows.py quivergrass
    PYTHONPATH=src python tests/console_rows.py python -m quivergrass.cli
"""

from __future__ import annotations

import contextlib
import io
import subprocess
import sys
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

from quivergrass import cli

DATA = str(Path(__file__).resolve().parent / "data")


class Row(NamedTuple):
    text: str
    code: int
    says: str = ""
    exact: bool = False  # the output is ``says`` and nothing else
    seconds: Optional[float] = None
    stdout: Optional[str] = None  # a file the report goes to, in a subprocess only


def words(text: str) -> List[str]:
    """The argv of a row's text."""
    return [word.replace("{data}", DATA) for word in text.split()]


INCONSISTENT = ("[fail] quiver.dilation_consistency: h1:violated; h2:violated"
                "  (expected: weight pairs restrict to the symplectic character)\n")

ROWS = [
    # -- exit 0 ------------------------------------------------------------------
    Row("verify --suite fgl", 0),
    Row("verify fgl --suite fgl", 0),
    Row("verify --suite biextension", 0),
    Row("verify --suite locality", 0),
    Row("verify --suite locality --seed 2", 0),
    Row("verify --suite locality --quiver {data}/a2_rank2.json"
        " --config {data}/a2_rank2_config.json", 0),
    Row("verify --suite ideal", 0),
    Row("verify --suite assoc", 0),
    Row("verify fgl --quiver {data}/a1.json --config {data}/a1_config.json", 0, "locality.config"),
    # rank-2 a2 with mu(h1) = d1, mu(h1*) = d2 and tau = (1, 2): D1^2 + mu(h1)
    # = 0 + 1 lands on D2^1, the zero of a rep_lower factor
    Row("verify locality --quiver {data}/a2_rank2.json --config {data}/a2_rank2_config.json", 0,
        "locality.config: not disjoint; zero at rep_lower[h1;"),
    Row("kernel --quiver {data}/a2.json --flag 1,0|0,1 --fgl additive", 0,
        "kernel.dual_assembly_unit"),
    Row("kernel --quiver {data}/a2.json --flag 1,1|1,0 --fgl multiplicative", 0),
    Row("kernel --quiver {data}/a2.json --flag 1,1 --classical", 0,
        "classical.multiplicity.1-2: 1"),
    Row("shuffle --quiver {data}/a1.json --word 1,1", 0, "shuffle.product: 2"),
    Row("shuffle --quiver {data}/a1.json --word 1,1 --tau 0", 0, "shuffle.product: 2"),
    Row("shuffle --quiver {data}/a1.json --word 1 --fgl series:{data}/series_one_coeff.json", 0),
    Row("shuffle --word 1,1 --fgl multiplicative", 0),
    Row("shuffle --dim 2 --degree 2", 0, "weight_space_dim: 4"),
    # 650 rows at each of two points: in time only if the rank reduces leading terms alone
    Row("shuffle --quiver {data}/a2_rank2.json --fgl series:{data}/series4.json --dim 1,1"
        " --degree 30", 0, "weight_space_dim: 325", seconds=3.0),
    Row("poincare --alpha 2", 0, "3 + q"),
    Row("poincare --alpha 2,1", 0),
    Row("carell --n 3 --k 1", 0, "carell.dim: 3"),
    Row("carell --n 4 --k 1", 0),
    Row("carell --n 4 --k 2", 0),
    Row("carell --n 4 --k 3", 0),
    Row("sl2-lattice --p 2 --e 2 --n 1 --window 4", 0, "sl2.count: 2"),
    # Q^-1 of a tail of length 3 reaches z^-6, outside the window; without
    # --m no inverse is built
    Row("sl2-lattice --p 2 --e 3 --n 0 --window 3", 0, "sl2.count: 1"),
    Row("sl2-lattice --p 2 --e 3 --n 1 --window 5 --m 2", 0),
    Row("sl2-lattice --p 2 --e 2 --n 2 --window 5 --m 3", 0),
    Row("ind-rank --poset chain:2 --divisor a:i:1", 0, "ind_rank: 3"),
    Row("ind-rank --poset chain:2 --divisor a:i:3", 0),
    Row("zastava-fiber --config {data}/a1_fiber.json", 0),
    Row("zastava-fiber --quiver {data}/a1.json --config {data}/a1_fiber.json", 0,
        "zastava.rank: 4"),
    # -- exit 1: default weights on kronecker2's full torus fail the dilation check
    Row("shuffle --quiver {data}/kronecker2_full.json --word 1,2", 1, INCONSISTENT, exact=True),
    Row("verify --suite crosscheck --quiver {data}/kronecker2_full.json", 1, INCONSISTENT,
        exact=True),
    Row("verify fgl --quiver {data}/kronecker2_full.json --config {data}/a2_rank2_config.json", 1,
        INCONSISTENT, exact=True),
    Row("zastava-fiber --quiver {data}/kronecker2_full.json --config {data}/a2_rank2_fiber.json",
        1, INCONSISTENT, exact=True),
    # -- exit 2: a message naming the option (or the id) it rejects -------------
    Row("kernel --quiver /nonexistent.json --flag 1", 2),
    Row("kernel --quiver {data}/a2.json --flag=-1,0", 2, "--flag"),
    Row("kernel --quiver {data}/a2.json --flag 1 --classical", 2, "--flag"),
    Row("kernel --quiver {data}/a2.json --flag 2,1|0,1 --classical", 2, "--classical"),
    Row("shuffle --dim 2 --degree -1", 2, "--degree"),
    Row("shuffle --dim 5", 2, "--dim"),  # total weight above 4
    Row("shuffle --dim=-1", 2),
    Row("shuffle --dim 1,1", 2, "--dim"),  # a1 has one vertex
    Row("shuffle --dim 1|1", 2, "--dim"),
    Row("shuffle --word 1 --tau x", 2, "--tau"),
    Row("shuffle --word 1 --tau 1/0", 2, "--tau"),  # raised ZeroDivisionError
    Row("poincare --alpha -1", 2),
    Row("poincare --alpha x", 2, "--alpha"),
    Row("poincare --alpha 1,,2", 2, "--alpha"),
    Row("sl2-lattice --p 2 --e 2 --n -1 --window 4", 2),
    Row("sl2-lattice --p 2 --e 2 --n 1 --window 4 --m -1", 2),
    Row("carell --n -1 --k 0", 2, "--n -1"),
    Row("carell --n 4 --k 5", 2, "--k 5"),
    Row("ind-rank --poset {data}/poset_list.json --divisor a:i:2", 2),
    Row("ind-rank --poset {data}/poset_bad_relations.json --divisor a:i:2", 2),
    Row("ind-rank --poset chain:2 --divisor a:i", 2, "--divisor"),
    Row("ind-rank --poset chain:x --divisor a:i:1", 2, "--poset"),
    Row("zastava-fiber --config {data}/a1_fiber_one_point.json --tau x", 2, "--tau"),
    # a repeated point id, whatever its colors
    Row("ind-rank --poset chain:2 --divisor a:i:1,a:j:2", 2,
        "--divisor 'a:i:1,a:j:2': point id 'a'"),
    Row("zastava-fiber --quiver {data}/a2_rank2.json --config {data}/fiber_repeated_id.json", 2,
        "point id 'a' is repeated"),
    # bad values in a file
    Row("verify --suite fgl --quiver {data}/a2_rank2.json"
        " --config {data}/points_zero_denominator.json", 2),
    Row("verify --suite fgl --quiver {data}/a2_rank2.json"
        " --config {data}/points_unknown_color.json", 2),
    Row("zastava-fiber --quiver {data}/a2_rank2.json --config {data}/fiber_unknown_color.json", 2),
    # an option that no part of the run reads, before any suite runs
    Row("verify --suite locality --quiver /nonexistent.json", 2, "--quiver"),
    Row("verify --suite all --quiver {data}/a2.json", 2, "--quiver", seconds=1.0),
    Row("verify --suite fgl --fgl multiplicative", 2, "--fgl"),
    Row("verify --suite crosscheck --fgl multiplicative", 2, "--fgl"),
    # a --config file gives its own tau; this one's is 1
    Row("verify locality --quiver {data}/a1.json --config {data}/a1_config.json --tau 3", 2,
        "--tau"),
    # only kernel, shuffle, verify and zastava-fiber read --fgl, only
    # shuffle --word reads --tau (zastava-fiber's tau is in its file), and
    # only verify --suite assoc, locality and all read --seed, each after
    # the command
    Row("carell --n 3 --k 1 --tau 3 --fgl multiplicative", 2, "--tau"),
    Row("kernel --quiver {data}/a2.json --flag 1,0|0,1 --tau 3", 2, "--tau"),
    Row("shuffle --dim 2 --degree 2 --tau 5", 2, "--tau"),
    Row("zastava-fiber --config {data}/a1_fiber.json --tau 3", 2, "--tau"),
    Row("ind-rank --poset chain:2 --divisor a:i:1 --fgl multiplicative", 2, "--fgl"),
    Row("sl2-lattice --p 2 --e 2 --n 1 --window 4 --seed 1", 2, "--seed"),
    Row("shuffle --word 1,1 --seed 3", 2, "--seed"),
    Row("shuffle --dim 2 --degree 2 --seed 5", 2, "--seed"),
    Row("verify --suite crosscheck --quiver {data}/a1.json --seed 5", 2, "--seed"),
    Row("verify --suite classical --seed 5", 2, "--seed"),
    Row("verify --suite fgl --seed 0", 2, "--seed"),
    Row("--fgl multiplicative kernel --quiver {data}/a2.json --flag 1,0|0,1", 2,
        "multiplicative"),
    # parse errors: one error line, as all other bad input
    Row("shuffle --word 1 --dim 2", 2, "--dim"),
    Row("carell --n x --k 1", 2, "--n"),
    Row("carell --n 3", 2, "--k"),
    Row("kernel --quiver {data}/a2.json --flag 1,0|0,1 --format xml", 2, "--format"),
    Row("shuffle --word=", 2, "--word '': unknown vertex ''"),  # an empty word
    Row("shuffle --word 9", 2, "--word"),
    Row("shuffle --word 1,,1", 2, "--word"),
    # 0 is not a point of the multiplicative group
    Row("shuffle --word 1,1 --fgl multiplicative --tau 0", 2, "--tau 0: tau value d1 = 0"),
    # a file that is no JSON
    Row("zastava-fiber --config /dev/null", 2, "invalid JSON in /dev/null"),
    Row("verify fgl --quiver {data}/a1.json --config /dev/null", 2, "invalid JSON in /dev/null"),
    Row("kernel --quiver {data}/a2.json --flag 1,0|0,1 --fgl series:/dev/null", 2,
        "invalid JSON in /dev/null"),
    Row("ind-rank --poset /dev/null --divisor a:i:1", 2, "invalid JSON in /dev/null"),
    Row("verify --suite fgl --quiver {data}/a2_rank2.json --config {data}/a2_rank2_config.json"
        " --fgl multiplicative", 2),  # 0 is not a point of the multiplicative group
    # two suite names
    Row("verify nope --suite fgl", 2, "verify 'nope' and --suite 'fgl'"),
    # past a bound: over the sl2-lattice state budget (once built every ring
    # element first), past the monotone-system budget of 2^16, or a poincare,
    # carell or weight-space bound
    Row("sl2-lattice --p 2 --e 40 --n 0 --window 40", 2, seconds=2.0),
    Row("sl2-lattice --p 1000003 --e 2 --n 0 --window 2", 2, seconds=2.0),
    Row("ind-rank --poset antichain:12 --divisor a:i:3", 2, seconds=1.0),
    Row("ind-rank --poset chain:30 --divisor a:i:30", 2, seconds=1.0),
    Row("ind-rank --poset chain:1 --divisor a:i:70000", 2, seconds=1.0),
    Row("zastava-fiber --config {data}/a1_fiber_antichain9.json", 2, seconds=1.0),  # 4^9 systems
    Row("poincare --alpha 1000", 2, seconds=1.0),
    Row("poincare --alpha " + ",".join(["32"] * 16), 2, seconds=1.0),  # every entry at the cap
    Row("poincare --alpha " + ",".join(["1"] * 20000), 2, seconds=1.0),  # 2^20000 at q = 1
    Row("carell --n 5 --k 2", 2, "--n 5"),  # past the fixed-scheme oracle's bound
    Row("shuffle --dim 2 --degree 80", 2, "--degree 80", seconds=1.0),
    # past the numerator-term bound, which grows with the arrows
    Row("shuffle --quiver {data}/a2.json --dim 2,2 --degree 3", 2, "--degree 3", seconds=1.0),
    Row("shuffle --quiver {data}/a2_four_arrows.json --dim 2,2 --degree 1", 2, "--degree 1",
        seconds=1.0),
    # -- exit 3 ------------------------------------------------------------------
    Row("poincare --alpha 2,1", 3, "error: cannot write the report:", stdout="/dev/full"),
]


def run(argv: Sequence[str], command: Sequence[str] = (),
        stdout: Optional[str] = None) -> Tuple[int, str, str, float]:
    """Exit code, stdout, stderr and seconds of ``argv`` run through
    ``cli.main`` in this process or, given the words of a console command,
    through that command in a subprocess, its report written to ``stdout``."""
    started = time.perf_counter()
    if command:
        with open(stdout, "w") if stdout else contextlib.nullcontext(subprocess.PIPE) as sink:
            proc = subprocess.run([*command, *argv], stdout=sink, stderr=subprocess.PIPE, text=True)
        return proc.returncode, proc.stdout or "", proc.stderr, time.perf_counter() - started
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - started


def problems(row: Row, command: Sequence[str] = ()) -> List[str]:
    """What does not hold of ``row`` when ``run`` runs it; empty if it holds."""
    code, out, err, seconds = run(words(row.text), command, row.stdout)
    found = []
    if code != row.code:
        found.append(f"exit {code}, expected {row.code}")
    if row.code < 2 and err:
        found.append("stderr is not empty")
    if row.code >= 2 and not (err.startswith("error:") and err.count("\n") == 1):
        found.append("stderr is not one error line")
    said = out if row.code < 2 else err
    if (said != row.says) if row.exact else (row.says not in said):
        found.append(f"output does not {'equal' if row.exact else 'contain'} {row.says!r}")
    if row.seconds is not None and seconds >= row.seconds:
        found.append(f"took {seconds:.2f} s, bound {row.seconds} s")
    if found:
        found.append(f"output: {(said or out or err)[:500]!r}")
    return found


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} <console command>, e.g. quivergrass")
    failed = 0
    for row in ROWS:
        found = problems(row, sys.argv[1:])
        failed += bool(found)
        print(f"{'FAIL' if found else 'ok  '} {row.text[:100]}")
        for line in found:
            print(f"     {line}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows hold")
    sys.exit(1 if failed else 0)
