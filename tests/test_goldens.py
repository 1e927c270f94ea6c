"""The shuffle reports that a change of the summation code must keep
byte-identical, compared with ``tests/goldens/shuffle.json``.

The goldens hold the full text and JSON reports of ``shuffle --word`` and
``shuffle --dim``, and the sha256 of the text reports of ``verify --suite
ideal`` and ``verify --suite assoc``.  Re-record them from the repository
root, at the commit whose output is the reference:

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
GOLDENS = ROOT / "tests" / "goldens" / "shuffle.json"
A2 = "tests/data/a2_rank2.json"

WORDS = [([], "1,1"), ([], "1,1,1"),
         (["--quiver", A2], "1,2"), (["--quiver", A2], "1,2,1"), (["--quiver", A2], "2,1,1,2")]

# (argv, stored as a sha256 of the report instead of the report itself)
COMMANDS = [
    (["shuffle", *quiver, "--word", word, "--fgl", law, "--format", fmt], False)
    for quiver, word in WORDS
    for law in ("additive", "multiplicative")
    for fmt in ("text", "json")
] + [
    (["shuffle", "--dim", "2", "--degree", "2"], False),
    (["verify", "--suite", "ideal"], True),
    (["verify", "--suite", "assoc"], True),
]


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


def reports():
    return {" ".join(argv): report(argv, hashed) for argv, hashed in COMMANDS}


def test_shuffle_reports_match_the_goldens():
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert list(goldens) == [" ".join(argv) for argv, _ in COMMANDS]
    for key, got in reports().items():
        assert got == goldens[key], key


if __name__ == "__main__":
    GOLDENS.parent.mkdir(exist_ok=True)
    GOLDENS.write_text(json.dumps(reports(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(COMMANDS)} reports to {GOLDENS.relative_to(ROOT)}", file=sys.stderr)
