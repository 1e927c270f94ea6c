import errno
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import console_rows
from console_rows import ROWS
from quivergrass import checks, cli, fgl, thom
from quivergrass.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_OUTPUT_ERROR, EXIT_PARSE_ERROR, main

A1 = {"vertices": ["1"], "arrows": [], "dilation": {"rank": 1, "basis": [[1], [1]]}}
A2 = {
    "vertices": ["1", "2"],
    "arrows": [{"id": "h1", "tail": "1", "head": "2"}],
    "dilation": {"rank": 1, "basis": [[1], [1]]},
}


DATA = Path(__file__).resolve().parent / "data"
A1_FILE, A2_FILE = str(DATA / "a1.json"), str(DATA / "a2.json")  # the two quivers above


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_fgl_json_schema(capsys):
    code, out = run(capsys, ["--format", "json", "verify", "fgl"])
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["command"] == "verify"
    assert {"name", "status", "value", "expected", "provenance"} <= set(report["results"][0])
    assert "elapsed_ms" not in report  # deterministic by default


def test_verify_crosscheck_single_quiver_lists_units(capsys):
    code, out = run(capsys, ["verify", "--suite", "crosscheck", "--quiver", A1_FILE])
    assert code == EXIT_OK
    lines = [l for l in out.splitlines() if "crosscheck.flag[" in l]
    assert len(lines) == 15  # all flag types of total dimension <= 4 on one vertex
    assert all("[pass]" in l for l in lines)


@pytest.mark.parametrize("argv", [
    ["--format", "json", "shuffle", "--quiver", A1_FILE, "--word", "1,1"],
    ["--format", "json", "shuffle", "--dim", "2", "--degree", "2"],
])
def test_deterministic_reports(capsys, argv):
    code1, out1 = run(capsys, argv)
    code2, out2 = run(capsys, argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def test_global_flags_both_positions(capsys):
    _, out1 = run(capsys, ["--format", "json", "poincare", "--alpha", "1"])
    _, out2 = run(capsys, ["poincare", "--alpha", "1", "--format", "json"])
    assert out1 == out2
    assert json.loads(out1)["results"][0]["value"] == "2"


def test_a_global_flag_does_not_outlive_its_call(capsys):
    # the parser is shared by every call; what one call parses must not
    # leak into the next
    goldens = json.loads((Path(__file__).resolve().parent / "goldens" / "kernel.json").read_text())
    key = "kernel --quiver tests/data/a2.json --flag 1,1|1,0 --fgl {} --format text"
    argv = ["kernel", "--quiver", A2_FILE, "--flag", "1,1|1,0"]
    code, out = run(capsys, argv + ["--fgl", "multiplicative"])
    assert code == EXIT_OK and out == goldens[key.format("multiplicative")]
    code, out = run(capsys, argv)
    assert code == EXIT_OK and out == goldens[key.format("additive")]
    before = run(capsys, ["--format", "json", *argv, "--fgl", "multiplicative"])
    after = run(capsys, argv + ["--fgl", "multiplicative", "--format", "json"])
    assert before == after and json.loads(before[1])["config_echo"]["fgl"] == "multiplicative"
    code, out = run(capsys, argv)
    assert code == EXIT_OK and out == goldens[key.format("additive")]


def test_the_parser_is_built_once_per_process():
    script = (
        "import sys\n"
        "from quivergrass import cli\n"
        "built = cli.build_parser.cache_info().currsize\n"
        "for alpha in ('1', '2'):\n"
        "    assert cli.main(['poincare', '--alpha', alpha]) == cli.EXIT_OK\n"
        "print(built, cli.build_parser.cache_info().misses, file=sys.stderr)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    # not built at import, and built once for two calls
    assert proc.stderr.split() == ["0", "1"]
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv", [
    ["poincare", "--alpha", "2,1"],
    ["ind-rank", "--poset", "chain:2", "--divisor", "a:i:3"],
    ["verify", "fgl"],
])
def test_timing_adds_elapsed_ms_and_leaves_the_rest(capsys, argv):
    _, plain_json = run(capsys, argv + ["--format", "json"])
    _, timed_json = run(capsys, argv + ["--format", "json", "--timing"])
    timed = json.loads(timed_json)
    assert type(timed.pop("elapsed_ms")) is int
    assert timed == json.loads(plain_json)
    _, plain_text = run(capsys, argv)
    code, timed_text = run(capsys, ["--timing", *argv])
    *rest, last = timed_text.splitlines()
    assert code == EXIT_OK
    assert rest == plain_text.splitlines()
    assert last.startswith("elapsed_ms: ") and last.split(": ")[1].isdigit()


def test_verify_suite_help_lists_every_suite(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per option
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "|".join([*checks.SUITES, "all"]) in capsys.readouterr().out


@pytest.mark.parametrize("command", ["carell", "poincare", "sl2-lattice", "ind-rank"])
def test_a_command_lists_only_the_options_it_reads(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert not {"--fgl", "--tau", "--seed"} & set(capsys.readouterr().out.split())


@pytest.mark.parametrize(
    "dilation",
    [
        {"rank": 1, "basis": [[1]]},  # one row
        [1, 1],  # not an object
        {"rank": 1.5, "basis": [[1], [1]]},  # rank not an integer
        {"rank": "1", "basis": [[1], [1]]},
    ],
)
def test_malformed_dilation_exits_2(tmp_path, capsys, dilation):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**A1, "dilation": dilation}))
    code = main(["kernel", "--quiver", str(path), "--flag", "1"])
    assert code == EXIT_PARSE_ERROR
    assert "dilation" in capsys.readouterr().err


@pytest.mark.parametrize(
    "weights",
    [
        [1],  # not an object
        {"h1": 1.5, "h1*": 1},  # weight not an integer
        {"h1": "1", "h1*": 1},
        {"h1": True, "h1*": 1},
    ],
)
def test_malformed_weights_exits_2(tmp_path, capsys, weights):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**A2, "weights": weights}))
    code = main(["kernel", "--quiver", str(path), "--flag", "1,0|0,1"])
    assert code == EXIT_PARSE_ERROR
    assert "weights" in capsys.readouterr().err


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    law = tmp_path / "law.json"
    law.write_text('{"N": 4, "coeffs": {"1,2": "1", "2,1": "-1/2"}}')
    commands = [
        ["verify", "--suite", "crosscheck", "--quiver", A2_FILE],
        ["kernel", "--quiver", A2_FILE, "--flag", "1,1|1,0", "--fgl", "multiplicative"],
        ["kernel", "--quiver", A2_FILE, "--flag", "1,1|1,0", "--fgl", f"series:{law}"],
        # a symmetrized sum of three terms, and a product with one representative
        ["shuffle", "--quiver", A2_FILE, "--word", "1,2,1"],
        ["shuffle", "--quiver", A2_FILE, "--word", "1,2"],
    ]
    src = str(Path(__file__).resolve().parent.parent / "src")
    for command in commands:
        argv = [sys.executable, "-m", "quivergrass.cli", *command, "--format", "json"]
        outs = []
        for seed in ("0", "1", "12345"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            proc = subprocess.run(argv, env=env, capture_output=True, check=True)
            outs.append(proc.stdout)
        assert outs[0] and outs[0] == outs[1] == outs[2]


def test_kernel_report_is_the_same_from_a_cold_and_a_warm_memo(tmp_path, capsys):
    law = tmp_path / "law.json"
    law.write_text('{"N": 4, "coeffs": {"1,2": "1", "2,1": "-1/2"}}')
    for spec in ("additive", "multiplicative", f"series:{law}"):
        argv = ["--format", "json", "kernel", "--quiver", A2_FILE, "--flag", "1,1|1,0",
                "--fgl", spec]
        fgl._ORIENTATIONS.clear()
        cold = run(capsys, argv)
        warm = run(capsys, argv)
        assert cold[0] == EXIT_OK and cold == warm


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",  # not an object
        '{"N": 4.7, "coeffs": {"1,1": "-1"}}',  # N not an integer
        '{"N": "4", "coeffs": {}}',
        '{"coeffs": {"1,1": "-1"}}',  # no N
        '{"N": 4, "coeffs": [1]}',
        '{"N": 4, "coeffs": {"1": "-1"}}',
    ],
)
def test_malformed_series_law_exits_2(tmp_path, capsys, text):
    law = tmp_path / "law.json"
    law.write_text(text)
    code = main(["kernel", "--quiver", A1_FILE, "--flag", "1|1", "--fgl", f"series:{law}"])
    assert code == EXIT_PARSE_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        [1],  # not an object
        {"D1": [0]},  # a configuration that is not a color map
        {"D1": {"1": 0}},  # coordinates that are not a list
        {"tau": 1},
    ],
)
def test_malformed_point_config_exits_2(tmp_path, capsys, config):
    cfg = tmp_path / "pts.json"
    cfg.write_text(json.dumps(config))
    code = main(["verify", "fgl", "--quiver", A1_FILE, "--config", str(cfg)])
    assert code == EXIT_PARSE_ERROR
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        [1],  # not an object
        {"tau": ["1/3"], "points": [1]},  # a point that is not an object
        {"tau": ["1/3"]},  # no points
        {"tau": ["1/3"], "points": [{"id": "a", "color": "1", "coord": 0, "multiplicity": 1.5}]},
        {"tau": ["1/3"], "points": [{"id": "a", "color": "1", "coord": 0, "multiplicity": "1"}]},
    ],
)
def test_malformed_fiber_config_exits_2(tmp_path, capsys, config):
    cfg = tmp_path / "fiber.json"
    cfg.write_text(json.dumps(config))
    code = main(["zastava-fiber", "--quiver", A1_FILE, "--config", str(cfg)])
    assert code == EXIT_PARSE_ERROR
    assert "error:" in capsys.readouterr().err


class _UnwritableStdout:
    """A stdout whose every write raises ``error``; its descriptor is a real
    file's, so that ``main`` can point it at devnull."""

    def __init__(self, error, fd):
        self.error, self.fd = error, fd

    def write(self, text):
        raise self.error

    def flush(self):
        pass

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                   OSError(errno.ENOSPC, "No space left on device")])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_an_unwritable_report_exits_3_with_one_line(tmp_path, capsys, monkeypatch, error, fmt):
    with open(tmp_path / "stdout", "w") as target:
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", _UnwritableStdout(error, target.fileno()))
            code = main(["poincare", "--alpha", "2,1", "--format", fmt])
        # the rest of the report goes nowhere, so no final flush fails again
        assert os.path.samestat(os.fstat(target.fileno()), os.stat(os.devnull))
    assert code == EXIT_OUTPUT_ERROR
    assert EXIT_OUTPUT_ERROR not in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_PARSE_ERROR)
    err = capsys.readouterr().err
    assert err == f"error: cannot write the report: {error}\n"


def _row_id(row):
    return row.text.replace("{data}/", "")[:70]


@pytest.mark.parametrize("row", [row for row in ROWS if not row.stdout], ids=_row_id)
def test_console_row(row):
    assert not console_rows.problems(row)


@pytest.mark.parametrize("row", [row for row in ROWS if row.stdout], ids=_row_id)
def test_console_row_through_the_entry_point(monkeypatch, row):
    # the report goes to a real file, such as /dev/full
    monkeypatch.setenv("PYTHONPATH", str(Path(__file__).resolve().parent.parent / "src"))
    assert not console_rows.problems(row, [sys.executable, "-m", "quivergrass.cli"])


GOOD = {"quiver": DATA / "a2_rank2.json", "points": DATA / "a2_rank2_config.json",
        "fiber": DATA / "a2_rank2_fiber.json"}

# Every subcommand that reads a file of each kind; {file} is the bad file.
FILE_READERS = {
    "quiver": [
        ["kernel", "--quiver", "{file}", "--flag", "1,0|0,1"],
        ["shuffle", "--quiver", "{file}", "--word", "1"],
        ["verify", "fgl", "--quiver", "{file}", "--config", "{points}"],
        ["zastava-fiber", "--quiver", "{file}", "--config", "{fiber}"],
    ],
    "series law": [
        ["kernel", "--quiver", "{quiver}", "--flag", "1,0|0,1", "--fgl", "series:{file}"],
        ["shuffle", "--quiver", "{quiver}", "--word", "1", "--fgl", "series:{file}"],
        ["verify", "fgl", "--quiver", "{quiver}", "--config", "{points}",
         "--fgl", "series:{file}"],
        ["zastava-fiber", "--quiver", "{quiver}", "--config", "{fiber}",
         "--fgl", "series:{file}"],
    ],
    "point config": [["verify", "fgl", "--quiver", "{quiver}", "--config", "{file}"]],
    "fiber config": [["zastava-fiber", "--quiver", "{quiver}", "--config", "{file}"]],
    "poset": [
        ["ind-rank", "--poset", "{file}", "--divisor", "a:1:1"],
        ["zastava-fiber", "--quiver", "{quiver}", "--config", "{fiber_with_poset}"],
    ],
}

# Bad files of each kind: (file, extra arguments, what the message must name).
BAD_FILES = {
    "quiver": [("quiver_zero_denominator.json", [], "weights")],
    "series law": [
        ("series_zero_denominator.json", [], "series law coefficient '1,1'"),
        ("series_bad_key.json", [], "series law key '1;1'"),
        ("series_list_coefficient.json", [], "series law coefficient '1,1'"),
    ],
    "point config": [
        ("points_zero_denominator.json", [], "coordinate of color 2"),
        ("points_tau_zero_denominator.json", [], "tau"),
        # 0 is a point of the additive group but not of the multiplicative one
        ("a2_rank2_config.json", ["--fgl", "multiplicative"], "D1 coordinate of color 2 = 0"),
        ("points_tau_zero.json", ["--fgl", "multiplicative"], "tau value d1 = 0"),
        ("points_unknown_color.json", [], "D1: color '9'"),
    ],
    "fiber config": [
        ("fiber_zero_denominator.json", [], "coord of point a"),
        ("fiber_tau_zero_denominator.json", [], "tau"),
        ("fiber_missing_coord.json", [], "has no 'coord'"),
        ("fiber_tau_zero.json", ["--fgl", "multiplicative"], "tau value d1 = 0"),
        ("a2_rank2_fiber.json", ["--fgl", "multiplicative"], "coord of point a = 0"),
        ("fiber_unknown_color.json", [], "point b: color '9'"),
    ],
    "poset": [("poset_unknown_element.json", [], "unknown element")],
}


@pytest.mark.parametrize(
    "argv, bad, extra, named",
    [
        pytest.param(argv, bad, extra, named, id=f"{argv[0]}-{kind}-{bad}")
        for kind, readers in FILE_READERS.items()
        for argv in readers
        # a file that is no UTF-8 text is bad for every reader
        for bad, extra, named in BAD_FILES[kind] + [("not_utf8.json", [], "invalid JSON in")]
    ],
)
def test_every_file_reader_rejects_every_bad_file_kind(tmp_path, capsys, argv, bad, extra, named):
    fiber_with_poset = tmp_path / "fiber.json"
    fiber_with_poset.write_text(json.dumps(
        {**json.loads(GOOD["fiber"].read_text()), "poset": str(DATA / bad)}
    ))
    paths = {**GOOD, "file": DATA / bad, "fiber_with_poset": fiber_with_poset}
    code = main([a.format(**paths) for a in argv] + extra)
    err = capsys.readouterr().err
    assert code == EXIT_PARSE_ERROR, err
    assert err.startswith("error:") and named in err, err


INCONSISTENT = str(DATA / "kronecker2_full.json")  # default weights on the full torus


def test_the_kernel_command_reports_an_inconsistent_file_and_goes_on(capsys):
    code, out = run(capsys, ["kernel", "--quiver", INCONSISTENT, "--flag", "1,0|0,1"])
    assert code == EXIT_CHECK_FAILED
    assert out.startswith("[fail] quiver.dilation_consistency: h1:violated; h2:violated")
    assert "[pass] kernel.dual_assembly_unit: 1" in out


@pytest.mark.parametrize("argv", [
    ["kernel", "--quiver", str(GOOD["quiver"]), "--flag", "1,0|0,1"],
    ["shuffle", "--quiver", str(GOOD["quiver"]), "--word", "1,2"],
    ["verify", "--suite", "crosscheck", "--quiver", str(GOOD["quiver"]),
     "--config", str(GOOD["points"])],
    ["zastava-fiber", "--quiver", str(GOOD["quiver"]), "--config", str(GOOD["fiber"])],
])
def test_each_command_loads_and_checks_one_context(capsys, monkeypatch, argv):
    loads, checks_run = [], []
    load, validate = cli.load_quiver, thom.validate_dilation
    monkeypatch.setattr(cli, "load_quiver", lambda path: loads.append(path) or load(path))
    monkeypatch.setattr(thom, "validate_dilation",
                        lambda *a: checks_run.append(a) or validate(*a))
    code, _ = run(capsys, argv)
    assert code == EXIT_OK
    assert loads == [str(GOOD["quiver"])] and len(checks_run) == 1


def test_zero_coordinates_stay_points_of_the_additive_group(capsys):
    quiver = str(GOOD["quiver"])
    for argv in (["verify", "fgl", "--quiver", quiver, "--config", str(GOOD["points"])],
                 ["zastava-fiber", "--quiver", quiver, "--config", str(GOOD["fiber"])],
                 ["verify", "fgl", "--quiver", quiver,
                  "--config", str(DATA / "points_tau_zero.json")]):
        code, _ = run(capsys, argv)
        assert code == EXIT_OK


# Junk for any node of an input file: 10^400 overflows a float, and the
# 5,000-digit string is past the interpreter's int-from-text limit.
JUNK = [None, [], {}, "", "x", "1/0", -1, 0, 1.5, True, 10 ** 400, "9" * 5000, [[]], {"": None}]
FUZZED = {  # a file, and the commands that read a broken copy of it as {file}
    "a2.json": ["kernel --quiver {file} --flag 1,0|0,1", "shuffle --quiver {file} --word 1,2"],
    "a1_fiber.json": ["zastava-fiber --config {file}"],
    "a2_rank2_config.json": ["verify fgl --quiver {data}/a2_rank2.json --config {file}"],
    "series4.json": ["kernel --quiver {data}/a2.json --flag 1,1|1,0 --fgl series:{file}"],
    "poset_diamond.json": ["ind-rank --poset {file} --divisor a:i:2"],
}


def _broken(node):
    """Every copy of a JSON value with one node replaced by junk or deleted."""
    yield from JUNK
    for key in node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ():
        copy = node.copy()
        del copy[key]
        yield copy
        for child in _broken(node[key]):
            copy = node.copy()
            copy[key] = child
            yield copy


def test_a_broken_input_file_exits_0_1_or_2_within_5_seconds(tmp_path):
    cases = [(name, text, broken) for name, texts in FUZZED.items()
             for broken in _broken(json.loads((DATA / name).read_text())) for text in texts]
    for name, text, broken in random.Random(26).sample(cases, 500):
        file = tmp_path / name
        file.write_text(json.dumps(broken))
        case = f"{text} on {file.read_text()[:200]}"
        try:
            code, _, _, seconds = console_rows.run(
                [word.replace("{file}", str(file)) for word in console_rows.words(text)])
        except Exception as exc:  # a traceback at the console
            raise AssertionError(case) from exc
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_PARSE_ERROR) and seconds < 5, case
