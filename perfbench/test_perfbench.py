"""Self-tests of the benchmark: its inputs match the acceptance suites, its
tracer leaves the program as it found it, and its description matches what
it prints.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import random
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracing
import workloads
from quivergrass import checks, shuffle, symalg, thom
from quivergrass.quiver import stock_quiver

ROOT = Path(__file__).resolve().parent.parent


def _names(ctx):
    quivers = {repr(stock_quiver(q)): q for q in checks.CROSSCHECK_QUIVERS}
    laws = {law: name for name, law in checks.standard_laws()}
    return quivers[repr(ctx.quiver)], laws[ctx.law]


def _items(strata, kind=None):
    return [item for items in strata.values() for item in items
            if kind is None or item.key[0] == kind]


def _keys(strata, kind=None):
    return [item.key for item in _items(strata, kind)]


def test_crosscheck_items_are_ac1_flags(monkeypatch):
    seen = []

    def record(ctx, flag):
        seen.append((*_names(ctx), workloads._flag_key(flag)))
        return SimpleNamespace(ok=True, unit=None)

    monkeypatch.setattr(checks, "crosscheck", record)
    checks.crosscheck_suite(seed=0, max_total=4)
    keys = _keys(workloads.crosscheck_strata(seed=0))
    assert len(keys) == 3405
    assert Counter(keys) == Counter(seen)


def test_locality_items_are_ac5_pairs_and_configurations(monkeypatch):
    pairs, configs = [], []

    def record_pair(ctx, w1, w2):
        pairs.append(("pair", *_names(ctx), w1, w2))
        return SimpleNamespace(identity_holds=True)

    def record_config(ctx, d1, d2, tau):
        configs.append(workloads.config_key(d1, d2, tau))
        return SimpleNamespace(disjoint=True, trivializes=True, culprits=[])

    monkeypatch.setattr(checks, "verify_m_locality", record_pair)
    monkeypatch.setattr(checks, "verify_trivialization", record_config)
    seed = 3
    checks.locality_suite(seed=seed, max_total=4, random_configs=100)
    strata = workloads.locality_strata(seed)
    assert len(_keys(strata, "pair")) == 426
    assert Counter(_keys(strata, "pair")) == Counter(pairs)
    # AC5 draws 100 disjoint, then 100 colliding configurations per quiver.
    expected = [("disjoint" if i % 200 < 100 else "colliding", "a1" if i < 200 else "a2", key)
                for i, key in enumerate(configs)]
    drawn = _keys(strata, "disjoint") + _keys(strata, "colliding")
    assert len(drawn) == 400
    assert Counter(drawn) == Counter(expected)
    # A later pass repeats the word pairs with the next configurations.
    later = workloads.passes("locality", seed)
    first, second = next(later), next(later)
    assert Counter(i.key for i in first) == Counter(_keys(strata))
    assert sorted(_keys(strata, "pair")) == sorted(i.key for i in second if i.key[0] == "pair")
    assert {i.key for i in first if i.key[0] != "pair"} != {
        i.key for i in second if i.key[0] != "pair"}


def test_shuffle_words_are_ac4_words(monkeypatch):
    seen = []

    def record(ctx, word):
        seen.append(("word", *_names(ctx), word))
        return SimpleNamespace(polynomial=True)

    monkeypatch.setattr(checks, "word_product", record)
    checks.ideal_suite(seed=0, max_total=4)
    strata = workloads.shuffle_strata(seed=0)
    assert len(_keys(strata, "word")) == 68
    assert Counter(_keys(strata, "word")) == Counter(seen)
    assert sorted(_keys(strata, "constant")) == [("constant", "e*e"), ("constant", "e*e*e")]


def test_shuffle_strata_sizes_do_not_depend_on_the_seed():
    sizes = []
    triples = []
    for seed in (1, 2):
        strata = workloads.shuffle_strata(seed)
        sizes.append({key: len(items) for key, items in strata.items()})
        triples.append(_keys(strata, "assoc"))
    assert sizes[0] == sizes[1]
    assert sizes[0][("assoc", "series4", "a2", 4, 0)] >= 1
    assert triples[0] != triples[1]


def test_interleave_keeps_every_prefix_proportional():
    assert ([i.key for i in next(workloads.passes("crosscheck", seed=5))]
            == [i.key for i in next(workloads.passes("crosscheck", seed=5))])
    strata = workloads.crosscheck_strata(seed=5)
    stratum_of = {item.key: key for key, items in strata.items() for item in items}
    items = workloads.interleave(strata, random.Random(5))
    for cut in (len(items) // 7, len(items) // 4, len(items) // 2):
        prefix = Counter(stratum_of[i.key] for i in items[:cut])
        for key, members in strata.items():
            assert abs(prefix[key] - len(members) * cut / len(items)) <= 1


def _bindings():
    """Every attribute of every quivergrass and benchmark module and class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name.startswith("quivergrass") or name in ("workloads", "tracing", "run"):
            out[name] = dict(vars(mod))
            for attr, value in vars(mod).items():
                if isinstance(value, type) and value.__module__ == name:
                    out[f"{name}.{attr}"] = dict(vars(value))
    return out


def test_traced_run_restores_every_patched_attribute():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # Every module that binds a traced function sees the wrapper.
        original = before["quivergrass.symalg"]["symmetrize"]
        assert shuffle.symmetrize is symalg.symmetrize is not original
        assert thom.crosscheck is not before["quivergrass.thom"]["crosscheck"]
        assert sys.modules["quivergrass.cli"].crosscheck is thom.crosscheck
        chosen = (next(workloads.passes("crosscheck", 0))[:3]
                  + next(workloads.passes("locality", 0))[:3]
                  + next(workloads.passes("cli", 0))
                  + _items(workloads.shuffle_strata(0), "constant"))
        for index, item in enumerate(chosen):
            assert tracer.run_item(index, item.run)
    finally:
        tracer.uninstall()
    after = _bindings()
    for scope, attrs in before.items():
        for attr, value in attrs.items():
            assert after[scope][attr] is value, f"{scope}.{attr} was not restored"
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    assert calls["thom.crosscheck"] >= 3
    assert calls["symalg.symmetrize"] >= 2  # reached through shuffle's own binding
    assert calls["symalg.rat_sum"] >= 2  # called from inside symalg
    assert calls["cli.main"] == len(workloads.CLI_COMMANDS)


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.run_item(0, next(workloads.passes("crosscheck", 0))[0].run)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == pytest.approx(summary[tracing.ITEM]["total_s"])
    assert all(row["self_s"] >= -1e-9 for row in summary.values())


def test_benchmark_json_matches_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(next(workloads.passes(name, 0)) for name in run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == tracing.layer_metric_names()
    assert all(m["unit"] == tracing.metric_unit(m["name"]) for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END


def test_cli_commands_cover_every_subcommand_and_have_goldens():
    goldens = json.loads(workloads.GOLDENS.read_text())
    assert sorted(goldens) == sorted(workloads.command_id(a) for a, _ in workloads.CLI_COMMANDS)
    subcommands = {argv[0] for argv, _ in workloads.CLI_COMMANDS}
    assert subcommands == {"kernel", "shuffle", "verify", "sl2-lattice", "poincare",
                           "carell", "ind-rank", "zastava-fiber"}
