"""``RationalFunction.rename`` against the transport it replaced: every
transported factor sent through the public constructor again (primitive
part, merge, sort).  Checked on every transport the shuffle suites make
and on every transport of the function-level bilinearity and locality
oracles: the oracles, the assoc triples (only three per law) under the
three standard laws, the ideal suite's words under its two exact laws.
The orbit path of ``symmetrize`` renames no copy of a summand, so every
representative that its ``rat_sum`` fallback would rename is renamed
here too."""

from quivergrass import checks, shuffle
from quivergrass.checks import standard_laws
from quivergrass.symalg import RationalFunction, _field_groups, _repack, _representatives

from kernel_oracles import bilinearity_cases, bilinearity_holds, locality_cases, locality_holds


def normalizing_transport(f, positions, target):
    groups = _field_groups(positions, f.registry, target)
    return RationalFunction(target, f.unit, _repack(f.factors, groups, target))


def test_rename_equals_the_normalizing_transport_on_every_suite_transport(monkeypatch):
    rename = RationalFunction.rename
    counts = {"transports": 0, "flipped": 0, "resorted": 0}

    def checked(f, positions, target):
        got = rename(f, positions, target)
        want = normalizing_transport(f, positions, target)
        assert got == want and repr(got) == repr(want)
        assert [p for p, _ in got.factors] == [p for p, _ in want.factors]
        moved = [q for q, _ in _repack(f.factors, _field_groups(positions, f.registry, target), target)]
        signed = [-p if p.leading()[1] < 0 else p for p in moved]
        counts["transports"] += 1
        counts["flipped"] += signed != moved
        counts["resorted"] += [p for p, _ in got.factors] != signed
        return got

    monkeypatch.setattr(RationalFunction, "rename", checked)
    symmetrize = shuffle.symmetrize

    def renaming(f, partition):
        for positions in _representatives(f.registry, partition):
            f.rename(positions, f.registry)
        return symmetrize(f, partition)

    monkeypatch.setattr(shuffle, "symmetrize", renaming)
    laws = standard_laws()
    # bilinearity and locality are decided on divisors and rename nothing;
    # their function-level oracles still do
    assert all(bilinearity_holds(*case) for case in bilinearity_cases(laws))
    # the ideal suite runs the exact laws only: a truncated series law need
    # not keep generator words polynomial; assoc covers its shuffles
    assert all(r.ok for r in checks.ideal_suite(seed=0, max_total=4))
    assert all(r.ok for r in checks.assoc_suite(seed=0, triples=3))
    assert all(locality_holds(*case) for case in locality_cases(laws))
    # both fixes of a non-increasing transport must have been exercised
    assert counts["transports"] > 10_000, counts
    assert counts["flipped"] > 100 and counts["resorted"] > 100, counts
