import json

import pytest

from quivergrass.quiver import (
    Arrow,
    DilationTorus,
    QuiverFormatError,
    QuiverSpec,
    abelianization,
    default_nakajima,
    dim_add,
    incidence_form,
    parse_quiver,
    star,
    stock_quiver,
    validate_dilation,
)


def test_default_weights_single_arrow():
    q = stock_quiver("a2")
    w = default_nakajima(q)
    assert w["h1"] == 1 and w["h1*"] == 1


def test_default_weights_double_arrow():
    q = stock_quiver("kronecker2")
    w = default_nakajima(q)
    assert w["h1"] == 2 and w["h2"] == 0
    assert w["h1*"] == 0 and w["h2*"] == 2


def test_default_weights_no_arrows():
    assert default_nakajima(stock_quiver("a1")) == {}


def test_weight_pairs_sum_to_two():
    for name in ("a2", "a3", "kronecker2", "cyclic3", "jordan"):
        q = stock_quiver(name)
        w = default_nakajima(q)
        for a in q.arrows:
            assert w[a.aid] + w[star(a.aid)] == 2


def test_validate_dilation_cases():
    q = stock_quiver("kronecker2")
    w = default_nakajima(q)
    assert validate_dilation(q, w, DilationTorus.diagonal()).all_ok
    ones = {aid: 1 for a in q.double for aid in (a.aid,)}
    assert validate_dilation(q, ones, DilationTorus.full()).all_ok
    rep = validate_dilation(q, w, DilationTorus.full())
    assert not rep.all_ok  # weight 2 on the first arrow is not the symplectic weight


def test_incidence_examples():
    def entry(form, i, j):
        return form.get((i, j), form.get((j, i), 0))

    a2 = incidence_form(stock_quiver("a2"))
    assert entry(a2, "1", "2") == 1
    assert entry(a2, "1", "1") == 0
    jordan = incidence_form(stock_quiver("jordan"))
    assert entry(jordan, "1", "1") == 1
    empty = incidence_form(stock_quiver("a1"))
    assert all(v == 0 for v in empty.values())


def test_incidence_reversal_invariance():
    q = stock_quiver("a3")
    rev = QuiverSpec(q.vertices, [Arrow(a.aid, a.head, a.tail) for a in q.arrows])
    assert incidence_form(q) == incidence_form(rev)


def test_abelianization_concatenation():
    q = stock_quiver("a2")
    w1, w2 = ("1", "2", "1"), ("2",)
    assert abelianization(q, w1 + w2) == dim_add(abelianization(q, w1), abelianization(q, w2))


def test_parse_quiver_roundtrip():
    data = {
        "vertices": ["1", "2"],
        "arrows": [{"id": "h1", "tail": "1", "head": "2"}],
        "weights": {"h1": 1, "h1*": 1},
        "dilation": {"rank": 1, "basis": [[1], [1]]},
    }
    q, weights, torus = parse_quiver(data)
    assert q.vertices == ("1", "2")
    assert weights["h1*"] == 1
    assert torus.rank == 1 and torus.restrict(1, 1) == (2,)


def test_parse_quiver_rejects_bad_arrow():
    with pytest.raises(QuiverFormatError):
        parse_quiver({"vertices": ["1"], "arrows": [{"id": "h", "tail": "1", "head": "9"}]})
    with pytest.raises(QuiverFormatError):
        parse_quiver({"vertices": ["1", "1"], "arrows": []})


def test_double_involution():
    q = stock_quiver("a2")
    ids = {a.aid for a in q.double}
    assert ids == {"h1", "h1*"}
    rev = {a.aid: (a.tail, a.head) for a in q.double}
    assert rev["h1*"] == ("2", "1")
    assert star(star("h1")) == "h1"


def test_loops_flagged():
    q = stock_quiver("jordan")
    assert q.loops and q.loops[0].aid == "h1"
