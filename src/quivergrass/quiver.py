"""Quiver data: the double, weight functions, dilation torus, gradings.

A quiver file is JSON:

    {"vertices": ["1", "2"],
     "arrows": [{"id": "h1", "tail": "1", "head": "2"}],
     "weights": {"h1": 1, "h1*": 1},            # optional
     "dilation": {"rank": 1, "basis": [[1], [1]]}}  # optional

The double adds a reversed arrow ``id*`` per arrow.  The dilation torus
is a subtorus of the rank-two weight torus, given by a 2 x r integer
matrix whose rows correspond to the two ambient weight coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple


class QuiverFormatError(Exception):
    """Malformed quiver description."""


@dataclass(frozen=True)
class Arrow:
    aid: str
    tail: str
    head: str

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head


def star(aid: str) -> str:
    """Involution on arrow ids of the double."""
    return aid[:-1] if aid.endswith("*") else aid + "*"


class QuiverSpec:
    """Vertices, arrows, and the derived double."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[Arrow]):
        if len(set(vertices)) != len(vertices):
            raise QuiverFormatError("duplicate vertex names")
        self.vertices: Tuple[str, ...] = tuple(str(v) for v in vertices)
        self.vpos: Dict[str, int] = {v: i for i, v in enumerate(self.vertices)}
        seen = set()
        for a in arrows:
            if a.aid in seen or a.aid.endswith("*"):
                raise QuiverFormatError(f"bad arrow id {a.aid!r}")
            seen.add(a.aid)
            if a.tail not in self.vpos or a.head not in self.vpos:
                raise QuiverFormatError(f"arrow {a.aid} references unknown vertex")
        self.arrows: Tuple[Arrow, ...] = tuple(arrows)

    @property
    def double(self) -> Tuple[Arrow, ...]:
        rev = tuple(Arrow(star(a.aid), a.head, a.tail) for a in self.arrows)
        return self.arrows + rev

    @property
    def loops(self) -> Tuple[Arrow, ...]:
        return tuple(a for a in self.arrows if a.is_loop)

    def arrows_between(self, i: str, j: str) -> List[Arrow]:
        """Arrows i -> j, in declaration order."""
        return [a for a in self.arrows if a.tail == i and a.head == j]

    def __repr__(self) -> str:
        arr = ", ".join(f"{a.aid}:{a.tail}->{a.head}" for a in self.arrows)
        return f"QuiverSpec([{', '.join(self.vertices)}]; {arr})"


# -- weight functions -------------------------------------------------------

NakajimaWeights = Dict[str, int]  # arrow id in the double -> integer weight


def default_nakajima(q: QuiverSpec) -> NakajimaWeights:
    """Weights a + 2 - 2p on the p-th of the a parallel arrows i -> j,
    and -a + 2p on its reverse, so each pair sums to 2."""
    weights: NakajimaWeights = {}
    for i in q.vertices:
        for j in q.vertices:
            group = q.arrows_between(i, j)
            a = len(group)
            for p, arrow in enumerate(group, start=1):
                weights[arrow.aid] = a + 2 - 2 * p
                weights[star(arrow.aid)] = -a + 2 * p
    return weights


# -- dilation torus ---------------------------------------------------------

@dataclass(frozen=True)
class DilationTorus:
    """Subtorus of the rank-two weight torus with an integer basis.

    ``basis`` has two rows (the ambient weight coordinates) and ``rank``
    columns.  A weight-torus character with exponents (a, b) restricts
    to the integer vector (a, b) . basis over the subtorus coordinates.
    """

    rank: int
    basis: Tuple[Tuple[int, ...], Tuple[int, ...]]

    def __post_init__(self):
        if self.rank not in (0, 1, 2):
            raise QuiverFormatError("dilation rank must be 0, 1, or 2")
        if len(self.basis) != 2 or any(len(row) != self.rank for row in self.basis):
            raise QuiverFormatError("dilation basis must be a 2 x rank matrix")

    @staticmethod
    def diagonal() -> "DilationTorus":
        return DilationTorus(1, ((1,), (1,)))

    @staticmethod
    def full() -> "DilationTorus":
        return DilationTorus(2, ((1, 0), (0, 1)))

    def restrict(self, a: int, b: int) -> Tuple[int, ...]:
        """Exponents of t1^a t2^b on the subtorus coordinates."""
        return tuple(a * self.basis[0][k] + b * self.basis[1][k] for k in range(self.rank))


@dataclass
class DilationReport:
    """Per-arrow check that the moment-map weight matches the symplectic one."""

    entries: List[Tuple[str, bool, Tuple[int, ...], Tuple[int, ...]]] = field(
        default_factory=list
    )

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok, _, _ in self.entries)


def validate_dilation(
    q: QuiverSpec, weights: NakajimaWeights, torus: DilationTorus
) -> DilationReport:
    """For every arrow h the restricted weight of t1^m(h) t2^m(h*) must
    equal the restricted symplectic weight t1 t2."""
    report = DilationReport()
    omega = torus.restrict(1, 1)
    for a in q.arrows:
        got = torus.restrict(weights[a.aid], weights[star(a.aid)])
        report.entries.append((a.aid, got == omega, got, omega))
    return report


# -- dimension vectors and words -------------------------------------------

DimVector = Dict[str, int]


def dim_zero(q: QuiverSpec) -> DimVector:
    return {v: 0 for v in q.vertices}


def dim_add(a: DimVector, b: DimVector) -> DimVector:
    keys = set(a) | set(b)
    return {k: a.get(k, 0) + b.get(k, 0) for k in keys}


def dim_total(a: DimVector) -> int:
    return sum(a.values())


ColorWord = Tuple[str, ...]


def abelianization(q: QuiverSpec, word: ColorWord) -> DimVector:
    d = dim_zero(q)
    for letter in word:
        if letter not in d:
            raise QuiverFormatError(f"unknown vertex {letter!r} in word")
        d[letter] += 1
    return d


# -- incidence form -----------------------------------------------------------

def incidence_form(q: QuiverSpec) -> Dict[Tuple[str, str], int]:
    """Symmetric arrow-count form: off-diagonal entries count arrows in
    either direction, diagonal entries count loops."""
    form: Dict[Tuple[str, str], int] = {}
    for i in q.vertices:
        for j in q.vertices:
            if q.vpos[i] > q.vpos[j]:
                continue
            if i == j:
                count = len(q.arrows_between(i, i))
            else:
                count = len(q.arrows_between(i, j)) + len(q.arrows_between(j, i))
            form[(i, j)] = count
    return form


# -- JSON input ---------------------------------------------------------------

def json_int(x) -> int:
    """A JSON integer; floats, strings and booleans are malformed input."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def json_rational(x, where: str) -> Fraction:
    """An exact rational from a JSON number or a string such as "2/3",
    read from its decimal text; anything else, or a zero denominator, is
    malformed input at ``where``."""
    if type(x) in (int, float, str):
        try:
            return Fraction(str(x))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{where}: expected a rational number, got {x!r}")


def parse_quiver(data: Mapping) -> Tuple[QuiverSpec, NakajimaWeights, DilationTorus]:
    try:
        vertices = [str(v) for v in data["vertices"]]
        arrows = [
            Arrow(str(a["id"]), str(a["tail"]), str(a["head"]))
            for a in data.get("arrows", [])
        ]
    except (KeyError, TypeError) as exc:
        raise QuiverFormatError(f"bad quiver description: {exc}") from exc
    q = QuiverSpec(vertices, arrows)
    weights = default_nakajima(q)
    if "weights" in data:
        block = data["weights"]
        if not isinstance(block, dict):
            raise QuiverFormatError(f"bad weights block: expected an object, got {block!r}")
        for aid, w in block.items():
            if aid.rstrip("*") not in {a.aid for a in q.arrows}:
                raise QuiverFormatError(f"weight for unknown arrow {aid!r}")
            try:
                weights[str(aid)] = json_int(w)
            except ValueError as exc:
                raise QuiverFormatError(f"bad weights block: {exc}") from exc
        for a in q.double:
            if a.aid not in weights:
                raise QuiverFormatError(f"missing weight for arrow {a.aid!r}")
    if "dilation" in data:
        d = data["dilation"]
        try:
            rank, basis = json_int(d["rank"]), d["basis"]
            rows = (tuple(json_int(x) for x in basis[0]), tuple(json_int(x) for x in basis[1]))
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            raise QuiverFormatError(f"bad dilation block: {exc!r}") from exc
        torus = DilationTorus(rank, rows)
    else:
        torus = DilationTorus.diagonal()
    return q, weights, torus


def read_json(path: str):
    """The JSON value in the file at ``path``, read by every input file; a
    decode error (JSON or UTF-8) names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise QuiverFormatError(f"invalid JSON in {path}: {exc}") from exc


def load_quiver(path: str) -> Tuple[QuiverSpec, NakajimaWeights, DilationTorus]:
    return parse_quiver(read_json(path))


# -- stock quivers used across the verification suites ------------------------

def stock_quiver(name: str) -> QuiverSpec:
    if name == "a1":
        return QuiverSpec(["1"], [])
    if name == "a2":
        return QuiverSpec(["1", "2"], [Arrow("h1", "1", "2")])
    if name == "a3":
        return QuiverSpec(["1", "2", "3"], [Arrow("h1", "1", "2"), Arrow("h2", "2", "3")])
    if name == "kronecker2":
        return QuiverSpec(["1", "2"], [Arrow("h1", "1", "2"), Arrow("h2", "1", "2")])
    if name == "cyclic3":
        return QuiverSpec(
            ["1", "2", "3"],
            [Arrow("h1", "1", "2"), Arrow("h2", "2", "3"), Arrow("h3", "3", "1")],
        )
    if name == "jordan":
        return QuiverSpec(["1"], [Arrow("h1", "1", "1")])
    raise QuiverFormatError(f"unknown stock quiver {name!r}")
