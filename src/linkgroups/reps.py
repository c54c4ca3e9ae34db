"""Braid representations by automorphisms of free groups.

Four families: the Artin action of classical braids on F_n, the virtual
action on F_{n+1} = <x1..xn, y> that routes strand swaps through the
extra generator y, the welded/conjugating action on F_n, and the Wada
actions (types 1-4).  Composition is left to right throughout: the word
l1 l2 acts by l1 first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .braid import (
    BraidLetter,
    BraidWord,
    DefiningRelation,
    check_strands,
    defining_relations,
)
from .freegroup import (
    Ambient,
    Automorphism,
    Endomorphism,
    Word,
    YID,
    compose,
    identity_endomorphism,
    is_identity,
)

_REP_THEORY = {"artin": "classical", "virtual": "virtual", "welded": "welded"}


class Representation:
    """A generator-to-automorphism assignment for one strand count.

    Every generator action carries a hand-derived inverse which the
    Automorphism constructor verifies by composition.
    """

    def __init__(self, name: str, strands: int, wada_type: int = 0, conj_power: int = 1):
        check_strands(strands)
        self.name = name
        self.strands = strands
        self.wada_type = wada_type
        self.conj_power = conj_power
        self.ambient = Ambient(strands, name == "virtual")
        self._actions: dict[BraidLetter, Automorphism] = {}

    @property
    def theory(self) -> str:
        return _REP_THEORY.get(self.name, "welded")

    def _endo(self, moved: dict[int, tuple]) -> Endomorphism:
        images = {g: Word(self.ambient, (g,)) for g in self.ambient.gens()}
        for gid, letters in moved.items():
            images[gid] = Word(self.ambient, letters)
        return Endomorphism(self.ambient, self.ambient, images)

    def _sigma_pair(self, i: int) -> tuple[dict, dict]:
        """(forward, inverse) generator moves for sigma_i in this family."""
        j = i + 1
        if self.name in ("artin", "virtual", "welded"):
            fwd = {i: (i, j, -i), j: (i,)}
            inv = {i: (j,), j: (-j, i, j)}
        elif self.wada_type == 1:
            h = self.conj_power
            fwd = {i: (i,) * h + (j,) + (-i,) * h, j: (i,)}
            inv = {i: (j,), j: (-j,) * h + (i,) + (j,) * h}
        elif self.wada_type == 2:
            fwd = {i: (i, -j, i), j: (i,)}
            inv = {i: (j,), j: (j, -i, j)}
        elif self.wada_type == 3:
            fwd = {i: (i, j, i), j: (-i,)}
            inv = {i: (-j,), j: (j, i, j)}
        elif self.wada_type == 4:
            fwd = {i: (i, i, j), j: (-j, -i, j)}
            inv = {i: (i, -j, -i), j: (i, j, j)}
        else:
            raise ValueError(f"unknown Wada type {self.wada_type}")
        return fwd, inv

    def generator_action(self, letter: BraidLetter) -> Automorphism:
        cached = self._actions.get(letter)
        if cached is not None:
            return cached
        fam, i = letter.family, letter.pos
        if not 1 <= i <= self.strands - 1:
            raise ValueError(f"position {i} out of range for {self.strands} strands")
        j = i + 1
        if fam == "s":
            fwd, inv = self._sigma_pair(i)
            if letter.sign < 0:
                fwd, inv = inv, fwd
            act = Automorphism(self._endo(fwd), self._endo(inv))
        elif fam == "r":
            if self.name != "virtual":
                raise ValueError("rho letters are only acted on by the virtual family")
            swap = self._endo({i: (YID, j, -YID), j: (-YID, i, YID)})
            act = Automorphism(swap, swap)
        elif fam == "a":
            if self.theory != "welded":
                raise ValueError("alpha letters are only acted on by welded families")
            swap = self._endo({i: (j,), j: (i,)})
            act = Automorphism(swap, swap)
        else:
            raise ValueError(f"unknown letter family {fam!r}")
        self._actions[letter] = act
        return act

    def evaluate(self, b: BraidWord) -> Endomorphism:
        """The image of a whole braid word, letters composed left to right."""
        if b.theory != self.theory:
            raise ValueError(f"{self.name} acts on {self.theory} braids, got {b.theory}")
        if b.strands != self.strands:
            raise ValueError(f"strand mismatch: {b.strands} vs {self.strands}")
        e = identity_endomorphism(self.ambient)
        for letter in b.letters:
            e = compose(e, self.generator_action(letter).forward)
        return e

    def __repr__(self):
        extra = f", h={self.conj_power}" if self.wada_type == 1 else ""
        return f"Representation({self.name!r}, strands={self.strands}{extra})"


def artin(n: int) -> Representation:
    return representation("artin", n)


def virtual(n: int) -> Representation:
    return representation("virtual", n)


def welded(n: int) -> Representation:
    return representation("welded", n)


def wada(n: int, k: int, h: int = 1) -> Representation:
    return representation(f"wada{k}", n, h)


def check_conj_power(name: str, h: int) -> None:
    """h is the conjugation power of wada1: at least 1, and 1 for every
    other representation or theory name."""
    if h < 1:
        raise ValueError(f"conjugation power h must be at least 1, got {h}")
    if h != 1 and name != "wada1":
        raise ValueError(f"conjugation power h={h} applies only to wada1, not {name}")


def representation(name: str, strands: int, h: int = 1) -> Representation:
    """The representation with this CLI name (artin, virtual, welded,
    wada1..wada4); h is the conjugation power of wada1.

    Cached per (name, strands, h), however h is passed, so each generator
    action is built and its inverse verified once per process; callers
    must not mutate the result.
    """
    check_conj_power(name, h)
    return _representation(name, strands, h)


@lru_cache(maxsize=None)
def _representation(name: str, strands: int, h: int) -> Representation:
    if name in ("artin", "virtual", "welded"):
        return Representation(name, strands)
    if name.startswith("wada") and name[4:] in "1234" and len(name) == 5:
        return Representation(name, strands, wada_type=int(name[4:]), conj_power=h)
    raise ValueError(f"unknown representation {name!r}")


@dataclass(frozen=True)
class RelationReport:
    relation: DefiningRelation
    holds: bool
    witness: Optional[tuple[int, Word, Word]] = None  # generator, left image, right image

    def label(self) -> str:
        return self.relation.label()


def check_relations(rep: Representation, extra=()) -> list[RelationReport]:
    """Evaluate both sides of every defining relation of the theory (plus
    any extra relations) and compare the endomorphisms generator by
    generator.  All relations are reported, not only the first failure."""
    reports = []
    for rel in tuple(defining_relations(rep.theory, rep.strands)) + tuple(extra):
        left = rep.evaluate(rel.left)
        right = rep.evaluate(rel.right)
        witness = None
        for g in rep.ambient.gens():
            if left.images[g] != right.images[g]:
                witness = (g, left.images[g], right.images[g])
                break
        reports.append(RelationReport(rel, witness is None, witness))
    return reports


def project_y(e: Endomorphism) -> Endomorphism:
    """Erase every y letter from every image, mapping an endomorphism of
    <x1..xn, y> to one of <x1..xn>."""
    if not e.domain.has_y:
        raise ValueError("domain has no y generator to erase")
    dom = e.domain.without_y()
    images = {g: e.images[g].without_y() for g in dom.gens()}
    return Endomorphism(dom, e.codomain.without_y(), images)
