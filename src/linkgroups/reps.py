"""Braid representations by automorphisms of free groups.

Four families: the Artin action of classical braids on F_n, the virtual
action on F_{n+1} = <x1..xn, y> that routes strand swaps through the
extra generator y, the welded/conjugating action on F_n, and the Wada
actions (types 1-4).  REPRESENTATIONS is the one table of their names,
theories and sigma rules.  Composition is left to right throughout: the
word l1 l2 acts by l1 first.

evaluate computes a word's action from the right, on letter tuples.
It keeps one dict of image letter tuples, starting from the identity,
and for each letter l from the last to the first replaces the image of
each generator that l moves by the current images substituted into l's
image of it (freegroup._substitute).  That is precomposition by l's
action, so by associativity the result is the endomorphism of the
left-to-right fold.  Each letter's moved generators and their images
are read once from its verified generator action and cached.  A letter
moves at most two generators, each to a word of at most 2h + 1 letters,
and the images it fixes are shared, not rebuilt.  The LETTER_LIMIT
check of freegroup bounds each substitution of suffix images into a
letter's images; the words of the endomorphism are built once, at the
end.

Reading convention: the closure group of b is the Wirtinger group of
b's diagram drawn with its first letter at the bottom, read from the
bottom.  Label the top arcs x1..xn of the diagram whose crossings are
b's letters from the last (top) to the first (bottom) and carry the
labels down: in a positive sigma_i the strand entering at position i
passes over to i + 1 keeping its label, and the under-strand's label is
conjugated by it; in sigma_i^-1 the strand entering at i + 1 is over.
rho_i swaps the two labels through y and alpha_i swaps them.
tests/oracles.label_closure does exactly this, and the tests check that
it gives the group of the reversed word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .braid import (
    BraidLetter,
    BraidWord,
    DefiningRelation,
    alphabet,
    check_strands,
    defining_relations,
)
from .freegroup import (
    Ambient,
    Automorphism,
    Endomorphism,
    Word,
    YID,
    _check_size,
    _substitute,
)


def _conjugating(i: int, j: int, h: int) -> tuple[dict, dict]:
    # x_i -> x_i^h x_j x_i^-h, x_j -> x_i: Wada type 1, and Artin's action at h = 1;
    # an image too long for a word is refused before its letters are built
    _check_size(2 * h + 1)
    return ({i: (i,) * h + (j,) + (-i,) * h, j: (i,)},
            {i: (j,), j: (-j,) * h + (i,) + (j,) * h})


# name -> (theory of the braids it acts on, sigma rule).  The sigma rule
# sigma_rule(i, j, h) gives the hand-derived (forward, inverse) moves of
# x_i and x_j = x_(i+1) under sigma_i; every other generator is fixed.
REPRESENTATIONS = {
    "artin": ("classical", _conjugating),
    "virtual": ("virtual", _conjugating),
    "welded": ("welded", _conjugating),
    "wada1": ("welded", _conjugating),
    "wada2": ("welded", lambda i, j, h: ({i: (i, -j, i), j: (i,)}, {i: (j,), j: (j, -i, j)})),
    "wada3": ("welded", lambda i, j, h: ({i: (i, j, i), j: (-i,)}, {i: (-j,), j: (j, i, j)})),
    "wada4": ("welded", lambda i, j, h: ({i: (i, i, j), j: (-j, -i, j)},
                                         {i: (i, -j, -i), j: (i, j, j)})),
}


class Representation:
    """A generator-to-automorphism assignment for one strand count.

    name is a key of REPRESENTATIONS and h the conjugation power of wada1.
    Every generator action carries a hand-derived inverse which the
    Automorphism constructor verifies by composition.
    """

    def __init__(self, name: str, strands: int, h: int = 1):
        if name not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {name!r}")
        check_conj_power(name, h)
        check_strands(strands)
        self.name = name
        self.strands = strands
        self.h = h
        self.theory, self._sigma_rule = REPRESENTATIONS[name]
        self.ambient = Ambient(strands, self.theory == "virtual")
        self._actions: dict[BraidLetter, Automorphism] = {}
        # letter -> ((generator, letters of its forward image), ...) for
        # the generators the letter moves
        self._moves: dict[BraidLetter, tuple] = {}

    def _endo(self, moved: dict[int, tuple]) -> Endomorphism:
        images = {g: Word(self.ambient, (g,)) for g in self.ambient.gens()}
        for gid, letters in moved.items():
            images[gid] = Word(self.ambient, letters)
        return Endomorphism(self.ambient, self.ambient, images)

    def generator_action(self, letter: BraidLetter) -> Automorphism:
        cached = self._actions.get(letter)
        if cached is not None:
            return cached
        if letter not in alphabet(self.strands, self.theory):
            raise ValueError(f"{letter} is not a {self.theory} letter on {self.strands} strands")
        i, j = letter.pos, letter.pos + 1
        if letter.family == "s":
            fwd, inv = self._sigma_rule(i, j, self.h)
            if letter.sign < 0:
                fwd, inv = inv, fwd
            act = Automorphism(self._endo(fwd), self._endo(inv))
        elif letter.family == "r":  # rho_i swaps x_i and x_j through y
            swap = self._endo({i: (YID, j, -YID), j: (-YID, i, YID)})
            act = Automorphism(swap, swap)
        else:  # alpha_i swaps x_i and x_j
            swap = self._endo({i: (j,), j: (i,)})
            act = Automorphism(swap, swap)
        self._actions[letter] = act
        return act

    def evaluate(self, b: BraidWord) -> Endomorphism:
        """The image of a whole braid word; its first letter acts first."""
        if b.theory != self.theory:
            raise ValueError(f"{self.name} acts on {self.theory} braids, got {b.theory}")
        if b.strands != self.strands:
            raise ValueError(f"strand mismatch: {b.strands} vs {self.strands}")
        images = {g: (g,) for g in self.ambient.gens()}
        moves = self._moves
        for letter in reversed(b.letters):
            moved = moves.get(letter)
            if moved is None:
                forward = self.generator_action(letter).forward.images
                moved = moves[letter] = tuple(
                    (g, w.letters) for g, w in forward.items() if w.letters != (g,))
            # the list is built in full, from the old images, before the update
            images.update([(g, _substitute(images, fwd)) for g, fwd in moved])
        amb = self.ambient
        return Endomorphism._trusted(amb, amb, {g: Word._reduced(amb, ls) for g, ls in images.items()})

    def __repr__(self):
        extra = f", h={self.h}" if self.name == "wada1" else ""
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
    other representation."""
    if h < 1:
        raise ValueError(f"conjugation power h must be at least 1, got {h}")
    if h != 1 and name != "wada1":
        raise ValueError(f"conjugation power h={h} applies only to wada1, not {name}")


def representation(name: str, strands: int, h: int = 1) -> Representation:
    """The representation named by a key of REPRESENTATIONS; h is the
    conjugation power of wada1.

    Cached per (name, strands, h), however h is passed, so each generator
    action is built and its inverse verified once per process; callers
    must not mutate the result.
    """
    return _representation(name, strands, h)


_representation = lru_cache(maxsize=None)(Representation)


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
