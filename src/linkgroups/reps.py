"""Braid representations by automorphisms of free groups.

Four families: the Artin action of classical braids on F_n, the virtual
action on F_{n+1} = <x1..xn, y> that routes strand swaps through the
extra generator y, the welded/conjugating action on F_n, and the Wada
actions (types 1-4).  REPRESENTATIONS is the one table of their names,
theories and sigma rules.  Composition is left to right throughout: the
word l1 l2 acts by l1 first.

evaluate computes a word's action from the right, on letter tuples:
for each letter l from the last to the first it replaces the image of
each generator that l moves by the current images substituted into l's
image of it.  That is precomposition by l's action, so by associativity
the result is the endomorphism of the left-to-right fold.  A letter
moves at most two generators, and the images it fixes are shared, not
rebuilt.  Each letter's move is read once from its verified generator
action and cached, and the words of the endomorphism are built once, at
the end.

Under artin, virtual, welded and wada1 (the families whose sigma rule is
_conjugating) every letter sends each x_g it moves to v^k x_s v^-k, a
conjugate of a generator by a power of one letter (x_i^h, x_j^-h, y^+-1
or 1), and fixes y: these are basis-conjugating automorphisms.  So every
image is c x_t c^-1, and evaluate keeps it as the pair (c, t), with c
reduced and not ending in x_t^+-1; y is the pair ((), y).  The images
send v^k to c u^k c^-1 for some pair (c, u), and x_s to the pair
(c_s, t_s), so the new pair of x_g is t_s and the reduced c u^k c^-1 c_s
stripped of its trailing x_(t_s)^+-1 letters.  Its letters cancel only
from the one seam between c^-1 and c_s, so for sigma_i's image of x_i
there is one seam where the full word has two, and about half the
letters to copy.  Wada types 2-4 are not conjugating (wada2 sends x_i
to x_i x_j^-1 x_i), so for them evaluate substitutes whole image words
(freegroup._substitute).  Either way the LETTER_LIMIT check of
freegroup bounds each substitution of suffix images into a letter's
image, counted before cancellation; for pairs that is the sum of
2|c| + 1 over the letters of the letter's image.

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
from itertools import compress, count
from operator import ne
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
    _check_image,
    _check_size,
    _inverse,
    _join,
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
# A family conjugates, and evaluate folds its pairs, iff its sigma rule
# is _conjugating.
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


def _image_pair(pairs: dict, v: int, k: int, s: int) -> tuple:
    """The pair of the image of v^k x_s v^-k under the endomorphism E
    whose images pairs gives, each generator's as its pair (c, t).  The
    substitution of E's images into v^k x_s v^-k is checked against
    LETTER_LIMIT first, at its size before cancellation."""
    cs, t = pairs[s]
    if not k:
        _check_image(2 * len(cs) + 1)
        return pairs[s]
    c, u = pairs[abs(v)]
    _check_image(2 * len(cs) + 1 + 2 * k * (2 * len(c) + 1))
    # E(v^k) cs = c x_u^(+-k) c^-1 cs, and c^-1 cs cancels the common prefix
    # of c and cs; if that is all of c, x_u^(+-k) meets the rest of cs
    head = c + (u if v > 0 else -u,) * k
    p = next(compress(count(), map(ne, c, cs)), min(len(c), len(cs)))
    if p < len(c):
        conj = head + _inverse(c[p:]) + cs[p:]
    else:
        conj = _join((head, cs[p:]))
    n = len(conj)
    while n and abs(conj[n - 1]) == t:
        n -= 1
    return conj[:n], t


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
        self._conjugates = self._sigma_rule is _conjugating
        self._actions: dict[BraidLetter, Automorphism] = {}
        # letter -> _move(letter)
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

    def _move(self, letter: BraidLetter) -> tuple:
        """letter's move, cached: for each generator g it moves, (g, fwd)
        with fwd the letters of g's forward image, or, if the family
        conjugates, (g, v, k, s) with that image v^k x_s v^-k."""
        forward = self.generator_action(letter).forward.images
        moved = [(g, w.letters) for g, w in forward.items() if w.letters != (g,)]
        if self._conjugates:
            # fwd is v^k x_s v^-k; v is fwd[0], ignored when k = 0
            moved = [(g, fwd[0], len(fwd) // 2, fwd[len(fwd) // 2]) for g, fwd in moved]
        move = self._moves[letter] = tuple(moved)
        return move

    def evaluate(self, b: BraidWord) -> Endomorphism:
        """The image of a whole braid word; its first letter acts first."""
        if b.theory != self.theory:
            raise ValueError(f"{self.name} acts on {self.theory} braids, got {b.theory}")
        if b.strands != self.strands:
            raise ValueError(f"strand mismatch: {b.strands} vs {self.strands}")
        moves = self._moves
        # each list is built in full, from the old images, before the update
        if self._conjugates:
            pairs = {g: ((), g) for g in self.ambient.gens()}
            for letter in reversed(b.letters):
                moved = moves.get(letter) or self._move(letter)
                pairs.update([(g, _image_pair(pairs, v, k, s)) for g, v, k, s in moved])
            images = {g: c + (t,) + _inverse(c) for g, (c, t) in pairs.items()}
        else:
            images = {g: (g,) for g in self.ambient.gens()}
            for letter in reversed(b.letters):
                moved = moves.get(letter) or self._move(letter)
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
    if type(h) is not int:
        raise ValueError(f"conjugation power h must be an int, got {h!r}")
    if h < 1:
        raise ValueError(f"conjugation power h must be at least 1, got {h}")
    if h != 1 and name != "wada1":
        raise ValueError(f"conjugation power h={h} applies only to wada1, not {name}")


def representation(name: str, strands: int, h: int = 1) -> Representation:
    """The representation named by a key of REPRESENTATIONS; h is the
    conjugation power of wada1.

    Cached per (name, strands, h), however h is passed, so each generator
    action is built and its inverse verified once per process; callers
    must not mutate the result.  The key holds the arguments' types too,
    so True or 2.0 misses the entry of 1 or 2 and reaches the
    constructor's checks.
    """
    return _representation(name, strands, h)


_representation = lru_cache(maxsize=None, typed=True)(Representation)


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
