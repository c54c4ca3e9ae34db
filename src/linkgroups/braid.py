"""Braid words over the classical, virtual, and welded alphabets.

Words are kept syntactic: normalization cancels only inverse pairs and
involution squares, never braid relations.  Semantic equality lives in
the representations.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

THEORIES = ("classical", "virtual", "welded")

# family codes: 's' = crossing sigma_i (signed), 'r' = virtual rho_i,
# 'a' = welded alpha_i; rho and alpha are involutions and carry no sign.
_FAMILIES = {"classical": "s", "virtual": "sr", "welded": "sa"}

# the most strands of a braid word or representation; checking the O(n^2)
# defining relations on n + 1 generators takes seconds at this ceiling
MAX_STRANDS = 64


def check_strands(strands: int) -> None:
    if strands < 1:
        raise ValueError("strand count must be at least 1")
    if strands > MAX_STRANDS:
        raise ValueError(f"strand count {strands} exceeds the ceiling {MAX_STRANDS}")


class BraidLetter(NamedTuple):
    family: str
    pos: int
    sign: int = 1


def sigma(i: int, sign: int = 1) -> BraidLetter:
    return BraidLetter("s", i, sign)


def rho(i: int) -> BraidLetter:
    return BraidLetter("r", i, 1)


def alpha(i: int) -> BraidLetter:
    return BraidLetter("a", i, 1)


def letter_inverse(l: BraidLetter) -> BraidLetter:
    return BraidLetter("s", l.pos, -l.sign) if l.family == "s" else l


class BraidWord:
    """A sequence of letters on a fixed strand count and theory."""

    __slots__ = ("strands", "theory", "letters")

    def __init__(self, strands: int, theory: str, letters=()):
        if theory not in THEORIES:
            raise ValueError(f"unknown theory {theory!r}")
        check_strands(strands)
        letters = tuple(letters)
        for l in letters:
            if l.family not in _FAMILIES[theory]:
                raise ValueError(f"letter family {l.family!r} illegal for {theory} braids")
            if not 1 <= l.pos <= strands - 1:
                raise ValueError(f"position {l.pos} out of range for {strands} strands")
            if l.sign not in (1, -1) or (l.family != "s" and l.sign != 1):
                raise ValueError(f"bad sign on letter {l}")
        self.strands = strands
        self.theory = theory
        self.letters = letters

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if (self.strands, self.theory) != (other.strands, other.theory):
            raise ValueError("cannot concatenate braids of different strands or theory")
        return BraidWord(self.strands, self.theory, self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, BraidWord)
            and (self.strands, self.theory, self.letters)
            == (other.strands, other.theory, other.letters)
        )

    def __hash__(self):
        return hash((self.strands, self.theory, self.letters))

    def __repr__(self):
        return f"BraidWord({self.strands}, {self.theory!r}, {serialize(self)!r})"


def normalize(b: BraidWord) -> BraidWord:
    """Cancel adjacent sigma/sigma^-1 pairs and involution squares."""
    out = []
    for l in b.letters:
        if out and out[-1] == letter_inverse(l):
            out.pop()
        else:
            out.append(l)
    return BraidWord(b.strands, b.theory, out)


_BRAID_TOKEN = re.compile(r"^([sra])([1-9][0-9]*)(\^-1)?$")


def parse(text: str, strands: int, theory: str) -> BraidWord:
    """Parse the ASCII grammar: token := ('s'|'r'|'a') digits ['^-1'];
    word := '1' | token (' ' token)*.  Signed r/a tokens normalize to
    their unsigned form."""
    text = text.strip()
    if text == "1":
        return BraidWord(strands, theory, ())
    letters = []
    for tok in text.split():
        m = _BRAID_TOKEN.match(tok)
        if m is None:
            raise ValueError(f"bad braid token {tok!r}")
        fam, pos, inv = m.group(1), int(m.group(2)), bool(m.group(3))
        sign = -1 if (inv and fam == "s") else 1
        letters.append(BraidLetter(fam, pos, sign))
    return BraidWord(strands, theory, letters)


def serialize(b: BraidWord) -> str:
    if not b.letters:
        return "1"
    return " ".join(
        f"{l.family}{l.pos}" + ("^-1" if l.sign < 0 else "") for l in b.letters
    )


def underlying_permutation(b: BraidWord) -> tuple[int, ...]:
    """Image tuple (pi(1), ..., pi(n)); every letter at position i
    contributes the transposition (i, i+1), applied left to right."""
    p = list(range(1, b.strands + 1))
    for l in b.letters:
        i, j = l.pos, l.pos + 1
        for k in range(len(p)):
            if p[k] == i:
                p[k] = j
            elif p[k] == j:
                p[k] = i
    return tuple(p)


def permutation_cycles(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    seen = set()
    cycles = []
    for start in range(1, len(perm) + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        k = perm[start - 1]
        while k != start:
            cyc.append(k)
            seen.add(k)
            k = perm[k - 1]
        cycles.append(tuple(cyc))
    return cycles


def is_knot_closure(b: BraidWord) -> bool:
    """The closure of b is a knot iff the permutation is a single n-cycle."""
    return len(permutation_cycles(underlying_permutation(b))) == 1


def braid_inverse(b: BraidWord) -> BraidWord:
    return BraidWord(
        b.strands, b.theory, tuple(letter_inverse(l) for l in reversed(b.letters))
    )


def conjugate(b: BraidWord, g: BraidLetter) -> BraidWord:
    """g * b * g^-1, normalized."""
    probe = BraidWord(b.strands, b.theory, (g,))  # validates g for this word
    return normalize(
        BraidWord(b.strands, b.theory, probe.letters + b.letters + (letter_inverse(g),))
    )


def stabilize(b: BraidWord, kind: str) -> BraidWord:
    """Append the stabilizing letter on a new strand: b sigma_n,
    b sigma_n^-1, or b rho_n / b alpha_n depending on theory."""
    n = b.strands
    if kind == "positive":
        extra = sigma(n)
    elif kind == "negative":
        extra = sigma(n, -1)
    elif kind == "virtual":
        if b.theory == "classical":
            raise ValueError("virtual stabilization needs a virtual or welded braid")
        extra = rho(n) if b.theory == "virtual" else alpha(n)
    else:
        raise ValueError(f"unknown stabilization kind {kind!r}")
    return BraidWord(n + 1, b.theory, b.letters + (extra,))


def shift(b: BraidWord) -> BraidWord:
    """Move every position up by one on an extra strand."""
    return BraidWord(
        b.strands + 1,
        b.theory,
        tuple(BraidLetter(l.family, l.pos + 1, l.sign) for l in b.letters),
    )


def exchange_pair(b1: BraidWord, b2: BraidWord, side: str) -> tuple[BraidWord, BraidWord]:
    """Both sides of the exchange move on n+1 strands.

    right: (b1 sigma_n^-1 b2 sigma_n, b1 rho_n b2 rho_n)
    left:  the shifted words joined through position 1 instead.
    """
    if b1.theory != "virtual" or b2.theory != "virtual":
        raise ValueError("exchange moves are defined for virtual braids")
    if b1.strands != b2.strands:
        raise ValueError("exchange pieces must have equal strand counts")
    n = b1.strands
    if side == "right":
        l1, l2 = b1.letters, b2.letters
        pos = n
    elif side == "left":
        l1, l2 = shift(b1).letters, shift(b2).letters
        pos = 1
    else:
        raise ValueError(f"unknown exchange side {side!r}")
    classical_form = BraidWord(n + 1, "virtual", l1 + (sigma(pos, -1),) + l2 + (sigma(pos),))
    virtual_form = BraidWord(n + 1, "virtual", l1 + (rho(pos),) + l2 + (rho(pos),))
    return normalize(classical_form), normalize(virtual_form)


def to_virtual(b: BraidWord) -> BraidWord:
    """Regard a classical braid word as a virtual one."""
    if b.theory == "virtual":
        return b
    if b.theory != "classical":
        raise ValueError("only classical words embed into the virtual theory")
    return BraidWord(b.strands, "virtual", b.letters)


def to_welded(b: BraidWord) -> BraidWord:
    """The quotient map to the welded theory: sigma stays, rho becomes alpha."""
    if b.theory == "welded":
        return b
    letters = tuple(
        BraidLetter("a", l.pos, 1) if l.family == "r" else l for l in b.letters
    )
    return BraidWord(b.strands, "welded", letters)


@dataclass(frozen=True)
class DefiningRelation:
    theory: str
    name: str
    params: tuple
    left: BraidWord
    right: BraidWord

    def label(self) -> str:
        return f"{self.name}({', '.join(str(p) for p in self.params)})"


@lru_cache(maxsize=None)
def defining_relations(theory: str, n: int) -> tuple[DefiningRelation, ...]:
    """The defining relation catalogue of the braid/virtual/welded group
    on n strands."""
    if theory not in THEORIES:
        raise ValueError(f"unknown theory {theory!r}")

    def W(*letters):
        return BraidWord(n, theory, letters)

    rels = []
    for i in range(1, n - 1):
        rels.append(
            DefiningRelation(
                theory, "braid", (i,),
                W(sigma(i), sigma(i + 1), sigma(i)),
                W(sigma(i + 1), sigma(i), sigma(i + 1)),
            )
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append(
                DefiningRelation(
                    theory, "sigma-commute", (i, j),
                    W(sigma(i), sigma(j)), W(sigma(j), sigma(i)),
                )
            )
    if theory == "classical":
        return tuple(rels)

    mk = rho if theory == "virtual" else alpha
    tag = "rho" if theory == "virtual" else "alpha"
    for i in range(1, n - 1):
        rels.append(
            DefiningRelation(
                theory, f"{tag}-braid", (i,),
                W(mk(i), mk(i + 1), mk(i)), W(mk(i + 1), mk(i), mk(i + 1)),
            )
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append(
                DefiningRelation(
                    theory, f"{tag}-commute", (i, j),
                    W(mk(i), mk(j)), W(mk(j), mk(i)),
                )
            )
    for i in range(1, n):
        rels.append(
            DefiningRelation(theory, f"{tag}-involution", (i,), W(mk(i), mk(i)), W())
        )
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) >= 2:
                rels.append(
                    DefiningRelation(
                        theory, f"sigma-{tag}-commute", (i, j),
                        W(sigma(i), mk(j)), W(mk(j), sigma(i)),
                    )
                )
    if theory == "virtual":
        for i in range(1, n - 1):
            rels.append(
                DefiningRelation(
                    theory, "mixed", (i,),
                    W(rho(i), rho(i + 1), sigma(i)),
                    W(sigma(i + 1), rho(i), rho(i + 1)),
                )
            )
    else:
        for i in range(1, n - 1):
            rels.append(
                DefiningRelation(
                    theory, "swap-mixed", (i,),
                    W(alpha(i), alpha(i + 1), sigma(i)),
                    W(sigma(i + 1), alpha(i), alpha(i + 1)),
                )
            )
        # the extra relation that distinguishes welded from virtual braids
        for i in range(1, n - 1):
            rels.append(
                DefiningRelation(
                    theory, "mixed", (i,),
                    W(alpha(i), sigma(i + 1), sigma(i)),
                    W(sigma(i + 1), sigma(i), alpha(i + 1)),
                )
            )
    return tuple(rels)


@lru_cache(maxsize=None)
def forbidden_relations(n: int) -> tuple[DefiningRelation, ...]:
    """The F1/F2 relations over the virtual alphabet.  They do not hold
    in the virtual braid group; they are supplied to the relation checker
    as extras."""

    def W(*letters):
        return BraidWord(n, "virtual", letters)

    rels = []
    for i in range(1, n - 1):
        rels.append(
            DefiningRelation(
                "virtual", "F1", (i,),
                W(rho(i), sigma(i + 1), sigma(i)),
                W(sigma(i + 1), sigma(i), rho(i + 1)),
            )
        )
        rels.append(
            DefiningRelation(
                "virtual", "F2", (i,),
                W(rho(i + 1), sigma(i), sigma(i + 1)),
                W(sigma(i), sigma(i + 1), rho(i)),
            )
        )
    return tuple(rels)


def rewrite_with_relation(b: BraidWord, rel: DefiningRelation, at: int) -> BraidWord:
    """Replace an occurrence of one side of rel at index `at` by the other
    side; raises if neither side matches there."""
    for pattern, repl in ((rel.left, rel.right), (rel.right, rel.left)):
        k = len(pattern.letters)
        if k and b.letters[at : at + k] == pattern.letters:
            return normalize(
                BraidWord(
                    b.strands, b.theory,
                    b.letters[:at] + repl.letters + b.letters[at + k :],
                )
            )
    raise ValueError(f"relation {rel.label()} does not match at index {at}")


def random_braid(strands: int, length: int, theory: str, seed) -> BraidWord:
    """A deterministic pseudo-random word, letters uniform over the theory
    alphabet."""
    return random_braid_from(random.Random(seed), strands, length, theory)


@lru_cache(maxsize=None)
def alphabet(strands: int, theory: str) -> tuple[BraidLetter, ...]:
    """Every letter of the theory on this many strands, position by
    position: sigma_i, sigma_i^-1, then rho_i or alpha_i.  The random
    draws index into this order, so it fixes which word a seed gives."""
    letters = []
    for i in range(1, strands):
        for fam in _FAMILIES[theory]:
            if fam == "s":
                letters.append(sigma(i))
                letters.append(sigma(i, -1))
            else:
                letters.append(BraidLetter(fam, i, 1))
    return tuple(letters)


def random_braid_from(rng: random.Random, strands: int, length: int, theory: str) -> BraidWord:
    if strands < 2:
        raise ValueError("need at least 2 strands to draw letters")
    letters = alphabet(strands, theory)
    return BraidWord(strands, theory, tuple(rng.choice(letters) for _ in range(length)))
