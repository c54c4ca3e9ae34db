"""Exact arithmetic on reduced words of finitely generated free groups.

Generators are x1, x2, ... plus an optional distinguished generator y.
y is its own kind of generator rather than an extra index, so the same
word type serves both the rank-n and rank-(n+1) groups and killing y is
a structural erasure instead of a re-indexing.

Reduction happens at the seams.  A reduced word has no cancelling pair
inside it, so when a word is built from reduced pieces (a product, an
inverse, a slice, the images substituted into a word) letters can cancel
only where two pieces meet.  _join is the one reduction routine: it
cancels each piece against the reduced stack of the pieces before it and
copies the rest of the piece whole.  Words built from other words are not
reduced or letter-checked again, because their letters come from words
over the same ambient.  A slice of a reduced word is reduced, so slices
(a cyclic core, a conjugator, a Tietze solution) are wrapped with
Word._reduced and not re-joined, and a substitution into a one-letter
word returns its one image as it is.  The public constructor
Word(ambient, letters) still checks every letter and reduces its input,
as one-letter pieces.
LETTER_LIMIT bounds every word built, counted before cancellation.
_substitute is the one substitution routine, on letter tuples: applying
an Endomorphism to a word and reps' braid evaluation of the Wada types
2-4 both use it.  reps' pair fold of the conjugating actions builds no
whole words to substitute, and bounds each substitution it stands for
by the same check, _check_image.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import neg

# x_k is the integer id k (k >= 1); y gets a reserved id that can never
# collide with an x index.  A letter is a signed id: +g is the generator,
# -g its inverse.
YID = 2 ** 30

# Substitution can blow words up; operations that would exceed this many
# letters abort loudly instead of grinding.
LETTER_LIMIT = 10 ** 6


class WordLengthError(ValueError):
    """An operation would produce a word longer than LETTER_LIMIT."""


@dataclass(frozen=True)
class Ambient:
    """Generator set x1..x{nx}, optionally extended by y."""

    nx: int
    has_y: bool = False

    def gens(self) -> tuple[int, ...]:
        base = tuple(range(1, self.nx + 1))
        return base + (YID,) if self.has_y else base

    @cached_property
    def letter_set(self) -> frozenset[int]:
        """Every letter of a word over this ambient: each generator id and its negation."""
        return frozenset(g for gid in self.gens() for g in (gid, -gid))

    def without_y(self) -> "Ambient":
        return Ambient(self.nx, False)


def gen_name(gid: int) -> str:
    return "y" if gid == YID else f"x{gid}"


def _join(pieces) -> tuple[int, ...]:
    """The reduced product of reduced letter sequences.

    Cancellation happens only where a piece meets the stack of those
    before it; the rest of the piece is copied whole."""
    out = []
    for p in pieces:
        k, n = 0, len(p)
        while k < n and out and out[-1] == -p[k]:
            out.pop()
            k += 1
        out.extend(p[k:] if k else p)
    return tuple(out)


def _inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(neg, reversed(letters)))


def _check_size(n: int) -> None:
    if n > LETTER_LIMIT:
        raise WordLengthError(f"{n} letters exceeds limit {LETTER_LIMIT}")


def _check_image(n: int) -> None:
    """Refuse a substitution of n letters, counted before cancellation."""
    if n > LETTER_LIMIT:
        raise WordLengthError(f"image would exceed {LETTER_LIMIT} letters")


def _substitute(images: dict, letters: tuple[int, ...]) -> tuple[int, ...]:
    """The reduced word got from letters by replacing each generator g by
    images[g] and each g^-1 by its inverse; images maps generator ids to
    reduced letter tuples.  The substitution, counted before cancellation,
    may have at most LETTER_LIMIT letters."""
    _check_image(sum(map(len, map(images.__getitem__, map(abs, letters)))))
    pieces = [images[v] if v > 0 else _inverse(images[-v]) for v in letters]
    # a single piece is already reduced: it is returned, not copied
    return pieces[0] if len(pieces) == 1 else _join(pieces)


def _cyclic_core(letters: tuple[int, ...]) -> tuple[int, ...]:
    """The cyclically reduced core of a reduced letter tuple."""
    k = 0
    while len(letters) - 2 * k >= 2 and letters[k] == -letters[-1 - k]:
        k += 1
    return letters[k : len(letters) - k]


class Word:
    """A freely reduced word over an ambient generator set.

    Immutable; every constructor reduces eagerly, so reduction is
    idempotent by construction and all operations see reduced input.
    """

    __slots__ = ("ambient", "letters")

    def __init__(self, ambient: Ambient, letters=()):
        letters = tuple(letters)
        _check_size(len(letters))
        if not ambient.letter_set.issuperset(letters):
            bad = next(v for v in letters if v not in ambient.letter_set)
            raise ValueError(f"letter {bad!r} outside ambient {ambient}")
        self.ambient = ambient
        self.letters = _join(zip(letters))

    @classmethod
    def _joined(cls, ambient: Ambient, pieces, size: int) -> "Word":
        """The reduced product of pieces: reduced letter sequences over
        ambient, size letters in all.  Only size is checked; the caller
        vouches for the pieces, as when they are slices of words."""
        _check_size(size)
        return cls._reduced(ambient, _join(pieces))

    @classmethod
    def _reduced(cls, ambient: Ambient, letters: tuple[int, ...]) -> "Word":
        """The word of letters, a reduced letter tuple over ambient that
        the caller vouches for and has checked against LETTER_LIMIT."""
        w = object.__new__(cls)
        w.ambient = ambient
        w.letters = letters
        return w

    def __mul__(self, other: "Word") -> "Word":
        if self.ambient != other.ambient:
            raise ValueError(f"ambient mismatch: {self.ambient} vs {other.ambient}")
        return Word._joined(self.ambient, (self.letters, other.letters), len(self) + len(other))

    def __invert__(self) -> "Word":
        return Word._joined(self.ambient, (_inverse(self.letters),), len(self))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        if not self.letters:  # passes any size check, but would be joined n times
            return self
        # repeat is lazy: the size is checked before any letter is joined
        return Word._joined(self.ambient, repeat(self.letters, n), n * len(self))

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Word)
            and self.ambient == other.ambient
            and self.letters == other.letters
        )

    def __hash__(self):
        return hash((self.ambient, self.letters))

    def __repr__(self):
        return f"Word({format_word(self)!r})"

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Split self = conjugator^-1 * core * conjugator with core
        cyclically reduced.  The core is empty iff the word is trivial."""
        core = _cyclic_core(self.letters)
        conjugator = self.letters[(len(self) + len(core)) // 2 :]
        return Word._reduced(self.ambient, core), Word._reduced(self.ambient, conjugator)

    def without_y(self) -> "Word":
        """Erase every y letter, giving a word over the ambient without y.
        The runs between y letters are the pieces joined."""
        ls = self.letters
        cuts = [k for k, v in enumerate(ls) if abs(v) == YID]
        runs = [ls[a + 1 : b] for a, b in zip([-1] + cuts, cuts + [len(ls)])]
        return Word._joined(self.ambient.without_y(), runs, len(ls) - len(cuts))


def exponent_sums(w: Word, gens) -> list[int]:
    """The exponent sum in w of each generator in gens, in that order."""
    counts = Counter(w.letters)
    return [counts[g] - counts[-g] for g in gens]


_GEN = re.compile(r"x([1-9][0-9]{0,9})|y")  # YID = 2^30 has 10 digits


def parse_gen(name: str) -> int:
    """The id of a generator name: y, or x<k> (1 <= k < YID, ASCII digits, no leading 0)."""
    m = _GEN.fullmatch(name)
    if m is None or m.group(1) and int(m.group(1)) >= YID:
        raise ValueError(f"bad generator name {name!r}")
    return int(m.group(1)) if m.group(1) else YID


def parse_letters(text: str) -> tuple[int, ...]:
    """The letters of the space-separated text form, as written: tokens
    x<k>, x<k>^-1, y, y^-1; the empty word is written 1."""
    text = text.strip()
    if not text:
        raise ValueError("empty word: the empty word is written 1")
    if text == "1":
        return ()
    letters = []
    for tok in text.split():
        name = tok.removesuffix("^-1")
        try:
            gid = parse_gen(name)
        except ValueError:
            raise ValueError(f"bad word token {tok!r}") from None
        letters.append(gid if name == tok else -gid)
    return tuple(letters)


def parse_word(text: str, ambient: Ambient) -> Word:
    """Parse the text form of parse_letters into a word over ambient."""
    return Word(ambient, parse_letters(text))


def format_word(w: Word) -> str:
    if not w.letters:
        return "1"
    return " ".join(
        gen_name(abs(v)) + ("" if v > 0 else "^-1") for v in w.letters
    )


class Endomorphism:
    """A map of free groups given by one image word per domain generator."""

    __slots__ = ("domain", "codomain", "images")

    def __init__(self, domain: Ambient, codomain: Ambient, images: dict):
        images = dict(images)
        if set(images) != set(domain.gens()):
            raise ValueError("images must cover exactly the domain generators")
        for gid, w in images.items():
            if not isinstance(w, Word) or w.ambient != codomain:
                raise ValueError(f"image of {gen_name(gid)} is not a word over the codomain")
        self.domain = domain
        self.codomain = codomain
        self.images = images

    @classmethod
    def _trusted(cls, domain: Ambient, codomain: Ambient, images: dict) -> "Endomorphism":
        """An endomorphism whose images the caller vouches for: one word
        over codomain per domain generator, as when compose builds them."""
        e = object.__new__(cls)
        e.domain = domain
        e.codomain = codomain
        e.images = images
        return e

    def __call__(self, w: Word) -> Word:
        """Apply by substitution; the result is reduced."""
        if w.ambient != self.domain:
            raise ValueError("word is not over the domain generators")
        images = {g: image.letters for g, image in self.images.items()}
        return Word._reduced(self.codomain, _substitute(images, w.letters))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Endomorphism)
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.images == other.images
        )

    def __repr__(self):
        body = ", ".join(
            f"{gen_name(g)} -> {format_word(self.images[g])}" for g in self.domain.gens()
        )
        return f"Endomorphism({body})"


def identity_endomorphism(ambient: Ambient) -> Endomorphism:
    return Endomorphism(ambient, ambient, {g: Word(ambient, (g,)) for g in ambient.gens()})


def compose(f: Endomorphism, g: Endomorphism) -> Endomorphism:
    """Apply f first, then g: the image of x under compose(f, g) is g(f(x)).

    Where f fixes a generator, its image under g is shared, not rebuilt."""
    if f.codomain != g.domain:
        raise ValueError("codomain of the first map must equal domain of the second")
    return Endomorphism._trusted(f.domain, g.codomain, {
        gid: g.images[gid] if w.letters == (gid,) else g(w) for gid, w in f.images.items()
    })


def is_identity(e: Endomorphism) -> bool:
    if e.domain != e.codomain:
        return False
    return all(e.images[g].letters == (g,) for g in e.domain.gens())


class Automorphism:
    """An invertible endomorphism carrying a verified inverse."""

    __slots__ = ("forward", "inverse")

    def __init__(self, forward: Endomorphism, inverse: Endomorphism):
        if not (is_identity(compose(forward, inverse)) and is_identity(compose(inverse, forward))):
            raise ValueError("inverse does not invert the forward map")
        self.forward = forward
        self.inverse = inverse

    def __call__(self, w: Word) -> Word:
        return self.forward(w)

    def __repr__(self):
        return f"Automorphism({self.forward!r})"


def abelianized_matrix(e: Endomorphism) -> list[list[int]]:
    """Exponent-sum matrix: entry (i, j) is the exponent sum of codomain
    generator i in the image of domain generator j.

    Contravariantly functorial for the left-to-right composition order:
    matrix(compose(f, g)) = matrix(g) @ matrix(f).
    """
    rows = e.codomain.gens()
    cols = [exponent_sums(e.images[g], rows) for g in e.domain.gens()]
    return [[col[r] for col in cols] for r in range(len(rows))]
