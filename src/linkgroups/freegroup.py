"""Exact arithmetic on reduced words of finitely generated free groups.

Generators are x1, x2, ... plus an optional distinguished generator y.
y is its own kind of generator rather than an extra index, so the same
word type serves both the rank-n and rank-(n+1) groups and killing y is
a structural erasure instead of a re-indexing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

    def __contains__(self, gid: int) -> bool:
        return 1 <= gid <= self.nx or (self.has_y and gid == YID)

    def without_y(self) -> "Ambient":
        return Ambient(self.nx, False)


def gen_name(gid: int) -> str:
    return "y" if gid == YID else f"x{gid}"


def _free_reduce(letters):
    out = []
    for v in letters:
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return tuple(out)


class Word:
    """A freely reduced word over an ambient generator set.

    Immutable; every constructor reduces eagerly, so reduction is
    idempotent by construction and all operations see reduced input.
    """

    __slots__ = ("ambient", "letters")

    def __init__(self, ambient: Ambient, letters=()):
        letters = tuple(letters)
        if len(letters) > LETTER_LIMIT:
            raise WordLengthError(f"{len(letters)} letters exceeds limit {LETTER_LIMIT}")
        for v in letters:
            if v == 0 or abs(v) not in ambient:
                raise ValueError(f"letter {v!r} outside ambient {ambient}")
        self.ambient = ambient
        self.letters = _free_reduce(letters)

    def __mul__(self, other: "Word") -> "Word":
        if self.ambient != other.ambient:
            raise ValueError(f"ambient mismatch: {self.ambient} vs {other.ambient}")
        return Word(self.ambient, self.letters + other.letters)

    def __invert__(self) -> "Word":
        return Word(self.ambient, tuple(-v for v in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        w = Word(self.ambient)
        for _ in range(n):
            w = w * self
        return w

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
        ls = self.letters
        i, j = 0, len(ls)
        while j - i >= 2 and ls[i] == -ls[j - 1]:
            i += 1
            j -= 1
        core = Word(self.ambient, ls[i:j])
        conjugator = Word(self.ambient, ls[j:])
        return core, conjugator

    def without_y(self) -> "Word":
        """Erase every y letter, giving a word over the ambient without y."""
        return Word(self.ambient.without_y(), tuple(v for v in self.letters if abs(v) != YID))


def exponent_sums(w: Word, gens) -> list[int]:
    """The exponent sum in w of each generator in gens, in that order."""
    col = {g: j for j, g in enumerate(gens)}
    sums = [0] * len(col)
    for v in w.letters:
        sums[col[abs(v)]] += 1 if v > 0 else -1
    return sums


_GEN = re.compile(r"x([1-9][0-9]*)|y")


def parse_gen(name: str) -> int:
    """The id of a generator name: y, or x<k> (k >= 1, ASCII digits, no leading 0)."""
    m = _GEN.fullmatch(name)
    if m is None:
        raise ValueError(f"bad generator name {name!r}")
    return int(m.group(1)) if m.group(1) else YID


def parse_word(text: str, ambient: Ambient) -> Word:
    """Parse the space-separated text form: tokens x<k>, x<k>^-1, y, y^-1;
    the empty word is written 1."""
    text = text.strip()
    if text == "1":
        return Word(ambient)
    letters = []
    for tok in text.split():
        name = tok.removesuffix("^-1")
        try:
            gid = parse_gen(name)
        except ValueError:
            raise ValueError(f"bad word token {tok!r}") from None
        letters.append(gid if name == tok else -gid)
    return Word(ambient, letters)


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

    def __call__(self, w: Word) -> Word:
        """Apply by substitution; the result is reduced."""
        if w.ambient != self.domain:
            raise ValueError("word is not over the domain generators")
        if sum(len(self.images[abs(v)].letters) for v in w.letters) > LETTER_LIMIT:
            raise WordLengthError(f"image would exceed {LETTER_LIMIT} letters")
        out = []
        for v in w.letters:
            img = self.images[abs(v)].letters
            out.extend(img if v > 0 else [-u for u in reversed(img)])
        return Word(self.codomain, out)

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
    """Apply f first, then g: the image of x under compose(f, g) is g(f(x))."""
    if f.codomain != g.domain:
        raise ValueError("codomain of the first map must equal domain of the second")
    return Endomorphism(f.domain, g.codomain, {gid: g(w) for gid, w in f.images.items()})


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
