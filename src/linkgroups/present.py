"""Finite presentations of link groups and their simplification.

Builders turn a braid word b into the presentation with one relator
x_i^-1 * (image of x_i under the braid's representation) per strand.
Tietze simplification eliminates generators that occur exactly once in
some relator.  Under the conjugating actions (artin, virtual, welded,
wada1) the builders read a closure's abelian invariants off the braid's
strand permutation, one Z per cycle plus Z for y, and Tietze carries
them; for every other presentation they come from the Smith normal form
of the exponent-sum matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Optional

from .braid import BraidWord, check_int
from .freegroup import (
    Ambient,
    Word,
    YID,
    _check_size,
    _cyclic_core,
    _inverse,
    _join,
    exponent_sums,
    format_word,
    gen_name,
    parse_gen,
    parse_letters,
)
from . import reps

# Tietze substitution can blow up; stop once the total relator letter
# count passes this and report the condition instead of truncating.
TIETZE_BUDGET = 10 ** 5

# The Wada types whose groups are welded link invariants.
WADA_TYPES = (1, 2)


def _ambient_for(gens: tuple[int, ...]) -> Ambient:
    nx = max((g for g in gens if g != YID), default=0)
    return Ambient(nx, YID in gens)


def _checked(generators, relators, letters_of) -> tuple:
    """The generators, relators, ambient and exponent sums of a checked
    presentation, as _built takes them.  The generator ids are checked
    once.  Each relator r is read as the letters letters_of(r, ambient),
    which must all name listed generators, even those that cancel, and
    number at most LETTER_LIMIT; they are reduced and cyclically reduced,
    and dropped if trivial.  Errors are raised relator by relator."""
    generators = tuple(generators)
    bad = next((g for g in generators if type(g) is not int or not 0 < g <= YID), None)
    if bad is not None:
        raise ValueError(f"bad generator id {bad!r}: ids are ints 1 .. {YID - 1}, or YID = {YID}")
    if len(set(generators)) != len(generators):
        raise ValueError("duplicate generators")
    ambient = _ambient_for(generators)
    signed = frozenset(generators).union(-g for g in generators)
    cores, sums = [], []
    for r in relators:
        letters = letters_of(r, ambient)
        if not signed.issuperset(letters):
            bad = next(v for v in letters if v not in signed)
            raise ValueError(f"relator uses unknown generator {gen_name(abs(bad))}")
        _check_size(len(letters))
        core = _cyclic_core(_join(zip(letters)))
        if core:
            cores.append(Word._reduced(ambient, core))
            sums.append(exponent_sums(core))
    return generators, tuple(cores), ambient, tuple(sums)


def _word_letters(r, ambient) -> tuple[int, ...]:
    if not isinstance(r, Word) or r.ambient != ambient:
        raise ValueError("relators must be words over the presentation ambient")
    return r.letters


class Presentation:
    """Ordered generator list plus cyclically reduced relator words.

    Trivial relators are dropped at construction; every relator letter
    must name a listed generator, and every generator id is an int k in
    1 .. YID - 1, named x<k>, or YID, named y.  The constructor, for
    quotient_y and a caller's own presentations, and the parser check
    the generators and check and cyclically reduce every relator by the
    one routine _checked.  The closure builders and the Tietze routine,
    which wraps only the presentation it returns, make relators that are
    cyclically reduced and over the ambient by construction, and use
    _built instead.  Every presentation carries each relator's exponent
    sums from where it is built, and the abelian invariants where its
    builder knows them.
    """

    # _sums is set where the presentation is built; _invariants
    # (abelian_invariants) and _slots (homcount's slot words, the key of
    # its memo of counts) are caches, carried from a build or built on
    # first use.  All three are left out of equality and hashing
    __slots__ = ("generators", "relators", "ambient", "_sums", "_invariants", "_slots")

    def __init__(self, generators, relators=()):
        self.generators, self.relators, self.ambient, self._sums = _checked(generators, relators, _word_letters)
        self._invariants = None
        self._slots = None

    @classmethod
    def _built(cls, generators, relators, ambient, sums, invariants=None) -> "Presentation":
        """A presentation from nontrivial cyclically reduced relators over
        ambient that name only generators, with each relator's exponent
        sums, as {generator id: sum} without the zero sums, and the
        abelian invariants where the caller knows them."""
        p = object.__new__(cls)
        p.generators = generators
        p.relators = relators
        p.ambient = ambient
        p._sums = sums
        p._invariants = invariants
        p._slots = None
        return p

    def total_letters(self) -> int:
        return sum(len(r) for r in self.relators)

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and self.generators == other.generators
            and self.relators == other.relators
        )

    def __hash__(self):
        return hash((self.generators, self.relators))

    def __repr__(self):
        gens = " ".join(gen_name(g) for g in self.generators)
        return f"Presentation(<{gens} | {len(self.relators)} relators>)"


def _relators_from(rep: reps.Representation, b: BraidWord) -> Presentation:
    """The closure presentation of b under rep, built from relator words
    that are reduced and over rep's ambient by construction: each is only
    cyclically reduced and dropped if trivial, not checked again.  Under
    a conjugating action each image is c x_t c^-1 with x_t its middle
    letter, so the relator's exponent sums are x_t - x_i, and none when
    t = i.  The relation matrix is then P - I for the permutation
    i -> t, whose cokernel is free on its cycles: the abelian invariants
    are Z^(cycles), plus Z for y, with no torsion.  The other actions'
    relators are counted for their sums, and their invariants are
    computed on first use."""
    e = rep.evaluate(b)
    amb = rep.ambient
    relators, sums, targets = [], [], {}
    for i in range(1, b.strands + 1):
        image = e.images[i].letters
        _check_size(1 + len(image))
        # x_i^-1 cancels only against a leading x_i of the reduced image
        letters = image[1:] if image[:1] == (i,) else (-i,) + image
        core = _cyclic_core(letters)
        targets[i] = t = image[len(image) // 2]
        if core:
            relators.append(Word._reduced(amb, core))
            sums.append(({t: 1, i: -1} if t != i else {}) if rep._conjugates else exponent_sums(core))
    if not rep._conjugates:
        return Presentation._built(amb.gens(), tuple(relators), amb, tuple(sums))
    cycles = 0
    while targets:
        start, t = targets.popitem()
        while t != start:
            t = targets.pop(t)
        cycles += 1
    invariants = AbelianInvariants(cycles + amb.has_y, ())
    return Presentation._built(amb.gens(), tuple(relators), amb, tuple(sums), invariants)


def group_of_virtual_link(b: BraidWord) -> Presentation:
    """<x1..xn, y | x_i = (image of x_i)> for a virtual braid word."""
    return _relators_from(reps.representation("virtual", b.strands), b)


def group_of_welded_link(b: BraidWord) -> Presentation:
    """<x1..xn | x_i = (image of x_i)> for a welded braid word."""
    return _relators_from(reps.representation("welded", b.strands), b)


def group_of_classical_link(b: BraidWord) -> Presentation:
    """The link group presentation from the Artin action of a classical braid."""
    return _relators_from(reps.representation("artin", b.strands), b)


def check_wada_type(k: int) -> None:
    """k is one of WADA_TYPES.  Types 3 and 4 are rejected: they do not
    give welded invariants since the mixed relation alpha_i sigma_{i+1}
    sigma_i = sigma_{i+1} sigma_i alpha_{i+1} is not preserved by their
    automorphisms."""
    check_int("Wada type", k)
    if k not in WADA_TYPES:
        raise ValueError(
            f"Wada type {k} does not induce a welded-braid homomorphism "
            "(the mixed relation alpha_i sigma_(i+1) sigma_i = "
            "sigma_(i+1) sigma_i alpha_(i+1) fails); only types 1 and 2 "
            "define link invariants"
        )


def wada_group(b: BraidWord, k: int, h: int = 1) -> Presentation:
    """The Wada group of type k (see check_wada_type) of a welded braid word."""
    check_wada_type(k)
    return _relators_from(reps.representation(f"wada{k}", b.strands, h), b)


def closure_group(b: BraidWord, wada_type: Optional[int] = None, h: int = 1) -> Presentation:
    """The closure presentation of b: under the Wada action of type
    wada_type (one of WADA_TYPES, welded braids only) when given, otherwise
    under the representation of b's theory.  h, the conjugation power of
    wada1, must be 1 for every other action."""
    if wada_type is not None:
        return wada_group(b, wada_type, h)
    # the builders are looked up as module globals at call time, so a
    # wrapper installed on this module sees every build
    family, build = {
        "classical": ("artin", group_of_classical_link),
        "virtual": ("virtual", group_of_virtual_link),
        "welded": ("welded", group_of_welded_link),
    }[b.theory]
    reps.check_conj_power(family, h)
    return build(b)


def quotient_y(p: Presentation) -> Presentation:
    """Kill the distinguished generator: remove y from the generator list
    and delete every y letter from every relator."""
    if YID not in p.generators:
        raise ValueError("presentation has no y generator")
    gens = tuple(g for g in p.generators if g != YID)
    return Presentation(gens, [r.without_y() for r in p.relators])


# ---------------------------------------------------------------------------
# Tietze simplification


def _elimination_key(r: tuple[int, ...], sums: dict):
    """(len(r), id) for the least id that occurs in r exactly once (y
    last, as YID is above every x id); None if no generator does.  Only
    a generator with exponent sum s = +-1 can, and it does iff the
    letter of sign -s is not in r."""
    once = None
    for g, s in sums.items():
        if (s == 1 or s == -1) and (once is None or g < once) and -s * g not in r:
            once = g
    return None if once is None else (len(r), once)


@dataclass(frozen=True)
class TietzeResult:
    presentation: Presentation
    exhausted: bool
    steps: int


def tietze_simplify(p: Presentation, budget: int = TIETZE_BUDGET) -> TietzeResult:
    """Eliminate until no generator occurs exactly once in any relator, or
    until the total relator letter count exceeds the budget, an int of at
    least 0 (then the smallest presentation seen so far, the last of
    equals, is returned, flagged).

    Each elimination solves the shortest relator in which a generator
    occurs once (lowest generator, then first relator) for it,
    substitutes everywhere and drops both.  The relators' letter tuples,
    exponent sums and elimination keys are three lists that each step
    updates in place, and the letter total is a running sum; tuples are
    built only for a new best state, and a presentation only for the
    result.  Free and cyclic reduction keep exponent sums, so a relator
    holding the solved letter n+ times and its inverse n- times gets its
    old sums without the eliminated generator plus (n- - n+) times those
    of the solution's inverse v u (below); no letters are counted again.
    Those sums are taken before the relator is joined.  A word has at
    least as many letters as its sums add up to in absolute value, so once
    the letters of the relators the step has visited plus that sum pass
    both the budget and the best total, the step's result is fixed: it
    stops there, and the best state is returned, exhausted, with the step
    counted.
    Tietze moves keep the group, so the presentation built carries p's
    abelian invariants, if known."""
    check_int("budget", budget, 0)
    gens, rels, sums = p.generators, [r.letters for r in p.relators], list(p._sums)
    keys = [_elimination_key(r, e) for r, e in zip(rels, sums)]
    best_total = total = sum(map(len, rels))
    best, steps, exhausted = None, 0, False  # best None: p is the best seen
    while not exhausted:
        pick = min(filter(None, keys), default=None)
        if pick is None:
            break
        ri, gid = keys.index(pick), pick[1]
        del keys[ri]
        rel, vu_sums = rels.pop(ri), sums.pop(ri).copy()
        letter = gid * vu_sums.pop(gid)
        pos = rel.index(letter)
        # rel = u letter v is cyclically reduced, so the slices v u make a
        # reduced word, and letter = (v u)^-1
        vu = rel[pos + 1 :] + rel[:pos]
        pieces_of = {letter: _inverse(vu), -letter: vu}
        total -= len(rel)
        # seen is the letter count of the relators this step has visited
        limit, seen, gone = max(budget, best_total), 0, []
        for k, ls in enumerate(rels):
            plus, minus = ls.count(letter), ls.count(-letter)
            n = plus + minus
            if not n:
                seen += len(ls)
                continue
            d, e = minus - plus, sums[k]
            sums[k] = e = {g: s for g in e.keys() | vu_sums.keys()
                           if g != gid and (s := e.get(g, 0) + d * vu_sums.get(g, 0))}
            # a lower bound on the step's final total (see the docstring)
            if seen + sum(map(abs, e.values())) > limit:
                exhausted = True
                break
            at = []
            for v, c in ((letter, plus), (-letter, minus)):
                j = -1
                for _ in range(c):
                    j = ls.index(v, j + 1)
                    at.append(j)
            at.sort()
            pieces = []
            for a, j in zip([-1] + at, at):
                pieces += (ls[a + 1 : j], pieces_of[ls[j]])
            pieces.append(ls[at[-1] + 1 :])
            _check_size(len(ls) + n * (len(vu) - 1))
            total -= len(ls)
            rels[k] = ls = _cyclic_core(_join(pieces))
            total += len(ls)
            seen += len(ls)
            if not ls:
                gone.append(k)
                continue
            keys[k] = _elimination_key(ls, e)
        steps += 1
        if exhausted:
            break
        for k in reversed(gone):
            del rels[k], sums[k], keys[k]
        gens = tuple(g for g in gens if g != gid)
        if total <= best_total:
            best, best_total = (gens, tuple(rels), tuple(sums)), total
        exhausted = total > budget
    state = best if exhausted else (gens, rels, tuple(sums)) if steps else None
    if state is not None:
        gens, rels, sums = state
        ambient = _ambient_for(gens)
        p = Presentation._built(gens, tuple(Word._reduced(ambient, r) for r in rels), ambient, sums, p._invariants)
    return TietzeResult(p, exhausted, steps)


def free_rank_certificate(p: Presentation) -> Optional[int]:
    """The rank if simplification within TIETZE_BUDGET reaches zero
    relators; None is inconclusive, not a proof of non-freeness."""
    res = tietze_simplify(p)
    if not res.exhausted and not res.presentation.relators:
        return len(res.presentation.generators)
    return None


# ---------------------------------------------------------------------------
# Integer matrices, Smith normal form, abelian invariants


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


@dataclass(frozen=True)
class SmithForm:
    diagonal: tuple[int, ...]
    U: list[list[int]]
    V: list[list[int]]
    D: list[list[int]]


def smith_normal_form(m: list[list[int]]) -> SmithForm:
    """Diagonalize the matrix m, given as a list of rows, by unimodular
    row/column operations: U m V = D with d1 | d2 | ... and nonnegative
    diagonal.  The factorization is verified by multiplication before
    returning.

    Each operation is a division step: a later line loses the pivot's line
    times its quotient by the pivot, and a nonzero remainder, smaller than
    the pivot, is the next pivot.  Taking the least pivot keeps the entries
    of U and V small, against the coefficient growth that integer Smith
    forms are prone to (Kannan and Bachem, SIAM J. Comput. 8, 1979)."""
    R, C = len(m), len(m[0]) if m else 0
    if any(len(r) != C for r in m):
        raise ValueError("ragged rows")
    # w is [[m, I], [I, 0]]: the row steps on its first R rows act on m and
    # U, the column steps on its first C columns on m and V
    w = [list(r) + [0] * i + [1] + [0] * (R - 1 - i) for i, r in enumerate(m)]
    w += [[0] * i + [1] + [0] * (C - 1 - i) for i in range(C)]
    for t in range(min(R, C)):
        while True:
            # a least nonzero entry of row t and column t is the pivot d
            line = [(abs(w[i][t]), i, t) for i in range(t, R) if w[i][t]]
            line += [(abs(w[t][j]), t, j) for j in range(t + 1, C) if w[t][j]]
            _, i, j = min(line, default=(0, t, t))  # with none, the 0 at (t, t)
            w[t], w[i] = w[i], w[t]
            if j > t:
                for row in w[t:]:  # the rows above t are 0 in columns t and j
                    row[t], row[j] = row[j], row[t]
            d = w[t][t]
            if d:
                # q is the nearest quotient, so a remainder is at most |d| / 2;
                # row t is reduced only once column t is clear
                for i in range(t + 1, R):  # row steps reduce column t
                    q = (2 * w[i][t] + d) // (2 * d)
                    if q:
                        w[i] = [f - q * e for e, f in zip(w[t], w[i])]
                if any(w[i][t] for i in range(t + 1, R)):
                    continue
                for j in range(t + 1, C):  # column steps reduce row t
                    q = (2 * w[t][j] + d) // (2 * d)
                    if q:
                        for row in w[t:]:
                            row[j] -= q * row[t]
                if any(w[t][t + 1 : C]):
                    continue
            # the pivot must divide the rest of the block (a zero pivot
            # divides only 0); if a row holds an entry it does not divide,
            # add that row to row t and step again
            bad = next((i for i in range(t + 1, R) if gcd(d, *w[i][:C]) != abs(d)), None)
            if bad is None:
                break
            w[t] = [e + f for e, f in zip(w[t], w[bad])]
        if not d:
            break  # the rest of the block is 0
        if d < 0:
            w[t] = [-e for e in w[t]]
    a, u, v = [r[:C] for r in w[:R]], [r[C:] for r in w[:R]], w[R:]
    if _matmul(_matmul(u, m), v) != a:
        raise AssertionError("smith normal form verification failed")
    diag = tuple(a[k][k] for k in range(min(R, C)))
    for b, c in zip(diag, diag[1:]):
        if b and c % b:
            raise AssertionError("divisibility chain violated")
        if b == 0 and c != 0:
            raise AssertionError("zero before nonzero on the diagonal")
    return SmithForm(diag, u, v, a)


@dataclass(frozen=True)
class AbelianInvariants:
    free_rank: int
    torsion: tuple[int, ...] = ()

    def __str__(self):
        parts = [f"Z^{self.free_rank}"] if self.free_rank else []
        parts += [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def abelian_invariants(p: Presentation) -> AbelianInvariants:
    """Free rank and torsion coefficients of the abelianized group; kept
    on p.  A closure under a conjugating action, and its Tietze results,
    carry them from the build (see _relators_from).  Otherwise they come
    from the Smith normal form of the relation matrix, taken of its
    nonzero rows and columns only, as the rest change neither the rank
    nor the torsion."""
    if p._invariants is None:
        rows = [e for e in p._sums if e]
        cols = [g for g in p.generators if any(g in e for e in rows)]
        snf = smith_normal_form([[e.get(g, 0) for g in cols] for e in rows])
        rank = sum(1 for d in snf.diagonal if d)
        torsion = tuple(d for d in snf.diagonal if d >= 2)
        p._invariants = AbelianInvariants(len(p.generators) - rank, torsion)
    return p._invariants


# ---------------------------------------------------------------------------
# Text and structured serialization


def format_presentation(p: Presentation, structured: bool = False) -> str:
    if structured:
        payload = {
            "generators": [gen_name(g) for g in p.generators],
            "relators": [format_word(r) for r in p.relators],
        }
        return json.dumps(payload)
    lines = ["gens: " + " ".join(gen_name(g) for g in p.generators)]
    lines += ["rel: " + format_word(r) for r in p.relators]
    return "\n".join(lines)


def _string_list(payload: dict, key: str, default) -> list:
    value = payload.get(key, default)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"structured presentation: {key!r} must be a list of strings")
    return value


def _unique_keys(pairs) -> dict:
    """A JSON object's members as a dict; json.loads would keep the last
    of two equal keys."""
    payload = {}
    for key, value in pairs:
        if key in payload:
            raise ValueError(f"structured presentation: repeated key {key!r}")
        payload[key] = value
    return payload


def parse_presentation(text: str) -> Presentation:
    """Read either the line-oriented text form or the structured JSON form."""
    text = text.strip()
    if not text:
        raise ValueError("empty presentation input")
    if text.startswith("{"):
        try:
            # no number is valid here, so each is read as a float, which has
            # no digit limit: int() refuses to read more than 4300 digits
            payload = json.loads(text, object_pairs_hook=_unique_keys, parse_int=float)
        except RecursionError:
            raise ValueError("structured presentation: nested too deeply") from None
        unknown = sorted(set(payload) - {"generators", "relators"})
        if unknown:
            raise ValueError(f"structured presentation: unknown key {unknown[0]!r}")
        gens = tuple(parse_gen(n) for n in _string_list(payload, "generators", None))
        rel_lines = _string_list(payload, "relators", [])
    else:
        gens = None
        rel_lines = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("gens:"):
                if gens is not None:
                    raise ValueError("duplicate gens line")
                names = line[len("gens:") :].split()
                gens = tuple(parse_gen(n) for n in names)
            elif line.startswith("rel:"):
                rel_lines.append(line[len("rel:") :].strip())
            else:
                raise ValueError(f"bad presentation line {line!r}")
        if gens is None:
            raise ValueError("missing gens line")
    return Presentation._built(*_checked(gens, rel_lines, lambda line, ambient: parse_letters(line)))
