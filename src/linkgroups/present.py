"""Finite presentations of link groups and their simplification.

Builders turn a braid word b into the presentation with one relator
x_i^-1 * (image of x_i under the braid's representation) per strand.
Tietze simplification eliminates generators that occur exactly once in
some relator; abelian invariants come from the Smith normal form of the
exponent-sum matrix.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .braid import BraidWord
from .freegroup import (
    Ambient,
    Word,
    YID,
    _check_size,
    _cyclic_core,
    _inverse,
    _join,
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


def _signed(gens) -> frozenset[int]:
    return frozenset(g for gid in gens for g in (gid, -gid))


def _check_generators(letters, signed: frozenset[int]) -> None:
    """Reject letters unless signed holds each; the error names the
    generator of the first letter it lacks."""
    if not signed.issuperset(letters):
        bad = next(v for v in letters if v not in signed)
        raise ValueError(f"relator uses unknown generator {gen_name(abs(bad))}")


class Presentation:
    """Ordered generator list plus cyclically reduced relator words.

    Trivial relators are dropped at construction; every relator letter
    must name a listed generator.  The constructor checks and cyclically
    reduces every relator it is given, as for parsed input and quotient_y.
    The closure builders and the Tietze routine, which wraps only the
    presentation it returns, make relators that are cyclically reduced and
    over the ambient by construction, and use _built instead.
    """

    # _counts, _invariants (abelian_invariants) and _lifted (homcount's
    # counts into the default battery, from the sym3 lift) are caches, built
    # on first use and left out of equality and hashing
    __slots__ = ("generators", "relators", "ambient", "_counts", "_invariants", "_lifted")

    def __init__(self, generators, relators=()):
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise ValueError("duplicate generators")
        ambient = _ambient_for(generators)
        signed = _signed(generators)
        cleaned = []
        for r in relators:
            if not isinstance(r, Word) or r.ambient != ambient:
                raise ValueError("relators must be words over the presentation ambient")
            _check_generators(r.letters, signed)
            core = r.cyclic_reduce()[0]
            if core:
                cleaned.append(core)
        self.generators = generators
        self.relators = tuple(cleaned)
        self.ambient = ambient
        self._counts = None
        self._invariants = None
        self._lifted = None

    @classmethod
    def _built(cls, generators, relators, ambient, counts) -> "Presentation":
        """A presentation from nontrivial cyclically reduced relators over
        ambient that name only generators, with their letter counts, or
        None to count them on first use."""
        p = object.__new__(cls)
        p.generators = generators
        p.relators = relators
        p.ambient = ambient
        p._counts = counts
        p._invariants = None
        p._lifted = None
        return p

    def _letter_counts(self) -> tuple[Counter, ...]:
        """How often each signed letter (a generator id g or its inverse
        -g) occurs in each relator, counted once and carried through
        Tietze steps."""
        if self._counts is None:
            self._counts = tuple(Counter(r.letters) for r in self.relators)
        return self._counts

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
    cyclically reduced and dropped if trivial, not checked again."""
    e = rep.evaluate(b)
    amb = rep.ambient
    relators = []
    for i in range(1, b.strands + 1):
        image = e.images[i].letters
        _check_size(1 + len(image))
        # x_i^-1 cancels only against a leading x_i of the reduced image
        letters = image[1:] if image[:1] == (i,) else (-i,) + image
        core = _cyclic_core(letters)
        if core:
            relators.append(Word._reduced(amb, core))
    return Presentation._built(amb.gens(), tuple(relators), amb, None)


def group_of_virtual_link(b: BraidWord) -> Presentation:
    """<x1..xn, y | x_i = (image of x_i)> for a virtual braid word."""
    return _relators_from(reps.representation("virtual", b.strands), b)


def group_of_welded_link(b: BraidWord) -> Presentation:
    """<x1..xn | x_i = (image of x_i)> for a welded braid word."""
    return _relators_from(reps.representation("welded", b.strands), b)


def group_of_classical_link(b: BraidWord) -> Presentation:
    """The link group presentation from the Artin action of a classical braid."""
    return _relators_from(reps.representation("artin", b.strands), b)


def wada_group(b: BraidWord, k: int, h: int = 1) -> Presentation:
    """The Wada group of type k (k in WADA_TYPES) of a welded braid word.

    Types 3 and 4 are rejected: they do not give welded invariants since
    the mixed relation alpha_i sigma_{i+1} sigma_i = sigma_{i+1} sigma_i
    alpha_{i+1} is not preserved by their automorphisms.
    """
    if k not in WADA_TYPES:
        raise ValueError(
            f"Wada type {k} does not induce a welded-braid homomorphism "
            "(the mixed relation alpha_i sigma_(i+1) sigma_i = "
            "sigma_(i+1) sigma_i alpha_(i+1) fails); only types 1 and 2 "
            "define link invariants"
        )
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


def _elimination_key(r: tuple[int, ...], count: Counter):
    """(len(r), (is y, id)) for the first generator (x by index, y last)
    that occurs in r exactly once; None if no generator does."""
    once = [(abs(v) == YID, abs(v)) for v, c in count.items() if c == 1 and -v not in count]
    return (len(r), min(once)) if once else None


@dataclass(frozen=True)
class TietzeResult:
    presentation: Presentation
    exhausted: bool
    steps: int


def _eliminate(p: Presentation, budget, max_steps) -> TietzeResult:
    """Up to max_steps eliminations (see tietze_simplify), each solving the
    shortest relator in which a generator occurs once (lowest generator,
    then first relator) for it, substituting everywhere and dropping
    both.  Relators are carried as letter tuples with their letter counts
    and elimination keys, and the letter total as a running sum; only the
    presentation returned is built."""
    start = gens, rels, counts = p.generators, tuple(r.letters for r in p.relators), p._letter_counts()
    keys = [_elimination_key(r, c) for r, c in zip(rels, counts)]
    best_total = total = sum(map(len, rels))
    best, steps, exhausted = start, 0, False
    while not exhausted and steps < max_steps:
        pick = min(filter(None, keys), default=None)
        if pick is None:
            break
        ri, gid = keys.index(pick), pick[1][1]
        rel = rels[ri]
        letter = gid if counts[ri][gid] else -gid
        pos = rel.index(letter)
        # rel = u letter v is cyclically reduced, so the slices v u make a
        # reduced word, and letter = (v u)^-1
        vu = rel[pos + 1 :] + rel[:pos]
        pieces_of = {letter: _inverse(vu), -letter: vu}
        total -= len(rel)
        kept = []
        for k, (ls, count, key) in enumerate(zip(rels, counts, keys)):
            n = count[gid] + count[-gid]
            if n:
                if k == ri:
                    continue
                at = []
                for v in (gid, -gid):
                    j = -1
                    for _ in range(count[v]):
                        j = ls.index(v, j + 1)
                        at.append(j)
                at.sort()
                pieces = []
                for a, j in zip([-1] + at, at):
                    pieces += (ls[a + 1 : j], pieces_of[ls[j]])
                pieces.append(ls[at[-1] + 1 :])
                _check_size(len(ls) + n * (len(vu) - 1))
                total -= len(ls)
                ls = _cyclic_core(_join(pieces))
                total += len(ls)
                if not ls:
                    continue
                count = Counter(ls)
                key = _elimination_key(ls, count)
            kept.append((ls, count, key))
        gens = tuple(g for g in gens if g != gid)
        rels, counts, keys = zip(*kept) if kept else ((), (), ())
        steps += 1
        if total <= best_total:
            best, best_total = (gens, rels, counts), total
        exhausted = total > budget
    state = best if exhausted else (gens, rels, counts) if steps else start
    if state is not start:
        gens, rels, counts = state
        ambient = _ambient_for(gens)
        p = Presentation._built(gens, tuple(Word._reduced(ambient, r) for r in rels), ambient, counts)
    return TietzeResult(p, exhausted, steps)


def tietze_step(p: Presentation) -> Optional[Presentation]:
    """One elimination step of tietze_simplify; None at a fixpoint."""
    res = _eliminate(p, float("inf"), 1)
    return res.presentation if res.steps else None


def tietze_simplify(p: Presentation, budget: int = TIETZE_BUDGET) -> TietzeResult:
    """Eliminate until no generator occurs exactly once in any relator, or
    until the total relator letter count exceeds the budget (in which case
    the smallest presentation seen so far, the last of equals, is
    returned, flagged)."""
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    return _eliminate(p, budget, float("inf"))


def free_rank_certificate(p: Presentation, budget: int = TIETZE_BUDGET) -> Optional[int]:
    """The rank if simplification reaches zero relators; None is
    inconclusive, not a proof of non-freeness."""
    res = tietze_simplify(p, budget)
    if not res.exhausted and not res.presentation.relators:
        return len(res.presentation.generators)
    return None


# ---------------------------------------------------------------------------
# Integer matrices, Smith normal form, abelian invariants


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def relation_matrix(p: Presentation) -> list[list[int]]:
    """Rows = relators, columns = generators, entries = exponent sums,
    read from the relators' letter counts."""
    gens = p.generators
    return [[c[g] - c[-g] for g in gens] for c in p._letter_counts()]


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
    returning."""
    R, C = len(m), len(m[0]) if m else 0
    if any(len(r) != C for r in m):
        raise ValueError("ragged rows")
    a = [list(r) for r in m]
    u = [[1 if i == j else 0 for j in range(R)] for i in range(R)]
    v = [[1 if i == j else 0 for j in range(C)] for i in range(C)]

    def row_sub(i, j, q):  # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):  # col i -= q * col j
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    t = 0
    while t < R and t < C:
        # pivot: smallest magnitude nonzero in the trailing block
        pivot = None
        for i in range(t, R):
            for j in range(t, C):
                if a[i][j] and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for r in a:
                r[t], r[pj] = r[pj], r[t]
            for r in v:
                r[t], r[pj] = r[pj], r[t]
        dirty = False
        for i in range(t + 1, R):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                row_sub(i, t, q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, C):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                col_sub(j, t, q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue  # remainders became new, smaller pivot candidates
        # pivot must divide the rest of the block
        offender = None
        for i in range(t + 1, R):
            for j in range(t + 1, C):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1

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
    """Free rank and torsion coefficients of the abelianized group, from
    the Smith normal form of the relation matrix; kept on p."""
    if p._invariants is None:
        snf = smith_normal_form(relation_matrix(p))
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
        return _parsed_presentation(gens, _string_list(payload, "relators", []))
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
    return _parsed_presentation(gens, rel_lines)


def _parsed_presentation(gens: tuple[int, ...], relator_texts) -> Presentation:
    """Every generator a relator names, even one that cancels, must be
    listed in gens; each letter is checked once, here, against gens."""
    ambient = Presentation(gens).ambient  # rejects repeated generators
    signed = _signed(gens)
    relators = []
    for text in relator_texts:
        letters = parse_letters(text)
        _check_generators(letters, signed)
        core = Word._joined(ambient, zip(letters), len(letters)).cyclic_reduce()[0]
        if core:
            relators.append(core)
    return Presentation._built(gens, tuple(relators), ambient, None)
