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
    must name a listed generator.
    """

    # _counts and _plan (homcount's enumeration plan) are caches, built on
    # first use and left out of equality and hashing
    __slots__ = ("generators", "relators", "ambient", "_counts", "_plan")

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
            core = r.cyclic_reduce()[0]
            if core:
                _check_generators(core.letters, signed)
                cleaned.append(core)
        self.generators = generators
        self.relators = tuple(cleaned)
        self.ambient = ambient
        self._counts = None
        self._plan = None

    @classmethod
    def _built(cls, generators, relators, ambient, counts) -> "Presentation":
        """A presentation from nontrivial cyclically reduced relators over
        ambient that name only generators, with their letter counts."""
        p = object.__new__(cls)
        p.generators = generators
        p.relators = relators
        p.ambient = ambient
        p._counts = counts
        p._plan = None
        return p

    def _letter_counts(self) -> tuple[Counter, ...]:
        """How often each generator occurs in each relator, counted once."""
        if self._counts is None:
            self._counts = tuple(_letter_count(r) for r in self.relators)
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
    e = rep.evaluate(b)
    gens = rep.ambient.gens()
    relators = []
    for i in range(1, b.strands + 1):
        xi = Word(rep.ambient, (-i,))
        relators.append(xi * e.images[i])
    return Presentation(gens, relators)


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
    """The Wada group of type k (k = 1 or 2) of a welded braid word.

    Types 3 and 4 are rejected: they do not give welded invariants since
    the mixed relation alpha_i sigma_{i+1} sigma_i = sigma_{i+1} sigma_i
    alpha_{i+1} is not preserved by their automorphisms.
    """
    if k not in (1, 2):
        raise ValueError(
            f"Wada type {k} does not induce a welded-braid homomorphism "
            "(the mixed relation alpha_i sigma_(i+1) sigma_i = "
            "sigma_(i+1) sigma_i alpha_(i+1) fails); only types 1 and 2 "
            "define link invariants"
        )
    return _relators_from(reps.representation(f"wada{k}", b.strands, h), b)


def closure_group(b: BraidWord, wada_type: Optional[int] = None, h: int = 1) -> Presentation:
    """The closure presentation of b: under the Wada action of type
    wada_type (1 or 2, welded braids only) when given, otherwise under the
    representation of b's theory.  h, the conjugation power of wada1, must
    be 1 for every other action."""
    if wada_type:
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


def _gen_sort_key(gid: int):
    # x generators by index, y always last
    return (1, 0) if gid == YID else (0, gid)


def _letter_count(r: Word) -> Counter:
    return Counter(map(abs, r.letters))


def tietze_step(p: Presentation) -> Optional[Presentation]:
    """One elimination: find the shortest relator containing a generator
    that occurs in it exactly once (lowest generator index breaking ties),
    solve for that generator, substitute everywhere, and drop both.

    Returns None at a fixpoint.  Relators without the generator are kept
    as they are, letter counts included; the others are joined from the
    slices between its occurrences and the solution or its inverse.
    """
    counts = p._letter_counts()
    best = None
    for ri, (r, count) in enumerate(zip(p.relators, counts)):
        for gid, c in count.items():
            if c == 1:
                key = (len(r), _gen_sort_key(gid), ri)
                if best is None or key < best[0]:
                    best = (key, gid)
    if best is None:
        return None
    (_, _, ri), gid = best
    rel = p.relators[ri].letters
    pos = next(k for k, v in enumerate(rel) if abs(v) == gid)
    # rel = u g^eps v is cyclically reduced, so v u is reduced
    vu = Word._joined(p.ambient, (rel[pos + 1 :] + rel[:pos],), len(rel) - 1)
    # u g v = 1  =>  g = u^-1 v^-1;  u g^-1 v = 1  =>  g = v u
    solved = ~vu if rel[pos] > 0 else vu
    pieces_of = {gid: solved.letters, -gid: (~solved).letters}

    gens = tuple(g for g in p.generators if g != gid)
    ambient = _ambient_for(gens)
    relators, new_counts = [], []
    for k, (r, count) in enumerate(zip(p.relators, counts)):
        if k == ri:
            continue
        n = count[gid]
        if n == 0:
            if ambient != p.ambient:
                r = Word._joined(ambient, (r.letters,), len(r))
            relators.append(r)
            new_counts.append(count)
            continue
        ls = r.letters
        at = [j for j, w in enumerate(ls) if w in pieces_of]
        pieces = []
        for a, j in zip([-1] + at, at):
            pieces += (ls[a + 1 : j], pieces_of[ls[j]])
        pieces.append(ls[at[-1] + 1 :])
        core = Word._joined(ambient, pieces, len(ls) + n * (len(solved) - 1)).cyclic_reduce()[0]
        if core:
            relators.append(core)
            new_counts.append(_letter_count(core))
    return Presentation._built(gens, tuple(relators), ambient, tuple(new_counts))


@dataclass(frozen=True)
class TietzeResult:
    presentation: Presentation
    exhausted: bool
    steps: int


def tietze_simplify(p: Presentation, budget: int = TIETZE_BUDGET) -> TietzeResult:
    """Eliminate until no generator occurs exactly once in any relator, or
    until the total relator letter count exceeds the budget (in which case
    the smallest presentation seen so far is returned, flagged)."""
    if budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    best = p
    steps = 0
    current = p
    while True:
        nxt = tietze_step(current)
        if nxt is None:
            return TietzeResult(current, False, steps)
        steps += 1
        current = nxt
        if current.total_letters() <= best.total_letters():
            best = current
        if current.total_letters() > budget:
            return TietzeResult(best, True, steps)


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
    """Rows = relators, columns = generators, entries = exponent sums."""
    return [exponent_sums(r, p.generators) for r in p.relators]


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
    the Smith normal form of the relation matrix."""
    snf = smith_normal_form(relation_matrix(p))
    rank = sum(1 for d in snf.diagonal if d)
    torsion = tuple(d for d in snf.diagonal if d >= 2)
    return AbelianInvariants(len(p.generators) - rank, torsion)


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


def parse_presentation(text: str) -> Presentation:
    """Read either the line-oriented text form or the structured JSON form."""
    text = text.strip()
    if not text:
        raise ValueError("empty presentation input")
    if text.startswith("{"):
        try:
            payload = json.loads(text)
        except RecursionError:
            raise ValueError("structured presentation: nested too deeply") from None
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
    listed in gens."""
    ambient = _ambient_for(gens)
    signed = _signed(gens)
    relators = []
    for text in relator_texts:
        letters = parse_letters(text)
        _check_generators(letters, signed)
        relators.append(Word(ambient, letters))
    return Presentation(gens, relators)
