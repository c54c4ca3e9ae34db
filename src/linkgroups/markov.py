"""Fuzz harness for the moves under which the link-group fingerprints
must not change.

Virtual braids admit four move kinds (relation rewrite, conjugation,
stabilization, exchange); welded braids the first three.  Each trial
draws a random braid, fingerprints it, applies a chain of random moves,
and fingerprints again; any mismatch is reported with a replayable trace.
A relation rewrite picks among the first sites of the relation sides in
the word, found in one pass that looks each pair of adjacent letters up
in the sides' index, built once per (theory, strands).

An exchange move relates the two words it *produces* (the closure even
changes strand count relative to the pre-split word), so the harness
checks the chain fingerprint just before the exchange, checks the two
produced forms against each other, and then rebases the expected
fingerprint on the form it continues from.

A trial checks the same braid several times in a row (a pre-exchange
check right after an exchange, the end of a chain that ends in one, and
depth 0); it builds, simplifies and fingerprints each run of equal
consecutive braids once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .braid import (
    MAX_STRANDS,
    BraidWord,
    alphabet,
    conjugate,
    defining_relations,
    exchange_pair,
    normalize,
    random_braid_from,
    rewrite_with_relation,
    serialize,
    stabilize,
)
from . import freegroup
from .homcount import CapExceeded, fingerprint
from .present import check_wada_type, closure_group, tietze_simplify

# The theories whose Markov moves fuzz checks.
FUZZ_THEORIES = ("virtual", "welded")


@dataclass(frozen=True)
class Move:
    kind: str
    detail: str
    partner: Optional[BraidWord] = None  # the other exchange form

    def __str__(self):
        return f"{self.kind} {self.detail}" if self.detail else self.kind


@dataclass
class MoveTrace:
    theory: str
    initial: BraidWord
    steps: list = field(default_factory=list)  # (Move, BraidWord after)

    def record(self, move: Move, result: BraidWord):
        self.steps.append((move, result))

    def render(self) -> str:
        lines = [
            f"theory={self.theory} strands={self.initial.strands} "
            f"word={serialize(self.initial)}"
        ]
        for move, result in self.steps:
            lines.append(f"  {move} -> [{result.strands}] {serialize(result)}")
        return "\n".join(lines)


@lru_cache(maxsize=None)
def _site_index(theory: str, strands: int) -> dict:
    """Each nonempty side of each relation as (catalogue place, relation,
    letters), filed under its first two letters."""
    index = {}
    sides = [(rel, s.letters) for rel in defining_relations(theory, strands) for s in (rel.left, rel.right)]
    for place, (rel, side) in enumerate(sides):
        if side:  # inserting an involution square is a no-op after normalization
            index.setdefault(side[:2], []).append((place, rel, side))
    return index


def _relation_sites(b: BraidWord):
    """(relation, index) of the first site in b of each side of each
    defining relation, in catalogue order; one site per side keeps the
    menu small."""
    index, ls, found = _site_index(b.theory, b.strands), b.letters, {}
    for at, pair in enumerate(zip(ls, ls[1:])):
        for place, rel, side in index.get(pair, ()):
            if place not in found and ls[at : at + len(side)] == side:
                found[place] = (rel, at)
    return [found[place] for place in sorted(found)]


def random_move(b: BraidWord, rng: random.Random) -> tuple[Move, BraidWord]:
    """One legal move applied to b; moves with no applicable site are
    resampled.  Exchange moves return the virtual form and carry the
    classical form as the partner."""
    menu = ["relation", "conjugate", "stabilize"]
    if b.theory == "virtual":
        menu.append("exchange")
    while True:
        kind = rng.choice(menu)
        if kind == "relation":
            sites = _relation_sites(b)
            if not sites:
                continue
            rel, at = rng.choice(sites)
            return Move("relation", f"{rel.label()} at {at}"), rewrite_with_relation(b, rel, at)
        if kind == "conjugate":
            if b.strands < 2:
                continue
            g = rng.choice(alphabet(b.strands, b.theory))
            return Move("conjugate", f"by {serialize(BraidWord(b.strands, b.theory, (g,)))}"), conjugate(b, g)
        if kind == "stabilize":
            stab = rng.choice(["positive", "negative", "virtual"])
            return Move("stabilize", stab), stabilize(b, stab)
        if kind == "exchange":
            side = rng.choice(["right", "left"])
            cut = rng.randint(0, len(b.letters))
            b1 = BraidWord(b.strands, b.theory, b.letters[:cut])
            b2 = BraidWord(b.strands, b.theory, b.letters[cut:])
            classical_form, virtual_form = exchange_pair(b1, b2, side)
            return Move("exchange", f"side={side} cut={cut}", partner=classical_form), virtual_form


@dataclass(frozen=True)
class Mismatch:
    trial: int
    stage: str
    expected: str
    got: str
    trace: str


@dataclass(frozen=True)
class FuzzReport:
    theory: str
    trials: int
    seed: int
    wada_type: Optional[int]
    mismatches: tuple
    skipped: tuple  # (trial index, reason)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        head = f"theory={self.theory}"
        if self.wada_type:
            head += f" wada={self.wada_type}"
        lines = [
            f"{head} trials={self.trials} seed={self.seed} "
            f"mismatches={len(self.mismatches)} skipped={len(self.skipped)}"
        ]
        for idx, reason in self.skipped:
            lines.append(f"skipped trial {idx}: {reason}")
        for mm in self.mismatches:
            lines.append(
                f"MISMATCH trial {mm.trial} at {mm.stage}: expected {mm.expected}, got {mm.got}"
            )
            lines.append(mm.trace)
        return "\n".join(lines)


def _fingerprint_of(b: BraidWord, wada_type, last):
    """The default-battery fingerprint of b's simplified closure group.

    last is the trial's [braid, presentation] of the braid it checked
    last; an equal braid reuses that presentation, whose abelian
    invariants and slot words are kept on it, so its fingerprint reads
    homcount's memo rather than enumerating."""
    if b != last[0]:
        last[:] = b, tietze_simplify(closure_group(b, wada_type)).presentation
    return fingerprint(last[1])


def _trial_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def run_trial(index, theory, max_strands, max_length, max_depth, seed, wada_type):
    """One fuzz trial; returns (status, payload)."""
    rng = random.Random(_trial_seed(seed, index))
    n = rng.randint(2, max_strands)
    length = rng.randint(0, max_length)
    depth = rng.randint(0, max_depth)
    b = normalize(random_braid_from(rng, n, length, theory))
    trace = MoveTrace(theory, b)
    last = [None, None]
    try:
        expected = _fingerprint_of(b, wada_type, last)
        for _ in range(depth):
            move, nxt = random_move(b, rng)
            trace.record(move, nxt)
            if move.kind == "exchange":
                pre = _fingerprint_of(b, wada_type, last)
                if pre != expected:
                    return "mismatch", Mismatch(
                        index, "pre-exchange chain", str(expected), str(pre), trace.render()
                    )
                first = _fingerprint_of(move.partner, wada_type, last)
                second = _fingerprint_of(nxt, wada_type, last)
                if first != second:
                    return "mismatch", Mismatch(
                        index, "exchange pair", str(first), str(second), trace.render()
                    )
                expected = second
            b = nxt
        final = _fingerprint_of(b, wada_type, last)
        if final != expected:
            return "mismatch", Mismatch(
                index, "end of chain", str(expected), str(final), trace.render()
            )
    except (CapExceeded, freegroup.WordLengthError) as exc:
        return "skipped", f"{type(exc).__name__}: {exc}"
    return "ok", None


def fuzz(
    theory: str,
    trials: int,
    strands: int,
    length: int,
    depth: int,
    seed: int,
    wada_type: Optional[int] = None,
) -> FuzzReport:
    """Run the campaign's trials in order, in this process; deterministic
    for a fixed seed.

    length is at most freegroup.LETTER_LIMIT, as a braid word is drawn
    whole."""
    if theory not in FUZZ_THEORIES:
        raise ValueError("fuzzing is defined for virtual and welded braids")
    if wada_type is not None:
        if theory != "welded":
            raise ValueError("Wada fingerprints apply to welded braids")
        check_wada_type(wada_type)
    for name, value in (("trials", trials), ("strands", strands), ("length", length),
                        ("depth", depth), ("seed", seed)):
        if type(value) is not int:
            raise ValueError(f"{name} must be an int, got {value!r}")
    for name, value, least in (("trials", trials, 0), ("strands", strands, 2),
                               ("length", length, 0), ("depth", depth, 0)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if strands + depth > MAX_STRANDS:  # each move adds at most one strand
        raise ValueError(f"strands + depth {strands + depth} exceeds the ceiling {MAX_STRANDS}")
    if length > freegroup.LETTER_LIMIT:
        raise ValueError(f"length {length} exceeds the word-length limit {freegroup.LETTER_LIMIT}")
    found = {"mismatch": [], "skipped": []}  # a passing trial leaves nothing behind
    for i in range(trials):
        status, payload = run_trial(i, theory, strands, length, depth, seed, wada_type)
        if status in found:
            found[status].append(payload if status == "mismatch" else (i, payload))
    return FuzzReport(theory, trials, seed, wada_type, tuple(found["mismatch"]), tuple(found["skipped"]))

