"""Fuzz harness for the moves under which the link-group fingerprints
must not change.

Virtual braids admit four move kinds (relation rewrite, conjugation,
stabilization, exchange); welded braids the first three.  Each trial
draws a random braid, fingerprints it, applies a chain of random moves,
and fingerprints again; any mismatch is reported with a replayable trace.

An exchange move relates the two words it *produces* (the closure even
changes strand count relative to the pre-split word), so the harness
checks the chain fingerprint just before the exchange, checks the two
produced forms against each other, and then rebases the expected
fingerprint on the form it continues from.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import partial
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
from .freegroup import WordLengthError
from .homcount import CapExceeded, fingerprint
from .present import closure_group, tietze_simplify


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


def _relation_sites(b: BraidWord):
    sites = []
    for rel in defining_relations(b.theory, b.strands):
        for use_left in (True, False):
            pattern = rel.left if use_left else rel.right
            k = len(pattern.letters)
            if k == 0:
                continue  # inserting an involution square is a no-op after normalization
            for at in range(len(b.letters) - k + 1):
                if b.letters[at : at + k] == pattern.letters:
                    sites.append((rel, at))
                    break  # one site per (relation, side) keeps the menu small
    return sites


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


def _fingerprint_of(b: BraidWord, wada_type):
    """The default-battery fingerprint of b's simplified closure group."""
    return fingerprint(tietze_simplify(closure_group(b, wada_type)).presentation)


def _trial_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def run_trial(index, theory, max_strands, max_length, max_depth, seed, wada_type):
    """One fuzz trial; returns (index, status, payload)."""
    rng = random.Random(_trial_seed(seed, index))
    n = rng.randint(2, max_strands)
    length = rng.randint(0, max_length)
    depth = rng.randint(0, max_depth)
    b = normalize(random_braid_from(rng, n, length, theory))
    trace = MoveTrace(theory, b)
    try:
        expected = _fingerprint_of(b, wada_type)
        for _ in range(depth):
            move, nxt = random_move(b, rng)
            trace.record(move, nxt)
            if move.kind == "exchange":
                pre = _fingerprint_of(b, wada_type)
                if pre != expected:
                    return index, "mismatch", Mismatch(
                        index, "pre-exchange chain", str(expected), str(pre), trace.render()
                    )
                first = _fingerprint_of(move.partner, wada_type)
                second = _fingerprint_of(nxt, wada_type)
                if first != second:
                    return index, "mismatch", Mismatch(
                        index, "exchange pair", str(first), str(second), trace.render()
                    )
                expected = second
            b = nxt
        final = _fingerprint_of(b, wada_type)
        if final != expected:
            return index, "mismatch", Mismatch(
                index, "end of chain", str(expected), str(final), trace.render()
            )
    except (CapExceeded, WordLengthError) as exc:
        return index, "skipped", f"{type(exc).__name__}: {exc}"
    return index, "ok", None


def fuzz(
    theory: str,
    trials: int,
    strands: int,
    length: int,
    depth: int,
    seed: int,
    wada_type: Optional[int] = None,
    jobs: int = 1,
) -> FuzzReport:
    """Run the campaign; deterministic for a fixed seed regardless of jobs.

    jobs, at least 1, is clamped to the CPU count and the number of trials."""
    if theory not in ("virtual", "welded"):
        raise ValueError("fuzzing is defined for virtual and welded braids")
    if wada_type is not None and theory != "welded":
        raise ValueError("Wada fingerprints apply to welded braids")
    for name, value, least in (("trials", trials, 0), ("strands", strands, 2),
                               ("length", length, 0), ("depth", depth, 0), ("jobs", jobs, 1)):
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if strands + depth > MAX_STRANDS:  # each move adds at most one strand
        raise ValueError(f"strands + depth {strands + depth} exceeds the ceiling {MAX_STRANDS}")
    trial = partial(run_trial, theory=theory, max_strands=strands, max_length=length,
                    max_depth=depth, seed=seed, wada_type=wada_type)
    jobs = min(jobs, os.cpu_count() or 1, trials)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(trial, range(trials)))
    else:
        results = list(map(trial, range(trials)))
    mismatches = tuple(payload for _, status, payload in results if status == "mismatch")
    skipped = tuple((i, payload) for i, status, payload in results if status == "skipped")
    return FuzzReport(theory, trials, seed, wada_type, mismatches, skipped)

