"""The move harness: legal moves, determinism, invariance campaigns."""

import os
import random

import pytest

from linkgroups.braid import (
    MAX_STRANDS,
    conjugate,
    normalize,
    parse,
    rho,
    serialize,
    stabilize,
    underlying_permutation,
)
from linkgroups.examples import VIRTUAL_TREFOIL
from linkgroups.homcount import fingerprint
from linkgroups.markov import Move, fuzz, random_move, run_trial
from linkgroups.present import group_of_virtual_link, tietze_simplify


def test_move_examples():
    b = parse(VIRTUAL_TREFOIL, 2, "virtual")
    assert stabilize(b, "positive") == parse(VIRTUAL_TREFOIL + " s2", 3, "virtual")
    assert conjugate(parse("s1", 2, "virtual"), rho(1)) == parse("r1 s1 r1", 2, "virtual")


def test_random_move_produces_legal_words():
    rng = random.Random(3)
    seen = set()
    b = normalize(parse("s1 s2 s1 r2 s1^-1", 3, "virtual"))
    for _ in range(300):
        move, nxt = random_move(b, rng)
        seen.add(move.kind)
        assert nxt.theory == "virtual"
        if move.kind == "exchange":
            assert move.partner is not None
            assert nxt.strands == b.strands + 1
            assert underlying_permutation(move.partner) == underlying_permutation(nxt)
        elif move.kind == "stabilize":
            assert nxt.strands == b.strands + 1
        elif move.kind == "relation":
            assert nxt.strands == b.strands
            assert underlying_permutation(nxt) == underlying_permutation(b)
        else:  # conjugation conjugates the permutation: same cycle type
            from linkgroups.braid import permutation_cycles

            assert nxt.strands == b.strands
            cycles = lambda w: sorted(
                len(c) for c in permutation_cycles(underlying_permutation(w))
            )
            assert cycles(nxt) == cycles(b)
    assert seen == {"relation", "conjugate", "stabilize", "exchange"}


def test_random_move_welded_menu_has_no_exchange():
    rng = random.Random(5)
    b = parse("a1 s2 s1", 3, "welded")  # the mixed relation matches at 0
    kinds = {random_move(b, rng)[0].kind for _ in range(200)}
    assert "exchange" not in kinds
    assert kinds == {"relation", "conjugate", "stabilize"}


def test_relation_moves_preserve_closure_group():
    rng = random.Random(11)
    b = normalize(parse("s1 s2 s1 s1 r2 r1", 3, "virtual"))
    fp = fingerprint(tietze_simplify(group_of_virtual_link(b)).presentation)
    for _ in range(40):
        move, nxt = random_move(b, rng)
        if move.kind in ("relation", "conjugate"):
            got = fingerprint(tietze_simplify(group_of_virtual_link(nxt)).presentation)
            assert got == fp
            b = nxt


def test_fuzz_depth_zero():
    report = fuzz("virtual", 10, 3, 6, 0, seed=1)
    assert report.ok and not report.skipped


def test_fuzz_deterministic():
    a = fuzz("virtual", 15, 4, 8, 4, seed=9)
    b = fuzz("virtual", 15, 4, 8, 4, seed=9)
    assert a.render() == b.render()


def test_fuzz_campaigns_small():
    assert fuzz("virtual", 40, 4, 8, 5, seed=2).ok
    assert fuzz("welded", 40, 4, 8, 5, seed=2).ok
    assert fuzz("welded", 20, 4, 8, 5, seed=2, wada_type=1).ok
    assert fuzz("welded", 20, 4, 8, 5, seed=2, wada_type=2).ok


def test_fuzz_parallel_matches_sequential():
    seq = fuzz("welded", 12, 3, 6, 3, seed=4)
    par = fuzz("welded", 12, 3, 6, 3, seed=4, jobs=2)
    assert seq.render() == par.render()


def test_fuzz_argument_validation():
    with pytest.raises(ValueError):
        fuzz("classical", 1, 3, 5, 2, seed=0)
    with pytest.raises(ValueError):
        fuzz("virtual", 1, 3, 5, 2, seed=0, wada_type=1)
    for trials, strands, length, depth, jobs in (
        (-2, 3, 5, 2, 1), (1, 1, 5, 2, 1), (1, 3, -1, 2, 1), (1, 3, 5, -1, 1),
        (1, 3, 5, 2, 0), (1, 3, 5, 2, -4),
    ):
        with pytest.raises(ValueError, match="must be at least"):
            fuzz("virtual", trials, strands, length, depth, seed=0, jobs=jobs)
    # each move may add a strand, so strands + depth is held to the ceiling
    with pytest.raises(ValueError, match="exceeds the ceiling"):
        fuzz("welded", 1, MAX_STRANDS - 5, 5, 6, seed=0)


def test_fuzz_jobs_clamped_to_trials(inline_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    par = fuzz("welded", 3, 3, 6, 3, seed=4, jobs=10 ** 6)
    assert inline_pool == [3]
    assert par.render() == fuzz("welded", 3, 3, 6, 3, seed=4).render()


def test_trial_reports_are_replayable():
    idx, status, payload = run_trial(3, "virtual", 4, 8, 4, 123, None)
    idx2, status2, payload2 = run_trial(3, "virtual", 4, 8, 4, 123, None)
    assert (idx, status) == (idx2, status2)
    assert status in ("ok", "skipped")


def test_move_render():
    m = Move("stabilize", "positive")
    assert str(m) == "stabilize positive"
