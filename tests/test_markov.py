"""The move harness: legal moves, determinism, invariance campaigns."""

import random
import weakref

import pytest

import linkgroups.freegroup as fg
import linkgroups.markov as markov
from linkgroups.braid import (
    MAX_STRANDS,
    BraidWord,
    conjugate,
    defining_relations,
    normalize,
    parse,
    random_braid_from,
    rho,
    serialize,
    stabilize,
    underlying_permutation,
)
from linkgroups.cli import run
from linkgroups.examples import VIRTUAL_TREFOIL
from linkgroups.homcount import Fingerprint, count_homs, default_battery, fingerprint, make_table
from linkgroups.markov import Mismatch, Move, fuzz, random_move, run_trial
from linkgroups.present import Presentation, closure_group, group_of_virtual_link, tietze_simplify


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


def _scanned_sites(b):
    # the brute-force scan: slide each nonempty side of each defining
    # relation along the whole word and keep its first site
    sites = []
    for rel in defining_relations(b.theory, b.strands):
        for side in (rel.left.letters, rel.right.letters):
            hits = [at for at in range(len(b) - len(side) + 1) if b.letters[at : at + len(side)] == side]
            if side and hits:
                sites.append((rel, hits[0]))
    return sites


def test_relation_sites_match_a_brute_force_scan():
    rng = random.Random(31)
    ends = set()
    for _ in range(3000):
        theory = rng.choice(["virtual", "welded"])
        n = rng.randint(2, 10)
        letters = list(random_braid_from(rng, n, rng.randint(0, 10), theory).letters)
        # splice a relation side in at the start, the end or anywhere; a
        # spliced involution square stays only in a word left unnormalized
        spliced = rng.choice(defining_relations(theory, n))
        side = rng.choice((spliced.left.letters, spliced.right.letters))
        at = rng.choice([0, len(letters), rng.randint(0, len(letters))])
        letters[at:at] = side
        b = BraidWord(n, theory, letters)
        if rng.random() < 0.5:
            b = normalize(b)
        sites = markov._relation_sites(b)
        assert sites == _scanned_sites(b)
        for rel, at in sites:
            if at == 0:
                ends.add("first")
            if b.letters[at:] in (rel.left.letters, rel.right.letters):
                ends.add("last")
            if rel.left.letters[0] == rel.left.letters[1] and b.letters[at : at + 2] == rel.left.letters:
                ends.add("unnormalized square")
    assert ends == {"first", "last", "unnormalized square"}


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


# the reports of 40-trial campaigns on 4 strands, length 10, seed 6
CAMPAIGN_REPORTS = {
    ("virtual", None, 6): "theory=virtual trials=40 seed=6 mismatches=0 skipped=0",
    ("welded", None, 6): "theory=welded trials=40 seed=6 mismatches=0 skipped=0",
    ("welded", 1, 6): "theory=welded wada=1 trials=40 seed=6 mismatches=0 skipped=0",
    ("welded", 2, 6): "theory=welded wada=2 trials=40 seed=6 mismatches=0 skipped=0",
    ("virtual", None, 0): "theory=virtual trials=40 seed=6 mismatches=0 skipped=0",
    ("welded", None, 0): "theory=welded trials=40 seed=6 mismatches=0 skipped=0",
    ("welded", 1, 0): "theory=welded wada=1 trials=40 seed=6 mismatches=0 skipped=0",
    ("welded", 2, 0): "theory=welded wada=2 trials=40 seed=6 mismatches=0 skipped=0",
}


def test_trial_builds_each_run_of_equal_braids_once(monkeypatch):
    built, checked, trials = [], [], [0]
    closure_group, trial = markov.closure_group, markov.run_trial

    def counting_trial(*args):
        trials[0] += 1
        return trial(*args)

    def counting_closure(b, wada_type=None):
        built.append((trials[0], b))
        return closure_group(b, wada_type)

    def checked_fingerprint(p):
        fp = fingerprint(p)
        checked.append((p, fp))
        return fp

    monkeypatch.setattr(markov, "run_trial", counting_trial)
    monkeypatch.setattr(markov, "closure_group", counting_closure)
    monkeypatch.setattr(markov, "fingerprint", checked_fingerprint)
    for (theory, wada_type, depth), report in CAMPAIGN_REPORTS.items():
        built.clear()
        checked.clear()
        assert fuzz(theory, 40, 4, 10, depth, seed=6, wada_type=wada_type).render() == report
        # within a trial, no two consecutive builds are of equal braids
        assert all(a != b for a, b in zip(built, built[1:]))
        assert len(checked) > len(built)
        for p, fp in checked:
            assert fp == fingerprint(Presentation(p.generators, p.relators))


def test_six_strand_campaign_counts_every_trial(monkeypatch):
    # the first presentation with six or more generators in a relator, by
    # trial; at 24^6 assignments each was refused before the battery's cap
    # became 6^k, the sym3 enumeration that all four counts read
    first, trial = {}, [None]
    run_trial, checked = markov.run_trial, markov.fingerprint

    def tracking_trial(i, *args):
        trial[0] = i
        return run_trial(i, *args)

    def tracking_fingerprint(p):
        if len({abs(v) for r in p.relators for v in r.letters}) >= 6:
            first.setdefault(trial[0], p)
        return checked(p)

    monkeypatch.setattr(markov, "run_trial", tracking_trial)
    monkeypatch.setattr(markov, "fingerprint", tracking_fingerprint)
    report = fuzz("virtual", 500, 6, 16, 6, seed=2027)
    assert report.render() == "theory=virtual trials=500 seed=2027 mismatches=0 skipped=0"
    assert sorted(first) == [67, 83, 103, 110, 130, 133, 180, 285, 306, 453, 481, 494]
    # the lifted counts agree with enumerations into equal copies of the battery
    copies = [make_table(g.name, g.table) for g in default_battery()]
    for p in first.values():
        k = len({abs(v) for r in p.relators for v in r.letters})
        want = tuple((g.name, count_homs(p, g, cap=g.order ** k)) for g in copies)
        assert fingerprint(p).counts == want


def test_fuzz_keeps_only_mismatches_and_skips(monkeypatch):
    class Passed:
        pass

    passed = []
    mismatch = Mismatch(3, "end of chain", "a", "b", "trace")

    def fake_trial(i, *args):
        # the result of every earlier passing trial has been let go
        assert all(ref() is None for ref in passed[:-1])
        if i == 3:
            return "mismatch", mismatch
        if i == 7:
            return "skipped", "CapExceeded: too many"
        result = Passed()
        passed.append(weakref.ref(result))
        return "ok", result

    monkeypatch.setattr(markov, "run_trial", fake_trial)
    report = fuzz("welded", 50, 4, 10, 6, seed=1)
    assert report.mismatches == (mismatch,) and report.skipped == ((7, "CapExceeded: too many"),)
    assert len(passed) == 48


def test_fuzz_argument_validation(monkeypatch):
    with pytest.raises(ValueError):
        fuzz("classical", 1, 3, 5, 2, seed=0)
    with pytest.raises(ValueError):
        fuzz("virtual", 1, 3, 5, 2, seed=0, wada_type=1)
    # Wada type 0 is refused, not run as the plain welded campaign
    with pytest.raises(ValueError, match="^Wada type 0 does not induce"):
        fuzz("welded", 2, 4, 10, 2, seed=0, wada_type=0)
    for trials, strands, length, depth in ((-2, 3, 5, 2), (1, 1, 5, 2), (1, 3, -1, 2), (1, 3, 5, -1)):
        with pytest.raises(ValueError, match="must be at least"):
            fuzz("virtual", trials, strands, length, depth, seed=0)
    # each move may add a strand, so strands + depth is held to the ceiling
    with pytest.raises(ValueError, match="exceeds the ceiling"):
        fuzz("welded", 1, MAX_STRANDS - 5, 5, 6, seed=0)
    # a trial draws its braid word whole, so length is held to the word
    # limit, read at call time; with no trials nothing is drawn
    monkeypatch.setattr(fg, "LETTER_LIMIT", 7)
    assert fuzz("welded", 0, 3, 7, 2, seed=0).ok
    with pytest.raises(ValueError, match="length 8 exceeds the word-length limit 7"):
        fuzz("welded", 0, 3, 8, 2, seed=0)


def fault_in_trial(monkeypatch, trial, call):
    """Make markov.fingerprint read one sym3 hom too many at its call-th
    call (from 0) within the given trial, and at no other."""
    current, calls = [None], [0]
    run_trial = markov.run_trial

    def tracking_trial(i, *args):
        current[0], calls[0] = i, 0
        return run_trial(i, *args)

    def faulty_fingerprint(p):
        fp = fingerprint(p)
        if current[0] == trial:
            if calls[0] == call:
                (name, count), *rest = fp.counts
                fp = Fingerprint(fp.abelian, ((name, count + 1), *rest))
            calls[0] += 1
        return fp

    monkeypatch.setattr(markov, "run_trial", tracking_trial)
    monkeypatch.setattr(markov, "fingerprint", faulty_fingerprint)


# trial 3 of the virtual campaign on 3 strands, length 6, depth 3, seed 1
# makes one move, an exchange, so its fingerprints are those of the start
# (call 0), of the braid just before the exchange (1), of the exchange's two
# forms (2 and 3) and of the end (4)
FAULTY_CAMPAIGN = ("virtual", 5, 3, 6, 3)


# a fault before the exchange is checked against the braid the trace
# starts from, and one after it against the exchange's form that it lists
@pytest.mark.parametrize("call, stage, checked", [
    (1, "pre-exchange chain", 0), (3, "exchange pair", 1), (4, "end of chain", 1),
])
def test_a_faulty_fingerprint_is_reported_with_a_replayable_trace(monkeypatch, capsys, call, stage, checked):
    fault_in_trial(monkeypatch, 3, call)
    theory, trials, strands, length, depth = FAULTY_CAMPAIGN
    status, mm = markov.run_trial(3, theory, strands, length, depth, 1, None)
    assert status == "mismatch" and (mm.trial, mm.stage) == (3, stage)
    # the trace names each braid in the grammar that braid.parse reads
    head, *steps = mm.trace.splitlines()
    assert len(steps) == 1 and steps[0].startswith("  exchange side=right cut=4 -> [")
    traced, n, word = (field.split("=", 1)[1] for field in head.split(" ", 2))
    words = [(int(n), word)] + [(int(m), w) for m, w in (s.split(" -> [", 1)[1].split("] ", 1) for s in steps)]
    for m, w in words:
        assert serialize(parse(w, m, traced)) == w
    # the faulty fingerprint is the one reported as got
    m, w = words[checked]
    group = tietze_simplify(closure_group(parse(w, m, traced))).presentation
    assert traced == theory and mm.expected == str(fingerprint(group)) != mm.got
    report = fuzz(theory, trials, strands, length, depth, seed=1)
    assert report.render().splitlines()[:2] == [
        "theory=virtual trials=5 seed=1 mismatches=1 skipped=0",
        f"MISMATCH trial 3 at {stage}: expected {mm.expected}, got {mm.got}",
    ]
    assert report.render().endswith("\n" + mm.trace)
    argv = ["markov-fuzz", "--theory", theory, "--trials", str(trials), "--strands", str(strands),
            "--len", str(length), "--depth", str(depth), "--seed", "1"]
    assert run(argv) == 3
    assert capsys.readouterr().out == report.render() + "\n"


def test_a_refused_count_is_reported_as_a_skip(monkeypatch):
    # every count with a relator is over a cap of 1; trial 3 is the first
    # of this campaign whose simplified group keeps a relator
    monkeypatch.setenv("LINKGROUPS_HOM_CAP", "1")
    report = fuzz("virtual", 4, 3, 6, 3, seed=1)
    assert report.ok and report.render().splitlines() == [
        "theory=virtual trials=4 seed=1 mismatches=0 skipped=1",
        "skipped trial 3: CapExceeded: 6^4 assignments exceed the cap 1",
    ]


def test_trial_reports_are_replayable():
    status, payload = run_trial(3, "virtual", 4, 8, 4, 123, None)
    assert run_trial(3, "virtual", 4, 8, 4, 123, None) == (status, payload)
    assert status in ("ok", "skipped")


def test_move_render():
    m = Move("stabilize", "positive")
    assert str(m) == "stabilize positive"
