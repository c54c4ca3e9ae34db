"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time

from linkgroups import examples, markov
from linkgroups.braid import (
    BraidWord,
    forbidden_relations,
    random_braid_from,
    sigma,
)
from linkgroups.freegroup import Word, YID, abelianized_matrix, format_word
from linkgroups.homcount import _lift_sums
from linkgroups.markov import fuzz
from linkgroups.present import AbelianInvariants, Presentation, abelian_invariants, group_of_virtual_link
from linkgroups.reps import check_relations, project_y, virtual, wada, welded

from oracles import cycle_lengths, mat_identity, mat_mul, perm_of_positions, welded_letters


class Timer:
    def __init__(self, label, bound):
        self.label = label
        self.bound = bound

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.bound, f"{self.label}: {elapsed:.2f}s over the {self.bound}s bound"
            print(f"PASS {self.label} ({elapsed:.2f}s)")
        else:
            print(f"FAIL {self.label} ({elapsed:.2f}s)")
        return False


def passes(check):
    label, ok, detail = check()
    assert ok, f"{label}: {detail}"


def test_criterion_01_representation_suite():
    with Timer("criterion-1 representation suite", 10.0):
        passes(examples.check_representations)
        passes(examples.check_wada_classification)
        passes(examples.check_forbidden_moves)
        for r in check_relations(virtual(3), forbidden_relations(3)):
            if r.relation.name in ("F1", "F2"):
                g, left, right = r.witness
                print(
                    f"  {r.label()} fails: {format_word(Word(left.ambient, (g,)))} maps to "
                    f"{format_word(left)} vs {format_word(right)}"
                )


def test_criterion_02_virtual_trefoil():
    with Timer("criterion-2 virtual trefoil group", 1.0):
        passes(examples.check_virtual_trefoil)


def test_criterion_03_kishino_closure():
    with Timer("criterion-3 kishino closure", 1.0):
        passes(examples.check_kishino_closure)


def test_criterion_04_exchange_pair():
    with Timer("criterion-4 exchange pair", 1.0):
        passes(examples.check_exchange_link)


def test_criterion_05_kishino_braid_nontrivial():
    with Timer("criterion-5 kishino braid image", 1.0):
        passes(examples.check_kishino_braid)


def test_criterion_06_projection_identity():
    with Timer("criterion-6 projection identity (500 braids)", 30.0):
        rng = random.Random(2026)
        for _ in range(500):
            n = rng.randint(2, 4)
            b = random_braid_from(rng, n, rng.randint(0, 12), "virtual")
            w = BraidWord(n, "welded", welded_letters(b.letters))
            assert project_y(virtual(n).evaluate(b)) == welded(n).evaluate(w)


def test_criterion_07_classical_splitting():
    with Timer("criterion-7 classical splitting (100 braids)", 10.0):
        rng = random.Random(808)
        for _ in range(100):
            n = rng.randint(2, 5)
            c = random_braid_from(rng, n, rng.randint(0, 12), "classical")
            p = group_of_virtual_link(BraidWord(n, "virtual", c.letters))
            assert YID in p.generators
            for rel in p.relators:
                assert all(abs(v) != YID for v in rel.letters)


def test_criterion_08_abelianized_wada_power_law():
    with Timer("criterion-8 abelianized Wada powers", 1.0):
        for n, i in ((2, 1), (3, 2)):
            rep = wada(n, 2)
            for t in range(1, 11):
                e = rep.evaluate(BraidWord(n, "welded", (sigma(i),) * t))
                m = abelianized_matrix(e)
                col = [row[i - 1] for row in m]
                expected = [0] * n
                expected[i - 1] = t + 1
                expected[i] = -t
                assert col == expected, f"t={t}"
        for h in (1, 2, 3):
            m = abelianized_matrix(wada(2, 1, h).evaluate(BraidWord(2, "welded", (sigma(1),))))
            assert mat_mul(m, m) == mat_identity(2)  # multiplicative order <= 2


def test_criterion_09_markov_fuzz(monkeypatch):
    # each distinct presentation's first fingerprint, and whether its
    # default battery was served from the memo of lifted sums
    first, fingerprint = {}, markov.fingerprint

    def recording(p):
        hits = _lift_sums.cache_info().hits
        fp = fingerprint(p)
        first.setdefault(p, (fp, _lift_sums.cache_info().hits > hits))
        return fp

    monkeypatch.setattr(markov, "fingerprint", recording)
    _lift_sums.cache_clear()
    with Timer("criterion-9 markov fuzz", 600.0):
        virt = fuzz("virtual", 500, 4, 10, 6, seed=2026)
        assert virt.ok and not virt.skipped, virt.render()
        weld = fuzz("welded", 500, 4, 10, 6, seed=2026)
        assert weld.ok and not weld.skipped, weld.render()
        wada1 = fuzz("welded", 200, 4, 10, 6, seed=2026, wada_type=1)
        assert wada1.ok and not wada1.skipped, wada1.render()
        wada2 = fuzz("welded", 200, 4, 10, 6, seed=2026, wada_type=2)
        assert wada2.ok and not wada2.skipped, wada2.render()
        print(
            f"  virtual skipped={len(virt.skipped)} welded skipped={len(weld.skipped)} "
            f"wada1 skipped={len(wada1.skipped)} wada2 skipped={len(wada2.skipped)}"
        )
    served = sum(hit for _, hit in first.values())
    print(f"  {len(first)} distinct presentations, {served} served from the memo")
    assert served > len(first) // 4
    # the counts served from the memo are those of a count from scratch
    for p, (fp, _) in first.items():
        _lift_sums.cache_clear()
        assert fingerprint(Presentation(p.generators, p.relators)) == fp, p


def test_criterion_10_knot_abelianization():
    with Timer("criterion-10 knot abelianization (20 knots)", 30.0):
        rng = random.Random(515)
        found = 0
        while found < 20:
            n = rng.randint(2, 4)
            b = random_braid_from(rng, n, rng.randint(1, 10), "virtual")
            if cycle_lengths(perm_of_positions([l.pos for l in b.letters], n)) != [n]:
                continue
            found += 1
            assert abelian_invariants(group_of_virtual_link(b)) == AbelianInvariants(2, ())
