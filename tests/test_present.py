"""Presentations: builders, Tietze simplification, SNF, abelianization."""

import importlib.util
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest

import linkgroups.freegroup as fg
from linkgroups import present, reps
from linkgroups.braid import BraidLetter, BraidWord, defining_relations, parse, random_braid_from, rewrite_with_relation
from linkgroups.examples import (
    EXCHANGE_RELATOR,
    KISHINO_CLOSURE,
    KISHINO_IMAGES,
    KISHINO_QUOTIENT_SYM3,
    VIRTUAL_TREFOIL,
)
from linkgroups.freegroup import (
    Ambient,
    Word,
    WordLengthError,
    YID,
    format_word,
    gen_name,
    parse_word,
)
from linkgroups.homcount import _slot_words, builtin_group, count_homs, default_battery, fingerprint, make_table
from linkgroups.markov import fuzz
from linkgroups.present import (
    TIETZE_BUDGET,
    AbelianInvariants,
    Presentation,
    _elimination_key,
    _matmul,
    abelian_invariants,
    closure_group,
    format_presentation,
    free_rank_certificate,
    group_of_classical_link,
    group_of_virtual_link,
    group_of_welded_link,
    parse_presentation,
    quotient_y,
    smith_normal_form,
    tietze_simplify,
    wada_group,
)

from oracles import (
    abelian_labels,
    cycle_lengths,
    exponent_sums,
    mat_det,
    mat_identity,
    mat_mul,
    mat_nullity_mod,
    naive_tietze,
    naive_tietze_step,
    once_key,
    perm_of_positions,
    slot_words,
    split_extension_counts,
    welded_letters,
)


def _ambient(gens):
    # the least ambient holding gens
    return Ambient(max((g for g in gens if g != YID), default=0), YID in gens)


def P(gen_names, relator_texts):
    gens = tuple(YID if n == "y" else int(n[1:]) for n in gen_names)
    amb = _ambient(gens)
    return Presentation(gens, [parse_word(t, amb) for t in relator_texts])


def _checked(gens, relators):
    # a presentation of letter tuples, built by the checking constructor
    amb = _ambient(gens)
    return Presentation(gens, [Word(amb, r) for r in relators])


# --- builders ---------------------------------------------------------------


def test_virtual_group_of_unknot():
    p = group_of_virtual_link(BraidWord(1, "virtual", ()))
    assert [format_word(Word(p.ambient, (g,))) for g in p.generators] == ["x1", "y"]
    assert p.relators == ()
    assert free_rank_certificate(p) == 2


def test_virtual_group_of_trefoil():
    p = group_of_virtual_link(parse(VIRTUAL_TREFOIL, 2, "virtual"))
    assert len(p.relators) == 2
    res = tietze_simplify(p)
    simp = res.presentation
    assert not res.exhausted
    assert len(simp.generators) == 2 and len(simp.relators) == 1
    # the surviving relator is the commutator of x and w = y x y^-2 x y,
    # up to rotation and inversion
    amb = simp.ambient
    (x_gen,) = [g for g in simp.generators if g != YID]
    x = Word(amb, (x_gen,))
    y = Word(amb, (YID,))
    w = y * x * (~y) ** 2 * x * y
    comm = x * w * ~x * ~w
    rel = simp.relators[0].letters

    def rotations(t):
        return [t[i:] + t[:i] for i in range(max(len(t), 1))]

    assert rel in rotations(comm.letters) or rel in rotations((~comm).letters)


def test_virtual_group_of_kishino_closure():
    b = parse(KISHINO_CLOSURE, 3, "virtual")
    p = group_of_virtual_link(b)
    assert len(p.relators) == 3
    amb = p.ambient
    for i, rel in zip((1, 2, 3), p.relators):
        expected = Word(amb, (-i,)) * parse_word(KISHINO_IMAGES[i], amb)
        assert rel == expected.cyclic_reduce()[0]
    assert free_rank_certificate(p) == 2


def test_group_theory_mismatches():
    with pytest.raises(ValueError):
        group_of_virtual_link(parse("s1", 2, "classical"))
    with pytest.raises(ValueError):
        group_of_welded_link(parse("s1", 2, "virtual"))
    with pytest.raises(ValueError):
        group_of_classical_link(parse("s1 r1", 2, "virtual"))


def test_welded_group_of_empty():
    p = group_of_welded_link(BraidWord(1, "welded", ()))
    assert abelian_invariants(p) == AbelianInvariants(1, ())


def test_welded_group_matches_y_quotient():
    b = parse(VIRTUAL_TREFOIL, 2, "virtual")
    lhs = quotient_y(group_of_virtual_link(b))
    rhs = group_of_welded_link(BraidWord(2, "welded", welded_letters(b.letters)))
    assert fingerprint(lhs) == fingerprint(rhs)


def test_welded_group_of_classical_trefoil_word():
    p = group_of_welded_link(parse("s1 s1 s1", 2, "welded"))
    assert abelian_invariants(p) == AbelianInvariants(1, ())
    assert count_homs(p, builtin_group("sym3")) == 12


def test_classical_groups():
    unknot = group_of_classical_link(BraidWord(1, "classical", ()))
    assert abelian_invariants(unknot) == AbelianInvariants(1, ())
    hopf = group_of_classical_link(parse("s1 s1", 2, "classical"))
    assert abelian_invariants(hopf) == AbelianInvariants(2, ())
    trefoil = group_of_classical_link(parse("s1 s1 s1", 2, "classical"))
    assert abelian_invariants(trefoil) == AbelianInvariants(1, ())


def test_wada_group_examples():
    empty = BraidWord(2, "welded", ())
    p = wada_group(empty, 2)
    assert p.relators == () and len(p.generators) == 2

    p = wada_group(parse("s1", 2, "welded"), 2)
    res = tietze_simplify(p)
    assert len(res.presentation.generators) == 1 and not res.presentation.relators

    p = wada_group(parse("a1", 2, "welded"), 1)
    res = tietze_simplify(p)
    assert len(res.presentation.generators) == 1 and not res.presentation.relators


def test_closure_group_matches_each_builder():
    for text, n, theory, build in (
        ("s1 s2^-1 s1", 3, "classical", group_of_classical_link),
        ("s1 r2 s1^-1 s2", 3, "virtual", group_of_virtual_link),
        ("s1 a2 s1^-1 s2", 3, "welded", group_of_welded_link),
    ):
        b = parse(text, n, theory)
        assert closure_group(b) == build(b)
    w = parse("s1 a2 s1^-1 s2", 3, "welded")
    assert closure_group(w, 1, 2) == wada_group(w, 1, 2) != closure_group(w)
    assert closure_group(w, 2) == wada_group(w, 2) != closure_group(w)
    # h is the conjugation power of wada1 alone, and at least 1
    for wada_type, h in ((None, 0), (None, 2), (1, 0), (2, 2)):
        with pytest.raises(ValueError, match="conjugation power"):
            closure_group(w, wada_type, h)


def _int_parameters():
    """(name, least, call) for each integer parameter of the library, where
    call(v) passes v as that parameter and valid values for the rest."""
    w = parse("s1 a2 s1^-1 s2", 3, "welded")
    p = closure_group(w)
    free = Presentation((1, 2), [])  # counted at any cap
    b = parse("s1 s2 s1", 3, "virtual")
    braid_rel = next(r for r in defining_relations("virtual", 3) if r.label() == "braid(1)")
    sizes = {"trials": 1, "strands": 3, "length": 5, "depth": 2, "seed": 0}
    cases = [
        ("strand count", 1, lambda v: BraidWord(v, "welded", ())),
        ("strand count", 1, lambda v: reps.representation("welded", v)),
        ("budget", 0, lambda v: tietze_simplify(p, v)),
        ("the hom-count cap (--cap)", 1, lambda v: count_homs(free, builtin_group("sym3"), cap=v)),
        ("the hom-count cap (--cap)", 1, lambda v: fingerprint(free, cap=v)),
        ("at", 0, lambda v: rewrite_with_relation(b, braid_rel, v)),
        ("strands", 2, lambda v: random_braid_from(random.Random(0), v, 3, "virtual")),
        ("length", 0, lambda v: random_braid_from(random.Random(0), 3, v, "virtual")),
    ]
    for wada_type in (None, 1, 2):
        cases.append(("conjugation power h", 1, lambda v, k=wada_type: closure_group(w, k, v)))
    for name, least in (("trials", 0), ("strands", 2), ("length", 0), ("depth", 0), ("seed", 0)):
        cases.append((name, least, lambda v, name=name: fuzz("virtual", **{**sizes, name: v})))
    return cases


@pytest.mark.parametrize("bad", [2.5, float("nan"), True, "2", float("inf")], ids=repr)
def test_integer_parameters_refuse_non_ints(bad):
    # every integer parameter must be an int: a float, NaN or infinity is
    # not compared, ranged over or multiplied, nor True read as 1, even
    # where the representation of 1 is cached
    w = parse("s1 a2 s1^-1 s2", 3, "welded")
    for wada_type in (1, 2):
        closure_group(w, wada_type)
    reps.representation("welded", 1)
    got = re.escape(repr(bad))
    for name, _, call in _int_parameters():
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an int, got {got}$"):
            call(bad)
    for wada_type_call in (lambda: closure_group(w, bad),
                           lambda: fuzz("welded", 1, 3, 5, 2, seed=0, wada_type=bad)):
        with pytest.raises(ValueError, match=f"^Wada type must be an int, got {got}$"):
            wada_type_call()
    # a power's exponent is an int of any sign, so it has no least value
    with pytest.raises(ValueError, match=f"^exponent must be an int, got {got}$"):
        Word(Ambient(2), (1, 2)) ** bad


def test_integer_parameters_refuse_values_below_least():
    # one message for each; a negative index is not read from the end of
    # the word, nor a negative fuzz seed as its absolute value
    for name, least, call in _int_parameters():
        call(least)
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be at least {least}, got {least - 1}$"):
            call(least - 1)
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be at least {least}, got -4$"):
            call(-4)


# (theory, wada type, h, representation) of every closure action
_CLOSURE_ACTIONS = (
    ("classical", None, 1, "artin"),
    ("virtual", None, 1, "virtual"),
    ("welded", None, 1, "welded"),
    ("welded", 1, 1, "wada1"),
    ("welded", 1, 2, "wada1"),
    ("welded", 2, 1, "wada2"),
)


def _seeded_closures():
    """(b, wada type, h, representation) for seeded braids of every action."""
    rng = random.Random(17)
    for theory, wada_type, h, name in _CLOSURE_ACTIONS:
        for _ in range(15):
            n = rng.randint(2, 5)
            b = random_braid_from(rng, n, rng.randint(0, 12), theory)
            yield b, wada_type, h, reps.representation(name, n, h)


def test_closure_group_matches_the_checking_constructor():
    # the builders skip Presentation's checks; they must agree with it, and
    # every Tietze result, final or best seen, must carry the exponent sums,
    # the ambient and the invariants.  Every presentation carries its sums
    # from where it is built: the closures of every family, the checking
    # constructor, the text and JSON parsers and quotient_y
    steps = exhausted = 0
    for b, wada_type, h, rep in _seeded_closures():
        images = rep.evaluate(b).images
        amb = rep.ambient
        expected = Presentation(amb.gens(), [Word(amb, (-i,)) * images[i] for i in range(1, b.strands + 1)])
        p = closure_group(b, wada_type, h)
        assert (p.generators, p.relators, p.ambient) == (expected.generators, expected.relators, expected.ambient)
        _assert_sums_carried(p)
        built = [expected] + [parse_presentation(format_presentation(p, form)) for form in (False, True)]
        built += [quotient_y(p)] if YID in p.generators else []
        for q in built:
            assert q._sums == _sums(q), rep.name
        for budget in _BUDGETS:
            res = tietze_simplify(p, budget)
            _assert_result_carries(p, res)
            steps += res.steps
            exhausted += res.exhausted
    assert steps > 250 and exhausted > 40


def test_closure_sums_are_the_braid_permutation():
    # under a conjugating action strand i's relator abelianizes to
    # x_pi(i) - x_i, pi the braid's permutation, and is zero where pi fixes
    # i; wada2's relators have no such form, and their sums are counted
    rng = random.Random(59)
    moved = fixed = 0
    for theory, wada_type, h, name in _CLOSURE_ACTIONS:
        for _ in range(70):
            n = rng.randint(2, 9)
            b = random_braid_from(rng, n, rng.randint(0, 30), theory)
            p = closure_group(b, wada_type, h)
            m = _matrix(p)
            if name == "wada2":
                assert m == [exponent_sums(r.letters, p.generators) for r in p.relators]
                continue
            pi = perm_of_positions([l.pos for l in b.letters], n)
            moves = [(i, pi[i - 1]) for i in range(1, n + 1) if pi[i - 1] != i]
            want = [[(g == t) - (g == i) for g in p.generators] for i, t in moves]
            assert [row for row in m if any(row)] == want, (name, b)
            moved += len(want)
            fixed += len(m) - len(want)
    assert moved > 1000 and fixed > 50


def test_closure_relator_is_held_to_the_word_limit(monkeypatch):
    # x_i^-1 * image is counted before cancellation: at a limit of the
    # longest image the relator is one letter over, one higher it is built
    checked = 0
    for b, wada_type, h, rep in _seeded_closures():
        monkeypatch.undo()
        longest = max(len(w) for w in rep.evaluate(b).images.values())
        monkeypatch.setattr(fg, "LETTER_LIMIT", longest)
        try:
            rep.evaluate(b)
        except WordLengthError:
            continue  # a substitution in evaluate is already over
        with pytest.raises(WordLengthError, match=f"^{longest + 1} letters exceeds limit {longest}$"):
            closure_group(b, wada_type, h)
        monkeypatch.setattr(fg, "LETTER_LIMIT", longest + 1)
        closure_group(b, wada_type, h)
        checked += 1
    assert checked >= 30


@pytest.mark.parametrize("structured", [False, True], ids=["text", "json"])
def test_parsed_relators_are_held_to_the_word_limit(monkeypatch, structured):
    # a parsed relator is counted as written, before it cancels: at a limit
    # of 5 the 6-letter relator is refused, though it reduces to 4 letters
    monkeypatch.setattr(fg, "LETTER_LIMIT", 5)

    def parsed(relator):
        if structured:
            return parse_presentation(json.dumps({"generators": ["x1", "x2"], "relators": [relator]}))
        return parse_presentation(f"gens: x1 x2\nrel: {relator}\n")

    assert parsed("x1 x2 x2^-1 x1 x1") == P(["x1", "x2"], ["x1 x1 x1"])
    with pytest.raises(WordLengthError, match="^6 letters exceeds limit 5$"):
        parsed("x1 x2 x2^-1 x1 x1 x1")


def test_wada_group_rejects_types_3_and_4():
    b = parse("s1", 2, "welded")
    for k in (3, 4):
        with pytest.raises(ValueError, match="mixed relation"):
            wada_group(b, k)
    # type 0 is refused too, not read as "no Wada type"
    with pytest.raises(ValueError, match="^Wada type 0 does not induce"):
        closure_group(b, 0)


def test_classical_virtual_groups_have_y_free_relators():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(2, 5)
        b = random_braid_from(rng, n, rng.randint(0, 10), "classical")
        p = group_of_virtual_link(BraidWord(n, "virtual", b.letters))
        assert len(p.relators) <= n
        for rel in p.relators:
            assert all(abs(v) != YID for v in rel.letters)


# --- quotient ---------------------------------------------------------------


def test_quotient_y_examples():
    p = P(["x1", "y"], [])
    q = quotient_y(p)
    assert q.generators == (1,) and q.relators == ()

    trefoil = group_of_virtual_link(parse(VIRTUAL_TREFOIL, 2, "virtual"))
    q = quotient_y(trefoil)
    assert abelian_invariants(q) == AbelianInvariants(1, ())

    kishino = group_of_virtual_link(parse(KISHINO_CLOSURE, 3, "virtual"))
    q = quotient_y(kishino)
    assert abelian_invariants(q) == AbelianInvariants(1, ())
    assert count_homs(q, builtin_group("sym3")) == KISHINO_QUOTIENT_SYM3

    with pytest.raises(ValueError):
        quotient_y(q)


# --- Tietze -----------------------------------------------------------------


def test_tietze_eliminates_single_occurrence():
    p = P(["x1", "x2", "y"], [EXCHANGE_RELATOR])
    res = tietze_simplify(p)
    assert not res.exhausted
    assert len(res.presentation.generators) == 2
    assert res.presentation.relators == ()


def test_tietze_fixpoint_unchanged():
    p = P(["x1", "x2"], ["x1 x2 x1^-1 x2^-1"])  # no generator occurs once
    res = tietze_simplify(p)
    assert res.presentation is p and res.steps == 0


def test_tietze_budget_exhaustion():
    p = group_of_virtual_link(parse(VIRTUAL_TREFOIL, 2, "virtual"))
    res = tietze_simplify(p, budget=1)
    assert res.exhausted
    assert res.presentation.total_letters() >= 1
    with pytest.raises(ValueError, match="at least 0"):
        tietze_simplify(p, budget=-5)


def test_nan_budget_is_refused():
    # NaN compares false both ways: a budget < 0 test passed it, and the
    # budget was never exhausted; it is refused as no int
    p = group_of_virtual_link(parse(VIRTUAL_TREFOIL, 2, "virtual"))
    with pytest.raises(ValueError, match="^budget must be an int, got nan$"):
        tietze_simplify(p, budget=float("nan"))


# eliminating x1 from m relators x1^1000 x2^-i makes each about 999000
# letters long, far past the budget: the result is the input, exhausted
_STEP_PAST_THE_BUDGET = """
import resource
from linkgroups.freegroup import Ambient, Word
from linkgroups.present import Presentation, tietze_simplify
x1, x2 = Word(Ambient(2), (1,)), Word(Ambient(2), (2,))
p = Presentation((1, 2), [~x1 * x2 ** 999] + [x1 ** 1000 * x2 ** -i for i in range(1, 9)])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
res = tietze_simplify(p)
grew = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
assert (res.presentation, res.exhausted, res.steps) == (p, True, 1), res
print(grew)
"""


def test_a_tietze_step_stops_once_its_result_is_fixed():
    # the step stops at the first long relator, before joining it; finishing
    # the step raised the process's peak RSS by tens of MB (ru_maxrss, in KB)
    src = pathlib.Path(present.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _STEP_PAST_THE_BUDGET], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert int(out.stdout) < 4096


@pytest.mark.parametrize("budget", [0, TIETZE_BUDGET])
def test_a_tietze_step_past_the_letter_limit_returns_the_best_state(budget):
    # eliminating x1 would substitute 1001000 letters into x1^1001, which
    # raised WordLengthError; its exponent sums show the step is past the
    # budget before that word is built
    x1, x2 = Word(Ambient(2), (1,)), Word(Ambient(2), (2,))
    p = Presentation((1, 2), [~x1 * x2 ** 1000, x1 ** 1001])
    res = tietze_simplify(p, budget)
    assert (res.presentation, res.exhausted, res.steps) == (p, True, 1)


def test_tietze_deterministic_scan_order():
    # two eliminable generators in one relator: the lowest index goes first
    p = P(["x1", "x2"], ["x2^-1 x1"])
    res = tietze_simplify(p)
    assert res.steps == 1
    assert res.presentation.generators == (2,)
    assert res.presentation.relators == ()


def _sums(p):
    # each relator's nonzero exponent sums, from oracles.exponent_sums
    gens = p.generators
    return tuple({g: e for g, e in zip(gens, exponent_sums(r.letters, gens)) if e} for r in p.relators)


def _matrix(p):
    # the relation matrix, read from the exponent sums p carries
    return [[e.get(g, 0) for g in p.generators] for e in p._sums]


def _assert_sums_carried(p):
    # the exponent sums a build or Tietze result carries, and the slot
    # words homcount counts on first use
    assert p._sums == _sums(p)
    assert _slot_words(p) == slot_words(p.generators, [r.letters for r in p.relators])


_BUDGETS = (0, 10, 40, TIETZE_BUDGET)


def _assert_result_carries(p, res):
    # a Tietze result, final or the best seen on a run out of budget,
    # carries its sums, its ambient and the invariants p carries
    q = res.presentation
    _assert_sums_carried(q)
    assert q.ambient == _ambient(q.generators)
    assert all(r.ambient == q.ambient for r in q.relators)
    assert q._invariants is p._invariants


def test_elimination_key_matches_the_counting_oracle():
    # the key looks only at generators with exponent sum +-1 and checks
    # each for its inverse letter; the oracle counts every generator.
    # Sparse ids and y, and words that are not reduced, so that a
    # generator of sum +-1 can occur three times.  The key is the oracle's
    # (len, (is y, id)) without the flag: YID is above every x id
    rng = random.Random(67)
    words = [(1, 1, -1, 2), (1, 1, -1), (YID, 3, -YID, YID), ()]
    for _ in range(3000):
        gens = rng.sample([1, 2, 3, 5, 8, 13, YID], rng.randint(1, 4))
        words.append(tuple(rng.choice(gens) * rng.choice((1, -1)) for _ in range(rng.randint(1, 10))))
    found = none = 0
    for w in words:
        count = Counter(w)
        sums = {g: e for g in {abs(v) for v in w} if (e := count[g] - count[-g])}
        want = once_key(w, YID)
        assert _elimination_key(w, sums) == (want and (want[0], want[1][1])), w
        found += want is not None
        none += want is None
    assert _elimination_key((1, 1, -1, 2), {1: 1, 2: 1}) == (4, 2)
    assert found > 1000 and none > 500


def test_tietze_steps_preserve_fingerprint():
    rng = random.Random(41)
    battery = default_battery()
    steps = 0
    for _ in range(200):
        ngens = rng.randint(2, 3)
        has_y = rng.random() < 0.5
        names = [f"x{i}" for i in range(1, ngens + 1)] + (["y"] if has_y else [])
        gens = tuple(
            YID if n == "y" else int(n[1:]) for n in names
        )
        amb = Ambient(ngens, has_y)
        pool = [g for g in gens] + [-g for g in gens]
        relators = [
            Word(amb, [rng.choice(pool) for _ in range(rng.randint(1, 8))])
            for _ in range(rng.randint(1, 3))
        ]
        p = Presentation(gens, relators)
        fp = fingerprint(p, battery)
        # each state of the oracle's eliminations, built by the checking
        # constructor, then the package's result
        current = (gens, [r.letters for r in p.relators])
        while (current := naive_tietze_step(*current, YID)) is not None:
            assert fingerprint(_checked(*current), battery) == fp
            steps += 1
        res = tietze_simplify(p)
        assert fingerprint(res.presentation, battery) == fp
        _assert_result_carries(p, res)
    assert steps > 200


def _oracle_cases():
    # random generator orders and sparse ids, so eliminating the highest x
    # or y shrinks the ambient; small budgets make some runs exhaust
    rng = random.Random(83)
    for _ in range(200):
        gens = tuple(rng.sample([1, 2, 3, 4, 5, 6, YID], rng.randint(1, 6)))
        pool = [v for g in gens for v in (g, -g)]
        raw = [[rng.choice(pool) for _ in range(rng.randint(0, 12))] for _ in range(rng.randint(0, 6))]
        budget = rng.choice([0, 10, 40, TIETZE_BUDGET])
        yield gens, raw, _checked(gens, raw), budget


def test_tietze_matches_the_rebuild_everything_oracle():
    exhausted = 0
    for gens, raw, p, budget in _oracle_cases():
        res = tietze_simplify(p, budget)
        got = (res.presentation.generators, [r.letters for r in res.presentation.relators])
        assert got + (res.exhausted, res.steps) == naive_tietze(gens, raw, budget, YID)
        _assert_result_carries(p, res)
        exhausted += res.exhausted
    assert 20 <= exhausted <= 180


def _invariants_long_groups(seeds=range(1, 41)):
    # perfbench/workloads.py draws the benchmark's invariants-long braids;
    # it is loaded read-only, by path
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    builders = {"classical": group_of_classical_link, "virtual": group_of_virtual_link,
                "welded": group_of_welded_link}
    for seed in seeds:
        theory, strands, letters = wl.invariant_braid(seed)
        yield builders[theory](BraidWord(strands, theory, [BraidLetter(*l) for l in letters]))


def test_seven_generator_long_braids_count_within_the_cap():
    # the invariants-long braids among seeds 1-150 whose simplified group
    # has 7 generators in its relators: 24^7 exceeds the default cap, 6^7
    # does not, so the battery counts them all from the sym3 lift
    seeds = (16, 76, 82, 86, 89, 92, 96, 100)
    copies = [make_table(g.name, g.table) for g in default_battery()[:2]]
    for p in _invariants_long_groups(seeds):
        p = tietze_simplify(p).presentation
        assert len({abs(v) for r in p.relators for v in r.letters}) == 7
        counts = dict(fingerprint(p).counts)
        for g in copies:
            assert counts[g.name] == count_homs(p, g, cap=g.order ** 7)
        # the Fox-Jacobian oracle checks sym3, dihedral4 and alt4
        assert split_extension_counts(p.generators, [r.letters for r in p.relators]).items() <= counts.items()


def test_split_extension_oracle_counts_seeded_closures():
    # every closure action, after Tietze, and every fifth closure as built
    # too; the oracle shares no code with the package
    rng = random.Random(1953)
    for theory, wada_type, h, _ in _CLOSURE_ACTIONS:
        for i in range(100):
            b = random_braid_from(rng, rng.randint(2, 5), rng.randint(0, 12), theory)
            p = closure_group(b, wada_type, h)
            forms = [tietze_simplify(p).presentation] + ([p] if i % 5 == 0 else [])
            for q in forms:
                counts = split_extension_counts(q.generators, [r.letters for r in q.relators])
                assert counts.items() <= set(fingerprint(q).counts), (theory, wada_type, h, b)


def test_tietze_matches_the_oracle_on_long_braids():
    # the invariants-long groups, longer than _oracle_cases' presentations,
    # against the rebuild-everything oracle at each budget
    exhausted = steps = 0
    for p in _invariants_long_groups():
        raw = [r.letters for r in p.relators]
        for budget in _BUDGETS:
            res = tietze_simplify(p, budget)
            got = (res.presentation.generators, [r.letters for r in res.presentation.relators])
            assert got + (res.exhausted, res.steps) == naive_tietze(p.generators, raw, budget, YID)
            exhausted += res.exhausted
            steps += res.steps
    assert exhausted > 60 and steps > 120


def test_tietze_steps_carry_exponent_sums_on_long_braids():
    # the results, final and best seen, of the invariants-long groups
    results = 0
    for p in _invariants_long_groups():
        _assert_sums_carried(p)
        assert p._invariants is not None
        for budget in _BUDGETS:
            res = tietze_simplify(p, budget)
            _assert_result_carries(p, res)
            results += res.steps > 0
    assert results > 100


def _fuzz_sized_closures():
    # welded, wada1 and wada2 closures of the size the welded fuzz trials
    # build: 2-6 strands, at most 10 letters
    rng = random.Random(97)
    for wada_type in (None, 1, 2):
        for _ in range(60):
            b = random_braid_from(rng, rng.randint(2, 6), rng.randint(0, 10), "welded")
            yield closure_group(b, wada_type)


def _contents(p):
    # what a presentation reads, with a copy of each sum dict
    return p.generators, p.relators, p._sums, [dict(e) for e in p._sums], p._invariants


def test_tietze_leaves_its_input_alone():
    # Tietze updates its relator, sum and key lists in place: the input's
    # tuples and sum dicts must read the same after each call, two calls
    # must agree, and the fuzz-sized closures must match the oracle
    steps, exhausted = Counter(), Counter()
    cases = [(True, p) for p in _fuzz_sized_closures()] + [(False, p) for p in _invariants_long_groups()]
    for small, p in cases:
        before = _contents(p)
        for budget in _BUDGETS:
            res, again = tietze_simplify(p, budget), tietze_simplify(p, budget)
            assert _contents(p) == before
            q, r = res.presentation, again.presentation
            assert (q, q._sums, q._invariants, res.steps, res.exhausted) == (r, r._sums, r._invariants, again.steps, again.exhausted)
            if small:
                raw = [w.letters for w in p.relators]
                got = (q.generators, [w.letters for w in q.relators], res.exhausted, res.steps)
                assert got == naive_tietze(p.generators, raw, budget, YID)
            steps[small] += res.steps
            exhausted[small] += res.exhausted
    assert steps[True] > 600 and exhausted[True] > 100
    assert steps[False] > 120 and exhausted[False] > 60


def test_free_rank_certificate():
    assert free_rank_certificate(P(["x1", "y"], [])) == 2
    assert free_rank_certificate(P(["x1"], ["x1 x1"])) is None
    vt = group_of_virtual_link(parse(VIRTUAL_TREFOIL, 2, "virtual"))
    assert free_rank_certificate(vt) is None


# --- presentation type ------------------------------------------------------


def test_presentation_drops_trivial_and_cyclically_reduces():
    amb = Ambient(2, False)
    p = Presentation((1, 2), [Word(amb, ()), Word(amb, (-2, 1, 2))])
    assert len(p.relators) == 1
    assert p.relators[0] == Word(amb, (1,))


def test_presentation_validation():
    amb = Ambient(3, False)
    with pytest.raises(ValueError):
        Presentation((1, 2), [Word(amb, (3,))])
    with pytest.raises(ValueError):
        Presentation((1, 1), [])
    # every letter is checked, not only those of the cyclic core: x2 x1 x2^-1
    # reduces to x1, and parse_presentation refuses the same relator
    with pytest.raises(ValueError, match="relator uses unknown generator x2$"):
        Presentation((1, 3), [Word(amb, (2, 1, -2))])
    with pytest.raises(ValueError, match="relator uses unknown generator x2$"):
        parse_presentation("gens: x1 x3\nrel: x2 x1 x2^-1\n")


def test_presentation_text_round_trip():
    p = group_of_virtual_link(parse(VIRTUAL_TREFOIL, 2, "virtual"))
    for structured in (False, True):
        text = format_presentation(p, structured=structured)
        assert parse_presentation(text) == p
    sparse = P(["x3", "y"], ["x3 y x3^-1 y^-1"])
    assert parse_presentation(format_presentation(sparse)) == sparse


def test_generator_ids_name_x_k_or_y():
    # an id the text form cannot write back (x0, x-1, x1.5, xTrue) is refused
    for bad in (0, -1, YID + 1, 1.5, True):
        with pytest.raises(ValueError) as exc:
            Presentation((bad,))
        assert str(exc.value) == f"bad generator id {bad!r}: ids are ints 1 .. {YID - 1}, or YID = {YID}"
    sparse = Presentation((2, 5, YID), [parse_word("x5 y x2^-1 x5", Ambient(5, True))])
    for structured in (False, True):
        q = parse_presentation(format_presentation(sparse, structured=structured))
        assert q == sparse and q.ambient == sparse.ambient


def test_parsing_builds_what_the_checking_constructor_builds():
    # relators as written, unreduced and possibly trivial
    for gens, raw, p, _ in _oracle_cases():
        rels = [" ".join(gen_name(abs(v)) + ("^-1" if v < 0 else "") for v in r) or "1" for r in raw]
        text = "".join([f"gens: {' '.join(map(gen_name, gens))}\n"] + [f"rel: {r}\n" for r in rels])
        q = parse_presentation(text)
        assert q == p and q.ambient == p.ambient


def test_parsing_a_large_generator_index_allocates_little():
    # each letter is checked against the listed generators, not against a
    # set of every letter up to the largest index
    tracemalloc.start()
    try:
        p = parse_presentation("gens: x2000000\nrel: x2000000 x2000000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.letters for r in p.relators] == [(2000000, 2000000)]
    assert peak < 10 * 2 ** 20


# --- matrices ---------------------------------------------------------------


def test_relation_matrix_examples():
    p = P(["x1"], ["x1 x1"])
    assert _matrix(p) == [[2]]
    p = P(["x1", "x2"], ["x1 x2 x1^-1 x2^-1"])
    assert _matrix(p) == [[0, 0]]
    vt = group_of_virtual_link(parse(VIRTUAL_TREFOIL, 2, "virtual"))
    m = _matrix(vt)
    assert m == [exponent_sums(r.letters, vt.generators) for r in vt.relators]
    assert len(m) == 2 and all(len(row) == 3 for row in m)
    assert all(row[2] == 0 for row in m)  # y column vanishes
    snf = smith_normal_form(m)
    assert sum(1 for d in snf.diagonal if d) <= 1


def test_smith_normal_form_examples():
    snf = smith_normal_form(mat_identity(2))
    assert snf.diagonal == (1, 1)
    snf = smith_normal_form([[2, 4], [6, 8]])
    assert snf.diagonal == (2, 4)
    snf = smith_normal_form([[0, 0], [0, 0]])
    assert snf.diagonal == (0, 0)
    # one input for each path of the division loop: a remainder that
    # becomes the pivot, in column t and in row t; a pivot that does not
    # divide a later row; a zero pivot before a nonzero block; negative pivots
    for m, diagonal in [
        ([[4], [6]], (2,)),
        ([[6, 4, 9]], (1,)),
        ([[2, 0], [0, 3]], (1, 6)),
        ([[0, 0], [0, 5]], (5, 0)),
        ([[0, 0, 0], [0, 0, 0], [0, 4, 0]], (4, 0, 0)),
        ([[-3, 0], [0, -6]], (3, 6)),
    ]:
        snf = smith_normal_form(m)
        assert snf.diagonal == diagonal, m
        assert mat_mul(mat_mul(snf.U, m), snf.V) == snf.D
    with pytest.raises(ValueError, match="ragged"):
        smith_normal_form([[1, 2], [3]])


def _dense_matrix(b):
    """A seeded dense 40 x 40 matrix with entries in [-b, b]."""
    rng = random.Random(40 * 1000 + b)
    return [[rng.randint(-b, b) for _ in range(40)] for _ in range(40)]


def test_smith_normal_form_matches_sympy():
    """The diagonal agrees with sympy's invariant factors, an independent
    implementation, on square and non-square shapes up to 10 x 10 with zero
    rows and entries up to 12 or 1000, and on the dense 40 x 40 matrices."""
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(14)
    nonunit = 0
    for _ in range(200):
        r, c = rng.randint(1, 10), rng.randint(1, 10)
        # some zeros, and entries mostly small, so nontrivial divisors occur,
        # or up to 1000, so long chains of remainders do
        big = rng.choice((12, 12, 1000))
        m = [[rng.choice((0, 0, rng.randint(-big, big))) for _ in range(c)] for _ in range(r)]
        for i in rng.sample(range(r), rng.randint(0, r // 2)):
            m[i] = [0] * c
        expected = tuple(int(d) for d in invariant_factors(Matrix(m), domain=ZZ))
        assert smith_normal_form(m).diagonal == expected, m
        nonunit += any(d > 1 for d in expected)
    assert nonunit >= 50
    for b in (1, 9):
        m = _dense_matrix(b)
        expected = tuple(int(d) for d in invariant_factors(Matrix(m), domain=ZZ))
        assert smith_normal_form(m).diagonal == expected, b


def test_smith_normal_form_entries_stay_small_on_dense_matrices():
    """U and V keep entries of at most 10 000 bits on dense 40 x 40
    matrices.  Least-pivot division steps give under 2 000 bits here, so
    the bound leaves fivefold room; Bezout steps with no pivot choice give
    about 650 000 bits and take seconds, which the bound catches.  The
    abelian hom count reads the same Smith form: into c6 it is the kernel
    size of the relation matrix mod 2 times that mod 3."""
    for b in (1, 9):
        m = _dense_matrix(b)
        snf = smith_normal_form(m)
        assert mat_mul(mat_mul(snf.U, m), snf.V) == snf.D
        assert max(abs(x).bit_length() for a in (snf.U, snf.V) for row in a for x in row) <= 10_000
    m = _dense_matrix(1)
    gens = [f"x{j}" for j in range(1, 41)]
    p = P(gens, [" ".join(g + ("^-1" if e < 0 else "") for g, e in zip(gens, row) if e) for row in m])
    assert [exponent_sums(r.letters, p.generators) for r in p.relators] == m
    expected = 2 ** mat_nullity_mod(m, 2) * 3 ** mat_nullity_mod(m, 3)
    assert count_homs(p, builtin_group("c6")) == expected


def test_smith_normal_form_checks_its_factorization(monkeypatch):
    """The closing U m V = D check runs: with a wrong product it refuses."""
    assert smith_normal_form([[2, 4], [6, 8]]).diagonal == (2, 4)
    matmul = present._matmul
    monkeypatch.setattr(present, "_matmul", lambda a, b: [[2 * x for x in row] for row in matmul(a, b)])
    with pytest.raises(AssertionError, match="^smith normal form verification failed$"):
        smith_normal_form([[2, 4], [6, 8]])


def test_cyclic_family_abelianizes_to_its_closed_form():
    """<x1..xn | x_i x_(i+1)^2>, indices mod n, abelianizes to the cyclic
    group of order |det(I + 2 shift)| = |1 - (-2)^n|: the minor without the
    last relator and the last generator is unitriangular."""
    for n in range(1, 61):
        gens = " ".join(f"x{i}" for i in range(1, n + 1))
        rels = "".join(f"rel: x{i} x{i % n + 1} x{i % n + 1}\n" for i in range(1, n + 1))
        p = parse_presentation(f"gens: {gens}\n{rels}")
        assert abelian_invariants(p) == AbelianInvariants(0, (abs(1 - (-2) ** n),)), n


def test_smith_normal_form_randomized():
    rng = random.Random(2)
    for _ in range(150):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        snf = smith_normal_form(m)
        # U m V = D, verified against the oracle multiply
        assert mat_mul(mat_mul(snf.U, m), snf.V) == snf.D
        assert abs(mat_det(snf.U)) == 1
        assert abs(mat_det(snf.V)) == 1
        diag = snf.diagonal
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        # off-diagonal entries vanish
        for i, row in enumerate(snf.D):
            for j, v in enumerate(row):
                if i != j:
                    assert v == 0


def test_integer_matrix_ops():
    ident = mat_identity(3)
    assert _matmul(ident, ident) == ident
    assert mat_det(ident) == 1
    m = [[1, 2], [3, 4]]
    assert _matmul(m, mat_identity(2)) == m
    assert mat_det(m) == -2


def test_abelian_invariants_examples():
    assert abelian_invariants(P(["x1", "y"], [])) == AbelianInvariants(2, ())
    vt = group_of_virtual_link(parse(VIRTUAL_TREFOIL, 2, "virtual"))
    assert abelian_invariants(vt) == AbelianInvariants(2, ())
    assert abelian_invariants(P(["x1"], ["x1 x1"])) == AbelianInvariants(0, (2,))
    assert str(AbelianInvariants(0, (2,))) == "Z/2"


def _fresh_invariants(p):
    # the Smith form's invariants of a copy with nothing cached
    return abelian_invariants(Presentation(p.generators, p.relators))


def test_knot_closures_abelianize_to_rank_two():
    """The closed forms of the conjugating families.  Under classical,
    virtual, welded and wada1 with h = 1, a braid sends each x_i to a
    conjugate of an x_j, permuting them as it permutes its strands, so the
    closure's abelianization is free on the cycles of that permutation,
    plus y under virtual: rank two for a virtual knot.  For a classical or
    welded knot G^ab = Z, and as dihedral4 is nilpotent and the meridians
    are all conjugate, every hom into it factors through Z: 8 of them.
    (Under virtual the count seen is 64, which is not proved, so it is not
    checked.)"""
    rng = random.Random(55)
    d4 = builtin_group("dihedral4")
    knots = 0
    for _ in range(600):
        theory, wada_type = rng.choice(
            (("classical", None), ("virtual", None), ("welded", None), ("welded", 1))
        )
        n = rng.randint(2, 5)
        b = random_braid_from(rng, n, rng.randint(0, 12), theory)
        p = tietze_simplify(closure_group(b, wada_type)).presentation
        cycles = cycle_lengths(perm_of_positions([l.pos for l in b.letters], n))
        rank = len(cycles) + (theory == "virtual")
        assert abelian_invariants(p) == AbelianInvariants(rank, ()), b
        # p carries the closed form from the build; a copy made by the
        # checking constructor has none, so its Smith form is taken
        assert _fresh_invariants(p) == AbelianInvariants(rank, ()), b
        if cycles == [n] and theory != "virtual" and wada_type is None:
            knots += 1
            assert count_homs(p, d4) == 8, b
    assert knots == 72


def _invariants_long_braid(seed):
    """The invariants-long benchmark braid of a seed, drawn by the rule of
    perfbench/workloads.invariant_braid, copied here: classical, virtual or
    welded, 4-9 strands, 20-50 letters uniform over the theory's alphabet."""
    rng = random.Random(seed)
    theory = rng.choice(("classical", "virtual", "welded"))
    strands = rng.randint(4, 9)
    length = rng.randint(20, 50)
    families = {"classical": "s", "virtual": "sr", "welded": "sa"}[theory]
    alphabet = [(f, i, s) for i in range(1, strands) for f in families for s in ((1, -1) if f == "s" else (1,))]
    return BraidWord(strands, theory, [BraidLetter(*rng.choice(alphabet)) for _ in range(length)])


def _label_invariants(b, letters, wada_type):
    got = abelian_labels(b.strands, [(l.family, l.pos, l.sign) for l in letters], b.theory == "virtual",
                         wada_type or 1)
    return AbelianInvariants(*got)


def test_closure_invariants_match_the_abelian_label_oracle():
    """Braid to abelian invariants against the oracle's abelianized arc
    labels of the diagram drawn with b's first letter at the bottom: 600
    seeded classical, virtual, welded, wada1 (h = 2) and wada2 braids, as
    built and after Tietze, and the invariants-long braids of seeds
    1-350 as built.  The conjugating closures carry the permutation's
    closed form; wada2's invariants come from the Smith form."""
    rng = random.Random(36)
    actions = (("classical", None, 1), ("virtual", None, 1), ("welded", None, 1), ("welded", 1, 2),
               ("welded", 2, 1))
    torsion = 0
    for k in range(600):
        theory, wada_type, h = actions[k % 5]
        b = random_braid_from(rng, rng.randint(2, 5), rng.randint(0, 12), theory)
        p = closure_group(b, wada_type, h)
        want = _label_invariants(b, b.letters[::-1], wada_type)
        assert abelian_invariants(p) == want, (wada_type, h, b)
        assert abelian_invariants(tietze_simplify(p).presentation) == want, (wada_type, h, b)
        torsion += bool(want.torsion)
    assert torsion > 40
    for seed in range(1, 351):
        b = _invariants_long_braid(seed)
        assert abelian_invariants(closure_group(b)) == _label_invariants(b, b.letters[::-1], None), seed
    # the oracle tells the two readings apart on a wada2 witness
    b = parse("s1 a1 s2^-1 a2", 3, "welded")
    got = abelian_invariants(closure_group(b, 2))
    assert got == _label_invariants(b, b.letters[::-1], 2) != _label_invariants(b, b.letters, 2)
    assert got == AbelianInvariants(1, (2, 2))


def test_tietze_results_carry_the_invariants_they_are_given():
    """Tietze moves keep the group, so each result carries the invariants
    of the presentation it started from, without computing them again."""
    multi = best = 0
    for b, wada_type, h, rep in _seeded_closures():
        p = closure_group(b, wada_type, h)
        if rep.name == "wada2":
            # not conjugating: nothing is carried from the build
            assert p._invariants is None
            assert tietze_simplify(p).presentation._invariants is None
            continue
        inv = p._invariants
        assert inv == _fresh_invariants(p)
        res = tietze_simplify(p)
        assert res.presentation._invariants is inv
        multi += res.steps > 1
        # a zero-step result is its input; a run out of budget returns the
        # smallest presentation seen
        again = tietze_simplify(res.presentation)
        assert again.steps == 0 and again.presentation._invariants is inv
        short = tietze_simplify(p, 0)
        if short.exhausted and short.presentation is not p:
            assert short.presentation._invariants is inv
            best += 1
    assert multi >= 20 and best >= 30


def test_tietze_carries_the_invariants_of_a_parsed_presentation():
    # a parsed presentation carries no invariants until they are computed,
    # by the Smith form; Tietze then passes them on
    b = parse("s1 s2^-1 a1 s1 a2 s2", 3, "welded")
    for wada_type in (None, 2):
        text = format_presentation(closure_group(b, wada_type))
        q = parse_presentation(text)
        assert q._invariants is None
        assert tietze_simplify(q).presentation._invariants is None
        inv = abelian_invariants(q)
        res = tietze_simplify(q)
        assert res.steps > 0 and res.presentation._invariants is inv
        assert inv == _fresh_invariants(res.presentation) == abelian_invariants(closure_group(b, wada_type))


def test_quotient_matches_welded_fingerprints_randomized():
    rng = random.Random(67)
    battery = default_battery()
    for _ in range(200):
        n = rng.randint(2, 4)
        b = random_braid_from(rng, n, rng.randint(0, 8), "virtual")
        lhs = tietze_simplify(quotient_y(group_of_virtual_link(b))).presentation
        w = BraidWord(n, "welded", welded_letters(b.letters))
        rhs = tietze_simplify(group_of_welded_link(w)).presentation
        assert fingerprint(lhs, battery) == fingerprint(rhs, battery)
