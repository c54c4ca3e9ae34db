"""Presentations: builders, Tietze simplification, SNF, abelianization."""

import importlib.util
import pathlib
import random
import tracemalloc
from collections import Counter

import pytest

import linkgroups.freegroup as fg
from linkgroups import reps
from linkgroups.braid import BraidLetter, BraidWord, parse, random_braid_from
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
    exponent_sums,
    format_word,
    gen_name,
    parse_word,
)
from linkgroups.homcount import builtin_group, count_homs, default_battery, fingerprint, make_table
from linkgroups.present import (
    TIETZE_BUDGET,
    AbelianInvariants,
    Presentation,
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
    relation_matrix,
    smith_normal_form,
    tietze_simplify,
    tietze_step,
    wada_group,
)

from oracles import mat_det, mat_identity, mat_mul, naive_tietze


def P(gen_names, relator_texts):
    gens = tuple(YID if n == "y" else int(n[1:]) for n in gen_names)
    nx = max((g for g in gens if g != YID), default=0)
    amb = Ambient(nx, YID in gens)
    return Presentation(gens, [parse_word(t, amb) for t in relator_texts])


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
    from linkgroups.braid import to_welded

    lhs = quotient_y(group_of_virtual_link(b))
    rhs = group_of_welded_link(to_welded(b))
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
    # every Tietze step must carry the letter counts and the ambient
    steps = 0
    for b, wada_type, h, rep in _seeded_closures():
        images = rep.evaluate(b).images
        amb = rep.ambient
        expected = Presentation(amb.gens(), [Word(amb, (-i,)) * images[i] for i in range(1, b.strands + 1)])
        p = closure_group(b, wada_type, h)
        assert (p.generators, p.relators, p.ambient) == (expected.generators, expected.relators, expected.ambient)
        while p is not None:
            _assert_counts_carried(p)
            assert all(r.ambient == p.ambient for r in p.relators)
            p = tietze_step(p)
            steps += p is not None
    assert steps > 60


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
    assert res.presentation == p
    assert tietze_step(p) is None


def test_tietze_budget_exhaustion():
    p = group_of_virtual_link(parse(VIRTUAL_TREFOIL, 2, "virtual"))
    res = tietze_simplify(p, budget=1)
    assert res.exhausted
    assert res.presentation.total_letters() >= 1
    with pytest.raises(ValueError, match="at least 0"):
        tietze_simplify(p, budget=-5)


def test_tietze_deterministic_scan_order():
    # two eliminable generators in one relator: the lowest index goes first
    p = P(["x1", "x2"], ["x2^-1 x1"])
    step = tietze_step(p)
    assert step is not None
    assert step.generators == (2,)
    assert step.relators == ()


def _assert_counts_carried(p):
    # the signed counts a Tietze step carries, and the matrix read from them
    assert p._letter_counts() == tuple(Counter(r.letters) for r in p.relators)
    assert relation_matrix(p) == [exponent_sums(r, p.generators) for r in p.relators]


def test_tietze_steps_preserve_fingerprint():
    rng = random.Random(41)
    battery = default_battery()
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
        current = p
        while True:
            nxt = tietze_step(current)
            if nxt is None:
                break
            assert fingerprint(nxt, battery) == fp
            _assert_counts_carried(nxt)
            current = nxt


def _oracle_cases():
    # random generator orders and sparse ids, so eliminating the highest x
    # or y shrinks the ambient; small budgets make some runs exhaust
    rng = random.Random(83)
    for _ in range(200):
        gens = tuple(rng.sample([1, 2, 3, 4, 5, 6, YID], rng.randint(1, 6)))
        amb = Ambient(max((g for g in gens if g != YID), default=0), YID in gens)
        pool = [v for g in gens for v in (g, -g)]
        raw = [[rng.choice(pool) for _ in range(rng.randint(0, 12))] for _ in range(rng.randint(0, 6))]
        budget = rng.choice([0, 10, 40, TIETZE_BUDGET])
        yield gens, raw, Presentation(gens, [Word(amb, r) for r in raw]), budget


def test_tietze_matches_the_rebuild_everything_oracle():
    exhausted = 0
    for gens, raw, p, budget in _oracle_cases():
        res = tietze_simplify(p, budget)
        got = (res.presentation.generators, [r.letters for r in res.presentation.relators])
        assert got + (res.exhausted, res.steps) == naive_tietze(gens, raw, budget, YID)
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


def _stepped(p, budget):
    # tietze_simplify's stopping and best-seen rule, over tietze_step
    best = current = p
    steps = 0
    while (nxt := tietze_step(current)) is not None:
        steps += 1
        current = nxt
        if current.total_letters() <= best.total_letters():
            best = current
        if current.total_letters() > budget:
            return best, True, steps
    return current, False, steps


def test_tietze_simplify_iterates_tietze_step():
    # tietze_simplify carries relator letters, counts, elimination keys and
    # the letter total through its steps; tietze_step starts each step afresh
    cases = [p for _, _, p, _ in _oracle_cases()] + list(_invariants_long_groups())
    exhausted = steps = 0
    for p in cases:
        for budget in (0, 10, 40, TIETZE_BUDGET):
            res = tietze_simplify(p, budget)
            q, q_exhausted, q_steps = _stepped(p, budget)
            got = res.presentation
            assert (got.generators, got.relators, got.ambient) == (q.generators, q.relators, q.ambient)
            nx = max((g for g in got.generators if g != YID), default=0)
            assert got.ambient == Ambient(nx, YID in got.generators)
            assert (res.exhausted, res.steps) == (q_exhausted, q_steps)
            if got is not p:
                assert got._counts == tuple(Counter(r.letters) for r in got.relators)
            exhausted += res.exhausted
            steps += res.steps
    assert exhausted > 200 and steps > 1000


def test_tietze_steps_carry_signed_letter_counts_on_long_braids():
    steps = 0
    for p in _invariants_long_groups():
        _assert_counts_carried(p)
        while p.total_letters() <= TIETZE_BUDGET:
            p = tietze_step(p)
            if p is None:
                break
            _assert_counts_carried(p)
            steps += 1
    assert steps > 40


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
    assert relation_matrix(p) == [[2]]
    p = P(["x1", "x2"], ["x1 x2 x1^-1 x2^-1"])
    assert relation_matrix(p) == [[0, 0]]
    vt = group_of_virtual_link(parse(VIRTUAL_TREFOIL, 2, "virtual"))
    m = relation_matrix(vt)
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
    with pytest.raises(ValueError, match="ragged"):
        smith_normal_form([[1, 2], [3]])


def test_smith_normal_form_matches_sympy():
    """The diagonal agrees with sympy's invariant factors, an independent
    implementation, on square and non-square shapes with zero rows."""
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(14)
    for _ in range(200):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        # mostly small entries and some zeros, so nontrivial divisors occur
        m = [[rng.choice((0, 0, rng.randint(-12, 12))) for _ in range(c)] for _ in range(r)]
        for i in rng.sample(range(r), rng.randint(0, r // 2)):
            m[i] = [0] * c
        expected = tuple(int(d) for d in invariant_factors(Matrix(m), domain=ZZ))
        assert smith_normal_form(m).diagonal == expected, m


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


def test_knot_closures_abelianize_to_rank_two():
    from linkgroups.braid import is_knot_closure

    rng = random.Random(55)
    found = 0
    while found < 20:
        n = rng.randint(2, 4)
        b = random_braid_from(rng, n, rng.randint(1, 10), "virtual")
        if not is_knot_closure(b):
            continue
        found += 1
        p = group_of_virtual_link(b)
        assert abelian_invariants(p) == AbelianInvariants(2, ())


def test_quotient_matches_welded_fingerprints_randomized():
    from linkgroups.braid import to_welded

    rng = random.Random(67)
    battery = default_battery()
    for _ in range(200):
        n = rng.randint(2, 4)
        b = random_braid_from(rng, n, rng.randint(0, 8), "virtual")
        lhs = tietze_simplify(quotient_y(group_of_virtual_link(b))).presentation
        rhs = tietze_simplify(group_of_welded_link(to_welded(b))).presentation
        assert fingerprint(lhs, battery) == fingerprint(rhs, battery)
