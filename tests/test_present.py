"""Presentations: builders, Tietze simplification, SNF, abelianization."""

import random

import pytest

from linkgroups.braid import BraidWord, parse, random_braid_from
from linkgroups.examples import (
    EXCHANGE_RELATOR,
    KISHINO_CLOSURE,
    KISHINO_IMAGES,
    KISHINO_QUOTIENT_SYM3,
    VIRTUAL_TREFOIL,
)
from linkgroups.freegroup import Ambient, Word, YID, format_word, parse_word
from linkgroups.homcount import builtin_group, count_homs, default_battery, fingerprint
from linkgroups.present import (
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

from oracles import mat_det, mat_identity, mat_mul


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


def test_wada_group_rejects_types_3_and_4():
    b = parse("s1", 2, "welded")
    for k in (3, 4):
        with pytest.raises(ValueError, match="mixed relation"):
            wada_group(b, k)


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
            current = nxt


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


def test_presentation_text_round_trip():
    p = group_of_virtual_link(parse(VIRTUAL_TREFOIL, 2, "virtual"))
    for structured in (False, True):
        text = format_presentation(p, structured=structured)
        assert parse_presentation(text) == p
    sparse = P(["x3", "y"], ["x3 y x3^-1 y^-1"])
    assert parse_presentation(format_presentation(sparse)) == sparse


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
