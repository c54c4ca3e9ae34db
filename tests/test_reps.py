"""Representations: generator displays, relation suites, the y projection."""

import random

import pytest

from linkgroups.braid import (
    MAX_STRANDS,
    BraidWord,
    alpha,
    forbidden_relations,
    parse,
    random_braid_from,
    rho,
    sigma,
    to_welded,
)
from linkgroups.freegroup import (
    Ambient,
    Word,
    YID,
    format_word,
    is_identity,
    parse_word,
)
from linkgroups.examples import VIRTUAL_TREFOIL
from linkgroups.reps import (
    artin,
    check_relations,
    project_y,
    representation,
    virtual,
    wada,
    welded,
)


def images_of(act, amb):
    return {g: format_word(act.forward.images[g]) for g in amb.gens()}


def test_virtual_rho_display():
    rep = virtual(2)
    act = rep.generator_action(rho(1))
    assert format_word(act.forward.images[1]) == "y x2 y^-1"
    assert format_word(act.forward.images[2]) == "y^-1 x1 y"
    assert format_word(act.forward.images[YID]) == "y"


def test_wada4_display():
    rep = wada(2, 4)
    act = rep.generator_action(sigma(1))
    assert format_word(act.forward.images[1]) == "x1 x1 x2"
    assert format_word(act.forward.images[2]) == "x2^-1 x1^-1 x2"


def test_artin_inverse_display():
    rep = artin(2)
    act = rep.generator_action(sigma(1, -1))
    assert format_word(act.forward.images[1]) == "x2"
    assert format_word(act.forward.images[2]) == "x2^-1 x1 x2"


def test_wada1_default_power_is_artin():
    a, w = artin(3), wada(3, 1, h=1)
    for letter in (sigma(1), sigma(2), sigma(1, -1)):
        assert a.generator_action(letter).forward == w.generator_action(letter).forward


def test_illegal_letter_family():
    with pytest.raises(ValueError):
        artin(3).generator_action(rho(1))
    with pytest.raises(ValueError):
        welded(3).generator_action(rho(1))
    with pytest.raises(ValueError):
        virtual(3).generator_action(alpha(1))


def test_evaluate_virtual_trefoil_images():
    rep = virtual(2)
    e = rep.evaluate(parse(VIRTUAL_TREFOIL, 2, "virtual"))
    assert e.images[2] == parse_word("y x2 y^-1 y^-1 x1 y y x2^-1 y^-1", rep.ambient)


def test_evaluate_empty_is_identity():
    for rep in (artin(3), virtual(3), welded(3), wada(3, 2)):
        assert is_identity(rep.evaluate(BraidWord(3, rep.theory, ())))


def test_evaluate_theory_and_strand_mismatch():
    with pytest.raises(ValueError):
        virtual(2).evaluate(parse("s1", 2, "classical"))
    with pytest.raises(ValueError):
        virtual(3).evaluate(parse("s1", 2, "virtual"))


def test_representation_factory():
    assert representation("virtual", 3).name == "virtual"
    wada3 = representation("wada3", 3)
    assert wada3.name == "wada3" and wada3.theory == "welded"
    with pytest.raises(ValueError):
        representation("nope", 3)
    with pytest.raises(ValueError):
        wada(3, 7)
    for name in ("wada1", "virtual", "wada2"):
        for h in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                representation(name, 3, h)
    for name in ("artin", "virtual", "welded", "wada2", "wada3", "wada4"):
        with pytest.raises(ValueError, match="only to wada1"):
            representation(name, 3, 7)
    assert representation("virtual", MAX_STRANDS).strands == MAX_STRANDS
    with pytest.raises(ValueError, match="exceeds the ceiling"):
        representation("welded", MAX_STRANDS + 1)


def test_representations_are_cached():
    assert virtual(3) is virtual(3)
    assert representation("virtual", 3) is representation("virtual", 3, 1)
    assert representation("virtual", 3, h=1) is virtual(3)
    assert representation("wada1", 3) is wada(3, 1, 1) is wada(3, 1)
    assert representation("wada1", 3, 2) is wada(3, 1, 2)


@pytest.mark.parametrize("n", [3, 4])
def test_defining_relations_hold(n):
    for rep in (
        artin(n),
        virtual(n),
        welded(n),
        wada(n, 1, 1),
        wada(n, 1, 2),
        wada(n, 1, 3),
        wada(n, 2),
    ):
        bad = [r.label() for r in check_relations(rep) if not r.holds]
        assert not bad, f"{rep.name}: {bad}"


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("k", [3, 4])
def test_wada_34_fail_exactly_at_mixed(n, k):
    reports = check_relations(wada(n, k))
    failing = {r.relation.name for r in reports if not r.holds}
    assert failing == {"mixed"}
    # every mixed instance fails, with a concrete witness
    for r in reports:
        if r.relation.name == "mixed":
            assert not r.holds and r.witness is not None


def test_forbidden_moves_fail_with_witnesses():
    rep = virtual(3)
    reports = check_relations(rep, forbidden_relations(3))
    by_name = {}
    for r in reports:
        by_name.setdefault(r.relation.name, []).append(r)
    assert all(not r.holds for r in by_name["F1"])
    assert all(not r.holds for r in by_name["F2"])
    f1 = next(r for r in by_name["F1"] if r.relation.params == (1,))
    g, left, right = f1.witness
    assert g == 1
    assert format_word(left) == "y x1 x3 x1^-1 y^-1"
    assert format_word(right) == "x1 y x3 y^-1 x1^-1"
    # the defining relations themselves still hold
    assert all(r.holds for r in reports if r.relation.name not in ("F1", "F2"))


def test_involutions():
    for rep, mk in ((virtual(3), rho), (welded(3), alpha), (wada(3, 2), alpha)):
        for i in (1, 2):
            rr = BraidWord(3, rep.theory, (mk(i), mk(i)))
            assert is_identity(rep.evaluate(rr))


def test_virtual_rep_fixes_y():
    rng = random.Random(8)
    rep = virtual(4)
    for _ in range(100):
        b = random_braid_from(rng, 4, rng.randint(0, 10), "virtual")
        e = rep.evaluate(b)
        assert e.images[YID] == Word(rep.ambient, (YID,))


def test_classical_words_have_y_free_images():
    rng = random.Random(13)
    rep = virtual(4)
    for _ in range(100):
        b = random_braid_from(rng, 4, rng.randint(0, 10), "classical")
        e = rep.evaluate(BraidWord(4, "virtual", b.letters))
        for g in range(1, 5):
            assert all(abs(v) != YID for v in e.images[g].letters)


def test_project_y_examples():
    rep = virtual(2)
    p = project_y(rep.generator_action(rho(1)).forward)
    amb = Ambient(2, False)
    assert p.images[1] == Word(amb, (2,))
    assert p.images[2] == Word(amb, (1,))

    q = project_y(rep.generator_action(sigma(1)).forward)
    w = welded(2)
    assert q == w.generator_action(sigma(1)).forward

    from linkgroups.freegroup import identity_endomorphism

    ident3 = identity_endomorphism(Ambient(2, True))
    assert project_y(ident3) == identity_endomorphism(Ambient(2, False))
    with pytest.raises(ValueError):
        project_y(identity_endomorphism(Ambient(2, False)))


def test_projection_commutes_with_quotient_map():
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randint(2, 4)
        b = random_braid_from(rng, n, rng.randint(0, 10), "virtual")
        lhs = project_y(virtual(n).evaluate(b))
        rhs = welded(n).evaluate(to_welded(b))
        assert lhs == rhs
