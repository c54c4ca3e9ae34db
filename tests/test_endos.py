"""Endomorphisms: substitution, composition, abelianized matrices."""

import random

import pytest

import linkgroups.freegroup as fg
from linkgroups.freegroup import (
    Ambient,
    Automorphism,
    Endomorphism,
    Word,
    WordLengthError,
    YID,
    abelianized_matrix,
    compose,
    identity_endomorphism,
    is_identity,
    parse_word,
)
from linkgroups.reps import artin, virtual, wada

from linkgroups.examples import VIRTUAL_TREFOIL

from oracles import mat_mul, naive_substitute

A2Y = Ambient(2, True)  # <x1, x2, y>


def test_apply_displays():
    rep = virtual(2)
    from linkgroups.braid import rho, sigma

    s1 = rep.generator_action(sigma(1)).forward
    assert s1(Word(A2Y, (1,))) == parse_word("x1 x2 x1^-1", A2Y)
    r1 = rep.generator_action(rho(1)).forward
    assert r1(Word(A2Y, (2,))) == parse_word("y^-1 x1 y", A2Y)
    ident = identity_endomorphism(A2Y)
    w = parse_word("x1 y x2^-1", A2Y)
    assert ident(w) == w


def test_apply_is_homomorphic():
    rng = random.Random(3)
    rep = virtual(3)
    amb = rep.ambient
    pool = [1, -1, 2, -2, 3, -3, YID, -YID]
    from linkgroups.braid import random_braid_from

    for _ in range(200):
        e = rep.evaluate(random_braid_from(rng, 3, rng.randint(0, 5), "virtual"))
        a = Word(amb, [rng.choice(pool) for _ in range(rng.randint(0, 8))])
        b = Word(amb, [rng.choice(pool) for _ in range(rng.randint(0, 8))])
        assert e(a * b) == e(a) * e(b)
        assert e(~a) == ~e(a)


def test_apply_rank_mismatch():
    rep = virtual(2)
    from linkgroups.braid import sigma

    e = rep.generator_action(sigma(1)).forward
    with pytest.raises(ValueError):
        e(Word(Ambient(3, True), (3,)))


def test_compose_involution_is_identity():
    from linkgroups.braid import BraidWord, rho

    rep = virtual(2)
    rr = BraidWord(2, "virtual", (rho(1), rho(1)))
    assert is_identity(rep.evaluate(rr))


def test_compose_inverse_pair_is_identity():
    from linkgroups.braid import BraidWord, sigma

    rep = virtual(2)
    ss = BraidWord(2, "virtual", (sigma(1), sigma(1, -1)))
    assert is_identity(rep.evaluate(ss))


# generator images of the two virtual-theory actions, as plain letter
# tuples, fed to the independent substitution oracle
_SIGMA1 = {1: (1, 2, -1), 2: (1,), YID: (YID,)}
_RHO1 = {1: (YID, 2, -YID), 2: (-YID, 1, YID), YID: (YID,)}


def test_compose_word_matches_substitution_oracle():
    # image of x1 under the word s1 s1 r1, built step by step by the oracle
    step1 = naive_substitute((1,), _SIGMA1)
    step2 = naive_substitute(step1, _SIGMA1)
    expected = naive_substitute(step2, _RHO1)
    frozen = parse_word("y x2 y^-1 y^-1 x1 y y x2 y^-1 y^-1 x1^-1 y y x2^-1 y^-1", A2Y)
    assert Word(A2Y, expected) == frozen

    from linkgroups.braid import parse

    rep = virtual(2)
    e = rep.evaluate(parse(VIRTUAL_TREFOIL, 2, "virtual"))
    assert e.images[1] == frozen


def _random_endo(rng, amb):
    pool = [v for g in amb.gens() for v in (g, -g)]
    return Endomorphism(
        amb,
        amb,
        {
            g: Word(amb, [rng.choice(pool) for _ in range(rng.randint(0, 8))])
            for g in amb.gens()
        },
    )


def test_random_endomorphism_laws():
    # arbitrary (not necessarily invertible) endomorphisms
    rng = random.Random(29)
    amb = Ambient(3, True)
    pool = [v for g in amb.gens() for v in (g, -g)]
    for _ in range(200):
        e = _random_endo(rng, amb)
        a = Word(amb, [rng.choice(pool) for _ in range(rng.randint(0, 10))])
        b = Word(amb, [rng.choice(pool) for _ in range(rng.randint(0, 10))])
        assert e(a * b) == e(a) * e(b)
        f, g, h = (_random_endo(rng, amb) for _ in range(3))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_compose_associative():
    rng = random.Random(11)
    rep = virtual(3)
    from linkgroups.braid import random_braid_from

    for _ in range(60):
        f = rep.evaluate(random_braid_from(rng, 3, 3, "virtual"))
        g = rep.evaluate(random_braid_from(rng, 3, 3, "virtual"))
        h = rep.evaluate(random_braid_from(rng, 3, 3, "virtual"))
        assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_compose_rank_mismatch():
    e2 = identity_endomorphism(Ambient(2, False))
    e3 = identity_endomorphism(Ambient(3, False))
    with pytest.raises(ValueError):
        compose(e2, e3)


def test_is_identity():
    assert is_identity(identity_endomorphism(A2Y))
    from linkgroups.braid import sigma

    assert not is_identity(virtual(2).generator_action(sigma(1)).forward)


def test_automorphism_rejects_wrong_inverse():
    from linkgroups.braid import sigma

    rep = artin(2)
    fwd = rep.generator_action(sigma(1)).forward
    with pytest.raises(ValueError):
        Automorphism(fwd, identity_endomorphism(fwd.domain))


def test_endomorphism_validation():
    with pytest.raises(ValueError):
        Endomorphism(A2Y, A2Y, {1: Word(A2Y, (1,))})  # missing images
    with pytest.raises(ValueError):
        Endomorphism(
            Ambient(1, False),
            Ambient(1, False),
            {1: Word(Ambient(2, False), (2,))},  # image over the wrong ambient
        )


def test_substitution_budget_counts_unreduced_letters(monkeypatch):
    amb = Ambient(2, False)
    f = Endomorphism(amb, amb, {1: Word(amb, (2,) * 5 + (1,)), 2: Word(amb, (2,))})
    w = Word(amb, (-2,) * 5 + (1,))
    # f(w) = x2^-5 x2^5 x1 reduces to x1, but the substitution has 11 letters
    monkeypatch.setattr(fg, "LETTER_LIMIT", 11)
    assert f(w) == Word(amb, (1,))
    monkeypatch.setattr(fg, "LETTER_LIMIT", 10)
    with pytest.raises(WordLengthError):
        f(w)


def test_abelianized_matrix_artin_swap():
    from linkgroups.braid import sigma

    m = abelianized_matrix(artin(2).generator_action(sigma(1)).forward)
    assert m == [[0, 1], [1, 0]]


def test_abelianized_matrix_wada2():
    from linkgroups.braid import sigma

    m = abelianized_matrix(wada(2, 2).generator_action(sigma(1)).forward)
    # [x1] -> 2[x1] - [x2], [x2] -> [x1]
    assert m == [[2, 1], [-1, 0]]


def test_abelianized_matrix_wada2_power():
    from linkgroups.braid import BraidWord, sigma

    rep = wada(2, 2)
    t = 3
    e = rep.evaluate(BraidWord(2, "welded", (sigma(1),) * t))
    m = abelianized_matrix(e)
    assert [m[0][0], m[1][0]] == [t + 1, -t]


def test_abelianized_matrix_functorial():
    rng = random.Random(21)
    from linkgroups.braid import random_braid_from

    rep = virtual(3)  # rank 4 including y
    for _ in range(100):
        f = rep.evaluate(random_braid_from(rng, 3, 4, "virtual"))
        g = rep.evaluate(random_braid_from(rng, 3, 4, "virtual"))
        assert abelianized_matrix(compose(f, g)) == mat_mul(
            abelianized_matrix(g), abelianized_matrix(f)
        )
