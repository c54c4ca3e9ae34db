"""Braid words: parsing, permutations, moves, relation catalogue."""

import random

import pytest

from linkgroups.braid import (
    MAX_STRANDS,
    BraidLetter,
    BraidWord,
    alpha,
    braid_inverse,
    conjugate,
    defining_relations,
    exchange_pair,
    forbidden_relations,
    is_knot_closure,
    normalize,
    parse,
    permutation_cycles,
    random_braid,
    rewrite_with_relation,
    rho,
    serialize,
    shift,
    sigma,
    stabilize,
    to_virtual,
    to_welded,
    underlying_permutation,
)

from linkgroups.examples import EXCHANGE_BRAID, KISHINO_CLOSURE, VIRTUAL_TREFOIL

from oracles import perm_compose, perm_of_positions


def test_parse_examples():
    b = parse("s1 s1 r1", 2, "virtual")
    assert b.letters == (sigma(1), sigma(1), rho(1))
    b = parse("s2^-1", 3, "classical")
    assert b.letters == (sigma(2, -1),)
    b = parse("a1 s2 s1", 3, "welded")
    assert b.letters == (alpha(1), sigma(2), sigma(1))


def test_parse_normalizes_involution_signs():
    assert parse("r1^-1", 2, "virtual") == parse("r1", 2, "virtual")
    assert parse("a2^-1", 3, "welded") == parse("a2", 3, "welded")


def test_parse_errors():
    with pytest.raises(ValueError):
        parse("q1", 2, "virtual")  # unknown token
    with pytest.raises(ValueError):
        parse("s2", 2, "virtual")  # position out of range
    with pytest.raises(ValueError):
        parse("s0", 2, "virtual")
    with pytest.raises(ValueError):
        parse("r1", 2, "classical")  # family illegal for theory
    with pytest.raises(ValueError):
        parse("a1", 2, "virtual")


def test_serialize_examples():
    assert serialize(parse("s1 s1 r1", 2, "virtual")) == "s1 s1 r1"
    assert serialize(BraidWord(3, "virtual", ())) == "1"
    assert serialize(BraidWord(3, "welded", (sigma(2, -1), alpha(1)))) == "s2^-1 a1"


def test_round_trip_randomized():
    rng = random.Random(17)
    for _ in range(1000):
        theory = rng.choice(("classical", "virtual", "welded"))
        n = rng.randint(2, 5)
        b = normalize(random_braid(n, rng.randint(0, 12), theory, rng.randrange(2 ** 30)))
        assert parse(serialize(b), n, theory) == b


def test_permutation_examples():
    assert underlying_permutation(parse(VIRTUAL_TREFOIL, 2, "virtual")) == (2, 1)
    assert is_knot_closure(parse(VIRTUAL_TREFOIL, 2, "virtual"))
    assert underlying_permutation(BraidWord(3, "virtual", ())) == (1, 2, 3)
    assert len(permutation_cycles((1, 2, 3))) == 3
    kishino = parse(KISHINO_CLOSURE, 3, "virtual")
    expected = perm_of_positions([1, 1, 2, 1, 1, 1, 2, 1], 3)
    assert underlying_permutation(kishino) == expected
    assert is_knot_closure(kishino)


def test_permutation_is_homomorphism():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 5)
        a = random_braid(n, rng.randint(0, 8), "virtual", rng.randrange(2 ** 30))
        b = random_braid(n, rng.randint(0, 8), "virtual", rng.randrange(2 ** 30))
        assert underlying_permutation(a * b) == perm_compose(
            underlying_permutation(a), underlying_permutation(b)
        )


def test_conjugate_examples():
    b = parse("s1", 2, "virtual")
    assert conjugate(b, rho(1)) == parse("r1 s1 r1", 2, "virtual")
    assert conjugate(BraidWord(2, "virtual", ()), sigma(1)) == BraidWord(2, "virtual", ())
    assert conjugate(parse("s1 s1", 2, "virtual"), sigma(1)) == parse("s1 s1", 2, "virtual")


def test_conjugate_theory_mismatch():
    with pytest.raises(ValueError):
        conjugate(parse("s1", 2, "classical"), rho(1))


def test_stabilize_examples():
    b = parse(VIRTUAL_TREFOIL, 2, "virtual")
    assert stabilize(b, "positive") == parse(VIRTUAL_TREFOIL + " s2", 3, "virtual")
    assert stabilize(BraidWord(1, "virtual", ()), "virtual") == parse("r1", 2, "virtual")
    assert stabilize(parse("s1", 2, "virtual"), "negative") == parse("s1 s2^-1", 3, "virtual")
    assert stabilize(parse("a1", 2, "welded"), "virtual") == parse("a1 a2", 3, "welded")


def test_shift_examples():
    assert shift(parse("s1", 2, "virtual")) == parse("s2", 3, "virtual")
    assert shift(parse("r1 s1", 2, "virtual")) == parse("r2 s2", 3, "virtual")
    assert shift(BraidWord(2, "virtual", ())) == BraidWord(3, "virtual", ())


def test_exchange_pair_right_trivial():
    e = BraidWord(2, "virtual", ())
    cf, vf = exchange_pair(e, e, "right")
    assert cf == BraidWord(3, "virtual", ())
    assert vf == BraidWord(3, "virtual", ())


def test_exchange_pair_right_example():
    b1 = parse(EXCHANGE_BRAID, 2, "virtual")
    b2 = braid_inverse(b1)
    cf, vf = exchange_pair(b1, b2, "right")
    assert vf == parse("s1 r1 s1 r2 s1^-1 r1 s1^-1 r2", 3, "virtual")
    assert cf == parse("s1 r1 s1 s2^-1 s1^-1 r1 s1^-1 s2", 3, "virtual")
    assert underlying_permutation(cf) == underlying_permutation(vf)


def test_exchange_pair_left_example():
    b1 = parse("s1", 2, "virtual")
    b2 = BraidWord(2, "virtual", ())
    cf, vf = exchange_pair(b1, b2, "left")
    assert cf == parse("s2", 3, "virtual")
    assert vf == parse("s2", 3, "virtual")


def test_exchange_pair_errors():
    with pytest.raises(ValueError):
        exchange_pair(parse("s1", 2, "classical"), parse("s1", 2, "classical"), "right")
    with pytest.raises(ValueError):
        exchange_pair(parse("s1", 2, "virtual"), parse("s1", 3, "virtual"), "right")


def test_exchange_pair_equal_permutations_randomized():
    rng = random.Random(4)
    for _ in range(100):
        n = rng.randint(2, 4)
        b1 = random_braid(n, rng.randint(0, 6), "virtual", rng.randrange(2 ** 30))
        b2 = random_braid(n, rng.randint(0, 6), "virtual", rng.randrange(2 ** 30))
        side = rng.choice(("left", "right"))
        cf, vf = exchange_pair(b1, b2, side)
        assert underlying_permutation(cf) == underlying_permutation(vf)


def test_rewrite_with_relation():
    rels = {(r.name, r.params): r for r in defining_relations("virtual", 3)}
    b = parse("s1 s2 s1", 3, "virtual")
    assert rewrite_with_relation(b, rels[("braid", (1,))], 0) == parse("s2 s1 s2", 3, "virtual")
    b = parse("r1 r2 s1", 3, "virtual")
    assert rewrite_with_relation(b, rels[("mixed", (1,))], 0) == parse("s2 r1 r2", 3, "virtual")
    with pytest.raises(ValueError):
        rewrite_with_relation(parse("s1 s1", 3, "virtual"), rels[("braid", (1,))], 0)


def test_rewrites_preserve_permutation():
    for theory in ("classical", "virtual", "welded"):
        for rel in defining_relations(theory, 5):
            assert underlying_permutation(rel.left) == underlying_permutation(rel.right)
    for rel in forbidden_relations(4):
        assert underlying_permutation(rel.left) == underlying_permutation(rel.right)


def test_normalize_cancels():
    b = BraidWord(3, "virtual", (sigma(1), rho(2), rho(2), sigma(1, -1)))
    assert normalize(b) == BraidWord(3, "virtual", ())
    b = BraidWord(3, "welded", (alpha(1), alpha(1)))
    assert normalize(b) == BraidWord(3, "welded", ())


def test_random_braid_deterministic():
    a = random_braid(4, 10, "virtual", seed=42)
    b = random_braid(4, 10, "virtual", seed=42)
    assert a == b
    assert len(random_braid(3, 0, "welded", seed=1)) == 0
    w = random_braid(5, 50, "virtual", seed=3)
    assert all(1 <= l.pos <= 4 for l in w.letters)


def test_theory_conversions():
    c = parse("s1 s2^-1", 3, "classical")
    assert to_virtual(c).theory == "virtual" and to_virtual(c).letters == c.letters
    v = parse("s1 r2", 3, "virtual")
    w = to_welded(v)
    assert w.theory == "welded"
    assert w.letters == (sigma(1), alpha(2))
    with pytest.raises(ValueError):
        to_virtual(parse("a1", 2, "welded"))


def test_braidword_validation():
    with pytest.raises(ValueError):
        BraidWord(2, "nope", ())
    with pytest.raises(ValueError):
        BraidWord(0, "virtual", ())
    assert BraidWord(MAX_STRANDS, "virtual", ()).strands == MAX_STRANDS
    with pytest.raises(ValueError, match="exceeds the ceiling"):
        BraidWord(MAX_STRANDS + 1, "virtual", ())
    with pytest.raises(ValueError):
        BraidWord(2, "virtual", (BraidLetter("s", 1, 2),))
    with pytest.raises(ValueError):
        BraidWord(2, "virtual", (BraidLetter("r", 1, -1),))
