"""Braid words: parsing, permutations, moves, relation catalogue."""

import random
import re

import pytest

from linkgroups.braid import (
    MAX_STRANDS,
    BraidLetter,
    BraidWord,
    DefiningRelation,
    alpha,
    braid_inverse,
    conjugate,
    defining_relations,
    exchange_pair,
    forbidden_relations,
    normalize,
    parse,
    random_braid_from,
    rewrite_with_relation,
    rho,
    serialize,
    shift,
    sigma,
    stabilize,
)

from linkgroups.examples import EXCHANGE_BRAID, KISHINO_CLOSURE, VIRTUAL_TREFOIL

from oracles import cycle_lengths, perm_compose, perm_of_positions, welded_letters


def permutation(b):
    return perm_of_positions([l.pos for l in b.letters], b.strands)


def seeded_braid(rng, n, max_length, theory):
    # a length from rng, then a word from its own generator seeded from rng
    length = rng.randint(0, max_length)
    return random_braid_from(random.Random(rng.randrange(2 ** 30)), n, length, theory)


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
        b = normalize(seeded_braid(rng, n, 12, theory))
        assert parse(serialize(b), n, theory) == b


def test_permutation_examples():
    assert permutation(parse(VIRTUAL_TREFOIL, 2, "virtual")) == (2, 1)
    assert cycle_lengths(permutation(parse(VIRTUAL_TREFOIL, 2, "virtual"))) == [2]
    assert permutation(BraidWord(3, "virtual", ())) == (1, 2, 3)
    assert cycle_lengths((1, 2, 3)) == [1, 1, 1]
    assert cycle_lengths((3, 1, 2, 5, 4)) == [2, 3]
    # every letter, crossing or virtual, moves its strands: positions
    # 1 1 2 1 1 1 2 1 fold to one 3-cycle, so the closure is a knot
    kishino = parse(KISHINO_CLOSURE, 3, "virtual")
    assert permutation(kishino) == (3, 1, 2)
    assert cycle_lengths(permutation(kishino)) == [3]


def test_permutation_is_homomorphism():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 5)
        a = seeded_braid(rng, n, 8, "virtual")
        b = seeded_braid(rng, n, 8, "virtual")
        assert permutation(a * b) == perm_compose(permutation(a), permutation(b))


def test_conjugate_examples():
    b = parse("s1", 2, "virtual")
    assert conjugate(b, rho(1)) == parse("r1 s1 r1", 2, "virtual")
    assert conjugate(BraidWord(2, "virtual", ()), sigma(1)) == BraidWord(2, "virtual", ())
    assert conjugate(parse("s1 s1", 2, "virtual"), sigma(1)) == parse("s1 s1", 2, "virtual")


def test_conjugate_theory_mismatch():
    with pytest.raises(ValueError, match="^letter family 'r' illegal for classical braids$"):
        conjugate(parse("s1", 2, "classical"), rho(1))
    with pytest.raises(ValueError, match="^position 2 out of range for 2 strands$"):
        conjugate(parse("s1", 2, "virtual"), sigma(2))
    with pytest.raises(ValueError, match="^letter .* must have an int position and sign$"):
        conjugate(parse("s1", 3, "welded"), sigma(1.0))


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
    assert permutation(cf) == permutation(vf)


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
        b1 = seeded_braid(rng, n, 6, "virtual")
        b2 = seeded_braid(rng, n, 6, "virtual")
        side = rng.choice(("left", "right"))
        cf, vf = exchange_pair(b1, b2, side)
        assert permutation(cf) == permutation(vf)


def test_rewrite_with_relation():
    rels = {(r.name, r.params): r for r in defining_relations("virtual", 3)}
    b = parse("s1 s2 s1", 3, "virtual")
    assert rewrite_with_relation(b, rels[("braid", (1,))], 0) == parse("s2 s1 s2", 3, "virtual")
    b = parse("r1 r2 s1", 3, "virtual")
    assert rewrite_with_relation(b, rels[("mixed", (1,))], 0) == parse("s2 r1 r2", 3, "virtual")
    with pytest.raises(ValueError):
        rewrite_with_relation(parse("s1 s1", 3, "virtual"), rels[("braid", (1,))], 0)


# the catalogue on 4 strands, in order: fuzz traces pick relation-move sites
# by catalogue position, so a reordering changes them
ARTIN_4 = [
    "braid(1): s1 s2 s1 = s2 s1 s2",
    "braid(2): s2 s3 s2 = s3 s2 s3",
    "sigma-commute(1, 3): s1 s3 = s3 s1",
]
CATALOGUE_4 = {
    "classical": ARTIN_4,
    "virtual": ARTIN_4 + [
        "rho-braid(1): r1 r2 r1 = r2 r1 r2",
        "rho-braid(2): r2 r3 r2 = r3 r2 r3",
        "rho-commute(1, 3): r1 r3 = r3 r1",
        "rho-involution(1): r1 r1 = 1",
        "rho-involution(2): r2 r2 = 1",
        "rho-involution(3): r3 r3 = 1",
        "sigma-rho-commute(1, 3): s1 r3 = r3 s1",
        "sigma-rho-commute(3, 1): s3 r1 = r1 s3",
        "mixed(1): r1 r2 s1 = s2 r1 r2",
        "mixed(2): r2 r3 s2 = s3 r2 r3",
    ],
    "welded": ARTIN_4 + [
        "alpha-braid(1): a1 a2 a1 = a2 a1 a2",
        "alpha-braid(2): a2 a3 a2 = a3 a2 a3",
        "alpha-commute(1, 3): a1 a3 = a3 a1",
        "alpha-involution(1): a1 a1 = 1",
        "alpha-involution(2): a2 a2 = 1",
        "alpha-involution(3): a3 a3 = 1",
        "sigma-alpha-commute(1, 3): s1 a3 = a3 s1",
        "sigma-alpha-commute(3, 1): s3 a1 = a1 s3",
        "swap-mixed(1): a1 a2 s1 = s2 a1 a2",
        "swap-mixed(2): a2 a3 s2 = s3 a2 a3",
        "mixed(1): a1 s2 s1 = s2 s1 a2",
        "mixed(2): a2 s3 s2 = s3 s2 a3",
    ],
}
FORBIDDEN_4 = [
    "F1(1): r1 s2 s1 = s2 s1 r2",
    "F2(1): r2 s1 s2 = s1 s2 r1",
    "F1(2): r2 s3 s2 = s3 s2 r3",
    "F2(2): r3 s2 s3 = s2 s3 r2",
]


def listing(rels):
    return [f"{r.label()}: {serialize(r.left)} = {serialize(r.right)}" for r in rels]


def test_relation_catalogue_is_pinned():
    for theory, expected in CATALOGUE_4.items():
        rels = defining_relations(theory, 4)
        assert listing(rels) == expected
        assert all(r.theory == theory and r.left.strands == r.right.strands == 4 for r in rels)
    assert [len(v) for v in CATALOGUE_4.values()] == [3, 13, 15]
    assert listing(forbidden_relations(4)) == FORBIDDEN_4
    assert all(r.theory == "virtual" for r in forbidden_relations(4))


def test_rewrites_preserve_permutation():
    for theory in ("classical", "virtual", "welded"):
        for rel in defining_relations(theory, 5):
            assert permutation(rel.left) == permutation(rel.right)
    for rel in forbidden_relations(4):
        assert permutation(rel.left) == permutation(rel.right)


def test_normalize_cancels():
    b = BraidWord(3, "virtual", (sigma(1), rho(2), rho(2), sigma(1, -1)))
    assert normalize(b) == BraidWord(3, "virtual", ())
    b = BraidWord(3, "welded", (alpha(1), alpha(1)))
    assert normalize(b) == BraidWord(3, "welded", ())


def test_random_braid_deterministic():
    a = random_braid_from(random.Random(42), 4, 10, "virtual")
    b = random_braid_from(random.Random(42), 4, 10, "virtual")
    assert a == b
    assert len(random_braid_from(random.Random(1), 3, 0, "welded")) == 0
    w = random_braid_from(random.Random(3), 5, 50, "virtual")
    assert all(1 <= l.pos <= 4 for l in w.letters)


def test_theory_conversions():
    v = parse("s1 r2", 3, "virtual")
    w = BraidWord(3, "welded", welded_letters(v.letters))
    assert w == parse("s1 a2", 3, "welded")
    with pytest.raises(ValueError, match="^letter family 'r' illegal for welded braids$"):
        BraidWord(3, "welded", v.letters)


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


@pytest.mark.parametrize("field", ["pos", "sign"])
@pytest.mark.parametrize("bad", [True, 1.0, "1", float("nan")], ids=repr)
def test_braidword_refuses_a_position_or_sign_that_is_no_int(field, bad):
    # a bool or float equal to 1 would pass the range and sign tests; True
    # would serialize as sTrue, which the parser refuses
    letter = sigma(1)._replace(**{field: bad})
    with pytest.raises(ValueError, match="^letter .* must have an int position and sign$"):
        BraidWord(3, "classical", [letter])


@pytest.mark.parametrize("family", ["", "sr", 5], ids=repr)
@pytest.mark.parametrize("theory", ["classical", "virtual", "welded"])
def test_braidword_refuses_a_family_that_is_no_code_of_the_theory(theory, family):
    # a substring test would take "" (serialized as 1, the empty word) and "sr"
    with pytest.raises(ValueError, match=f"^letter family {re.escape(repr(family))} illegal for {theory} braids$"):
        BraidWord(3, theory, [BraidLetter(family, 1, 1)])


def test_moves_keep_their_messages():
    # the moves build their words unchecked, but a strand count past the
    # ceiling and a relation side from elsewhere are checked, with the
    # checking constructor's messages (conjugating letters: above)
    top = BraidWord(MAX_STRANDS, "virtual", ())
    ceiling = f"^strand count {MAX_STRANDS + 1} exceeds the ceiling {MAX_STRANDS}$"
    for move in (lambda: stabilize(top, "positive"), lambda: shift(top), lambda: exchange_pair(top, top, "right"),
                 lambda: random_braid_from(random.Random(0), MAX_STRANDS + 1, 5, "virtual")):
        with pytest.raises(ValueError, match=ceiling):
            move()
    with pytest.raises(ValueError, match="^unknown theory 'nope'$"):
        random_braid_from(random.Random(0), 3, 5, "nope")
    braid_1 = defining_relations("virtual", 3)[0]
    with pytest.raises(ValueError, match=r"^relation braid\(1\) does not match at index 1$"):
        rewrite_with_relation(parse("s1 s2 s1", 3, "virtual"), braid_1, 1)
    wide = DefiningRelation("virtual", "wide", (), parse("s1", 5, "virtual"), parse("s4", 5, "virtual"))
    with pytest.raises(ValueError, match="^position 4 out of range for 3 strands$"):
        rewrite_with_relation(parse("s1", 3, "virtual"), wide, 0)
    narrow = DefiningRelation("virtual", "narrow", (), parse("s1", 2, "virtual"), parse("r1", 2, "virtual"))
    assert rewrite_with_relation(parse("s2 s1", 3, "virtual"), narrow, 1) == parse("s2 r1", 3, "virtual")
