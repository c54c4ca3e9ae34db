"""Free group words: reduction, group axioms, cyclic reduction, text form."""

import random

import pytest
from hypothesis import given, strategies as st

import linkgroups.freegroup as fg
from linkgroups.freegroup import (
    Ambient,
    Word,
    WordLengthError,
    YID,
    format_word,
    parse_gen,
    parse_word,
)

from oracles import naive_invert, naive_reduce, scheduled_reduce

AMB = Ambient(3, True)


def W(*letters):
    return Word(AMB, letters)


def test_reduce_cancellation():
    assert W(1, -1).letters == ()
    assert W(1, 2, -2, 1).letters == (1, 1)
    assert W(YID, 2, -YID, YID, 3).letters == (YID, 2, 3)


def test_reduce_idempotent():
    w = W(1, 2, -2, 1, 3, -3, -1)
    assert Word(AMB, w.letters) == w


def test_unknown_generator_rejected():
    with pytest.raises(ValueError):
        Word(Ambient(2, False), (3,))
    with pytest.raises(ValueError):
        Word(Ambient(2, False), (YID,))
    with pytest.raises(ValueError):
        Word(AMB, (0,))
    # the message names the first letter outside the ambient
    with pytest.raises(ValueError, match=r"^letter -3 outside ambient"):
        Word(Ambient(2, False), (1, -2, -3, 0, 4))
    with pytest.raises(ValueError, match=r"^letter -1073741824 outside ambient"):
        Word(Ambient(2, False), (1, -YID))


def test_concat():
    assert (W(1) * W(-1)).letters == ()
    assert (W(1, 2) * W()).letters == (1, 2)
    assert (W(YID, 1) * W(-1, YID)).letters == (YID, YID)


def test_concat_ambient_mismatch():
    with pytest.raises(ValueError):
        W(1) * Word(Ambient(2, False), (1,))


def test_invert():
    assert (~W(1, -2)).letters == (2, -1)
    assert (~W()).letters == ()
    assert (~W(YID, 1, -YID)).letters == (YID, -1, -YID)


def test_cyclic_reduce():
    core, conj = W(-1, 2, 1).cyclic_reduce()
    assert core == W(2) and conj == W(1)
    core, conj = W(1, 2).cyclic_reduce()
    assert core == W(1, 2) and conj == W()
    comm = W(1, 2, -1, -2)
    core, conj = comm.cyclic_reduce()
    assert core == comm and conj == W()


def test_cyclic_reduce_reassembles():
    rng = random.Random(5)
    for _ in range(300):
        w = Word(AMB, [rng.choice([1, -1, 2, -2, 3, -3, YID, -YID]) for _ in range(16)])
        core, conj = w.cyclic_reduce()
        assert ~conj * core * conj == w
        # core really is cyclically reduced
        assert not core.letters or core.letters[0] != -core.letters[-1]


letters_strategy = st.lists(
    st.sampled_from([1, -1, 2, -2, 3, -3, YID, -YID]), max_size=64
)


@given(letters_strategy)
def test_reduction_matches_naive(raw):
    assert Word(AMB, raw).letters == naive_reduce(raw)


@given(letters_strategy, st.integers(0, 2 ** 32))
def test_reduction_confluent(raw, seed):
    assert Word(AMB, raw).letters == scheduled_reduce(raw, random.Random(seed))


def test_group_axioms_randomized():
    rng = random.Random(99)
    pool = [1, -1, 2, -2, 3, -3, YID, -YID]
    for _ in range(1000):
        a = Word(AMB, [rng.choice(pool) for _ in range(rng.randint(0, 12))])
        b = Word(AMB, [rng.choice(pool) for _ in range(rng.randint(0, 12))])
        c = Word(AMB, [rng.choice(pool) for _ in range(rng.randint(0, 12))])
        assert (a * b) * c == a * (b * c)
        assert a * Word(AMB) == a == Word(AMB) * a
        assert (a * ~a).letters == ()
        assert (~a * a).letters == ()


def test_pow():
    assert W(1) ** 3 == W(1, 1, 1)
    assert W(1) ** -2 == W(-1, -1)
    assert W(1, 2) ** 0 == W()
    rng = random.Random(5)
    pool = [1, -1, 2, -2, 3, -3, YID, -YID]
    for _ in range(500):
        a = Word(AMB, [rng.choice(pool) for _ in range(rng.randint(0, 8))])
        n = rng.randint(-6, 6)
        product = Word(AMB)
        for _ in range(abs(n)):
            product = product * (a if n > 0 else ~a)
        assert a ** n == product


def test_pow_joins_once_and_checks_the_size_first(monkeypatch):
    conjugate, pair, empty = W(1, 2, -1), Word(Ambient(2), (1, 2)), W()
    expected = W(1, *(2,) * 50, -1)
    calls = []
    join = fg._join
    monkeypatch.setattr(fg, "_join", lambda pieces: calls.append(1) or join(pieces))
    assert conjugate ** 50 == expected
    assert len(calls) == 1
    with pytest.raises(WordLengthError, match="^2000000000000 letters exceeds limit 1000000$"):
        pair ** 10 ** 12
    assert empty ** 10 ** 12 == empty
    assert len(calls) == 1


def test_word_length_cap(monkeypatch):
    monkeypatch.setattr(fg, "LETTER_LIMIT", 8)
    with pytest.raises(WordLengthError):
        Word(AMB, (1,) * 9)


def test_parse_format_round_trip():
    for text in ("1", "x1", "x2^-1 y x1", "y^-1 y^-1 x3"):
        w = parse_word(text, AMB)
        assert parse_word(format_word(w), AMB) == w
    assert format_word(Word(AMB)) == "1"
    assert parse_word("x1 x1^-1", AMB) == Word(AMB)


def test_parse_rejects_bad_tokens():
    for bad in ("x0", "z1", "x1^2", "x1^-2", "x", "x01", "x1^-1^-1", "x\u0661"):
        with pytest.raises(ValueError, match="bad word token"):
            parse_word(bad, AMB)


def test_generator_names():
    assert [parse_gen(n) for n in ("x1", "x12", "y", f"x{YID - 1}")] == [1, 12, YID, YID - 1]
    # y's id is YID, so an x index at or above it is refused, not read as y
    for bad in ("x0", "x01", "x", "x1^-1", "y^-1", "z1", "x\u0661", "x\u00b2", "x1\n", " x1",
                f"x{YID}", f"x{YID + 1}", "x1" + "0" * 5000):
        with pytest.raises(ValueError, match="bad generator name"):
            parse_gen(bad)


reduced_pieces = st.lists(st.tuples(letters_strategy.map(naive_reduce), st.booleans()), max_size=8)


@given(reduced_pieces)
def test_join_matches_naive(spec):
    # a True flag follows a piece with its inverse, which cancels it completely
    pieces = []
    for piece, cancel in spec:
        pieces.append(piece)
        if cancel:
            pieces.append(naive_invert(piece))
    assert fg._join(pieces) == naive_reduce([v for p in pieces for v in p])


@given(letters_strategy, letters_strategy)
def test_product_and_inverse_match_naive(a, b):
    wa, wb = Word(AMB, a), Word(AMB, b)
    assert (wa * wb).letters == naive_reduce(a + b)
    assert (~wa).letters == naive_invert(naive_reduce(a))
    assert (wa * ~wa).letters == ()
