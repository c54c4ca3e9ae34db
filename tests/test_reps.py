"""Representations: generator displays, relation suites, the y projection."""

import itertools
import random

import pytest

import linkgroups.freegroup as fg
from linkgroups.braid import (
    MAX_STRANDS,
    BraidWord,
    alpha,
    forbidden_relations,
    parse,
    random_braid_from,
    rho,
    sigma,
)
from linkgroups.freegroup import (
    Ambient,
    Endomorphism,
    Word,
    WordLengthError,
    YID,
    compose,
    format_word,
    is_identity,
    parse_word,
)
from linkgroups.examples import VIRTUAL_TREFOIL
from linkgroups.homcount import builtin_group, count_homs, fingerprint
from linkgroups.present import Presentation, closure_group, tietze_simplify
from linkgroups.reps import (
    artin,
    check_relations,
    project_y,
    representation,
    virtual,
    wada,
    welded,
)
from oracles import colour_count, even_permutations, label_closure, naive_evaluate, permutation_table, welded_letters


def identity(amb):
    return Endomorphism(amb, amb, {g: Word(amb, (g,)) for g in amb.gens()})


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


def evaluate_against_the_oracle(rep, b):
    """rep.evaluate(b), once its images are checked against the oracle's
    letter-by-letter fold."""
    letter_images = [
        {g: w.letters for g, w in rep.generator_action(l).forward.images.items()}
        for l in b.letters
    ]
    e = rep.evaluate(b)
    got = {g: e.images[g].letters for g in rep.ambient.gens()}
    assert got == naive_evaluate(letter_images, rep.ambient.gens()), b
    return e


def compose_fold(rep, b):
    """The right fold of the letters' actions by compose, with the size of
    the largest substitution it makes."""
    e, largest = identity(rep.ambient), 0
    for letter in reversed(b.letters):
        f = rep.generator_action(letter).forward
        for g, w in f.images.items():
            if w.letters != (g,):
                largest = max(largest, sum(len(e.images[abs(v)]) for v in w.letters))
        e = compose(f, e)
    return e, largest


@pytest.mark.parametrize("name, h", [
    ("artin", 1), ("virtual", 1), ("welded", 1), ("wada1", 1), ("wada1", 2), ("wada1", 3),
    ("wada2", 1), ("wada3", 1), ("wada4", 1),
])
def test_evaluate_matches_the_letter_by_letter_oracle(monkeypatch, name, h):
    rng = random.Random(f"evaluate {name} {h}")
    for _ in range(60):
        n = rng.randint(2, 5)
        rep = representation(name, n, h)
        b = random_braid_from(rng, n, rng.randint(0, 12), rep.theory)
        e = evaluate_against_the_oracle(rep, b)
        fold, largest = compose_fold(rep, b)
        assert e == fold, b
        if largest < 2:
            continue  # a limit of 0 refuses even the identity words the fold starts from
        # evaluate and the fold fail at the same LETTER_LIMIT, with the same
        # message: both make the same substitutions in the same order, so the
        # first refused is the largest
        with monkeypatch.context() as m:
            m.setattr(fg, "LETTER_LIMIT", largest)
            assert rep.evaluate(b) == e
            m.setattr(fg, "LETTER_LIMIT", largest - 1)
            messages = []
            for run in (rep.evaluate, lambda b: compose_fold(rep, b)):
                with pytest.raises(WordLengthError) as exc:
                    run(b)
                messages.append(str(exc.value))
            assert messages == [f"{largest} letters exceeds limit {largest - 1}"] * 2


@pytest.mark.parametrize("name", ["welded", "wada1", "wada2"])
def test_evaluate_letter_limit_zero_refuses_a_swap(monkeypatch, name):
    # alpha_1 only swaps two generators, yet each swap is a substitution of one letter
    rep, b = representation(name, 3), parse("a1", 3, "welded")
    rep.evaluate(b)  # builds and caches alpha_1's action, whose words the limit would refuse
    monkeypatch.setattr(fg, "LETTER_LIMIT", 0)
    assert is_identity(rep.evaluate(BraidWord(3, "welded", ())))
    with pytest.raises(WordLengthError, match="^1 letters exceeds limit 0$"):
        rep.evaluate(b)


@pytest.mark.parametrize("name, h", [
    ("artin", 1), ("virtual", 1), ("welded", 1), ("wada1", 1), ("wada1", 2), ("wada1", 3), ("wada2", 1),
])
def test_evaluate_matches_the_oracle_on_long_braids(name, h):
    """Braids of invariants-long's sizes: the pair fold (all but wada2)
    and the substitution fold (wada2) against the oracle's fold."""
    rng = random.Random(f"long {name} {h}")
    for _ in range(6):
        n = rng.randint(4, 9)
        rep = representation(name, n, h)
        b = random_braid_from(rng, n, rng.randint(20, 50), rep.theory)
        e = evaluate_against_the_oracle(rep, b)
        if name == "wada2":
            continue
        # a basis-conjugating automorphism: each x_g goes to a reduced c x_t c^-1, y to y
        for g, w in e.images.items():
            image, k = w.letters, len(w) // 2
            c, t = image[:k], image[k]
            assert len(image) % 2 == 1 and t > 0 and image[k + 1:] == tuple(-v for v in reversed(c)), b
            assert (g != YID or image == (YID,)) and not (c and abs(c[-1]) == t), b


@pytest.mark.parametrize("theory, word, reversed_word, counts, reversed_counts", [
    ("welded", "s1 a1 s2^-1 a2", "a2 s2^-1 a1 s1", (66, 1032), (108, 2880)),
    ("virtual", "s1 r1 s2^-1 r2", "r2 s2^-1 r1 s1", (396, 24768), (228, 7056)),
])
def test_reading_direction_witnesses(theory, word, reversed_word, counts, reversed_counts):
    """Reading these words backwards changes their closures' sym3 and sym4
    counts, so the pairs pin the direction evaluate reads a word in (the
    first letter acts first).  Which direction the paper's definition
    requires is still open; see ROADMAP.md."""
    battery = (builtin_group("sym3"), builtin_group("sym4"))
    for text, expected in ((word, counts), (reversed_word, reversed_counts)):
        p = closure_group(parse(text, 3, theory))
        assert tuple(count_homs(p, g) for g in battery) == expected, text


def _label_fingerprint(b, letters):
    """The fingerprint of the oracle's closure group of a diagram of b's
    theory and strand count whose crossings are letters, top to bottom."""
    p = closure_group(BraidWord(b.strands, b.theory, ()))
    relators = label_closure(b.strands, [(l.family, l.pos, l.sign) for l in letters], YID)
    q = Presentation(p.generators, [Word(p.ambient, r) for r in relators])
    return fingerprint(tietze_simplify(q).presentation)


def test_closure_group_reads_the_diagram_from_the_bottom():
    """closure_group(b) is the label oracle's group of b's diagram drawn
    with b's first letter at the bottom, labels carried down from the
    top: the oracle on the reversed word."""
    rng = random.Random(7)
    for _ in range(300):
        theory = rng.choice(("classical", "virtual", "welded"))
        b = random_braid_from(rng, rng.randint(2, 4), rng.randint(0, 10), theory)
        got = fingerprint(tietze_simplify(closure_group(b)).presentation)
        assert got == _label_fingerprint(b, b.letters[::-1]), b
    # the oracle tells the two readings apart on the direction witnesses
    for theory, text in (("welded", "s1 a1 s2^-1 a2"), ("virtual", "s1 r1 s2^-1 r2")):
        b = parse(text, 3, theory)
        got = fingerprint(closure_group(b))
        assert got == _label_fingerprint(b, b.letters[::-1]) != _label_fingerprint(b, b.letters)


# the battery as the oracles' own permutation tables; dihedral4 is the
# permutations of 0..3 that keep the square 0-1-2-3's edges
SQUARE = [p for p in itertools.permutations(range(4)) if all((p[(i + 1) % 4] - p[i]) % 4 in (1, 3) for i in range(4))]
COLOUR_TABLES = {"sym3": permutation_table(itertools.permutations(range(3))), "dihedral4": permutation_table(SQUARE),
                 "alt4": permutation_table(even_permutations(4)), "sym4": permutation_table(itertools.permutations(range(4)))}


def _colour_counts(b, letters, wada=1, h=1):
    """The colouring oracle's battery counts of a diagram of b's theory
    and strand count whose crossings are letters, top to bottom, under
    the crossing rule of Wada type wada with power h; sym4 up to 3
    strands."""
    letters = [(l.family, l.pos, l.sign) for l in letters]
    return {name: colour_count(b.strands, letters, table, b.theory == "virtual", wada, h)
            for name, table in COLOUR_TABLES.items() if name != "sym4" or b.strands <= 3}


def test_closure_counts_match_the_colouring_oracle():
    """The whole pipeline, braid to count, against colourings of the
    diagram drawn with b's first letter at the bottom."""
    rng = random.Random(5)
    for i in range(60):
        theory = ("classical", "virtual", "welded")[i % 3]
        b = random_braid_from(rng, rng.randint(2, 4), rng.randint(0, 10), theory)
        counts = dict(fingerprint(tietze_simplify(closure_group(b)).presentation).counts)
        colours = _colour_counts(b, b.letters[::-1])
        assert colours == {name: counts[name] for name in colours}, b
    # the oracle tells the two readings apart on the direction witnesses
    for theory, text in (("welded", "s1 a1 s2^-1 a2"), ("virtual", "s1 r1 s2^-1 r2")):
        b = parse(text, 3, theory)
        counts = dict(fingerprint(closure_group(b)).counts)
        assert _colour_counts(b, b.letters[::-1]) == counts != _colour_counts(b, b.letters)


def test_wada_closure_counts_match_the_colouring_oracle():
    """The Wada groups, braid to count, against colourings of the diagram
    drawn with b's first letter at the bottom, under the wada1 rule with
    h = 1 and 2 and the wada2 rule."""
    rng = random.Random(6)
    for i in range(120):
        wada_type, h = ((1, 1), (1, 2), (2, 1))[i % 3]
        b = random_braid_from(rng, rng.randint(2, 4), rng.randint(0, 10), "welded")
        counts = dict(fingerprint(tietze_simplify(closure_group(b, wada_type, h)).presentation).counts)
        colours = _colour_counts(b, b.letters[::-1], wada_type, h)
        assert colours == {name: counts[name] for name in colours}, (wada_type, h, b)
    # and tells the two readings apart on a witness for each rule
    b = parse("a1 s1 s2 a2", 3, "welded")
    for wada_type, h in ((1, 2), (2, 1)):
        counts = dict(fingerprint(closure_group(b, wada_type, h)).counts)
        assert _colour_counts(b, b.letters[::-1], wada_type, h) == counts != _colour_counts(b, b.letters, wada_type, h)


def test_evaluate_letter_limit_bounds_suffix_substitutions(monkeypatch):
    rep = artin(3)
    b = parse(" ".join(["s1 s2^-1"] * 6), 3, "classical")
    images = rep.evaluate(b).images
    # evaluate substitutes each suffix's images into the next letter's
    # images, which have at most 3 letters each
    suffixes = [rep.evaluate(BraidWord(3, "classical", b.letters[k:])) for k in range(len(b))]
    bound = 3 * max(len(w) for e in suffixes for w in e.images.values())
    monkeypatch.setattr(fg, "LETTER_LIMIT", bound)
    assert rep.evaluate(b).images == images
    monkeypatch.setattr(fg, "LETTER_LIMIT", max(len(w) for w in images.values()) - 1)
    with pytest.raises(WordLengthError):
        rep.evaluate(b)


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

    ident3 = identity(Ambient(2, True))
    assert project_y(ident3) == identity(Ambient(2, False))
    with pytest.raises(ValueError):
        project_y(identity(Ambient(2, False)))


def test_projection_commutes_with_quotient_map():
    rng = random.Random(77)
    for _ in range(150):
        n = rng.randint(2, 4)
        b = random_braid_from(rng, n, rng.randint(0, 10), "virtual")
        lhs = project_y(virtual(n).evaluate(b))
        rhs = welded(n).evaluate(BraidWord(n, "welded", welded_letters(b.letters)))
        assert lhs == rhs
