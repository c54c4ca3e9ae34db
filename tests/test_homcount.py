"""Hom counting: builtin tables, brute-force agreement, invariances."""

import itertools
import math
import operator
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from linkgroups import homcount, present
from linkgroups.braid import parse
from linkgroups.examples import VIRTUAL_TREFOIL
from linkgroups.freegroup import Ambient, Word, YID
from linkgroups.homcount import (
    MAX_GROUP_ORDER,
    CapExceeded,
    Fingerprint,
    _count_assignments,
    _FIXES,
    _generators,
    _is_abelian,
    _lift_sums,
    _lift_tables,
    _perms,
    _plan_of,
    _slot_words,
    builtin_group,
    count_homs,
    default_battery,
    effective_cap,
    fingerprint,
    load_table_text,
    make_table,
)
from linkgroups.present import (
    TIETZE_BUDGET,
    Presentation,
    abelian_invariants,
    format_presentation,
    parse_presentation,
    smith_normal_form,
    tietze_simplify,
)

from oracles import (
    SPLIT_EXTENSIONS,
    brute_count_homs,
    direct_product_table,
    even_permutations,
    permutation_table,
    split_extension_count,
    split_extension_counts,
)


def P(gens, relator_letter_tuples):
    nx = max((g for g in gens if g != YID), default=0)
    amb = Ambient(nx, YID in gens)
    return Presentation(tuple(gens), [Word(amb, t) for t in relator_letter_tuples])


# equal copies of the default battery's tables: count_homs matches the
# battery by identity, so it enumerates these, and they are the reference
# that the counts from the sym3 lift are checked against
COPIES = tuple(make_table(g.name, g.table) for g in default_battery())

# the largest cyclic table, built once for the tests that read it: a c<k>
# table is built afresh at each builtin_group call
C1024 = builtin_group("c1024")


def plan(p):
    return _plan_of(*_slot_words(p))


def test_builtin_orders():
    assert builtin_group("c1").order == 1
    assert builtin_group("c5").order == 5
    assert builtin_group("sym3").order == 6
    assert builtin_group("dihedral4").order == 8
    assert builtin_group("d4").order == 8
    assert builtin_group("d4") is builtin_group("dihedral4")  # one table and one set of symmetry data
    # the symmetries of the square 0-1-2-3, sorted: element i of the table is the i-th
    assert _perms("dihedral4") == [(0, 1, 2, 3), (0, 3, 2, 1), (1, 0, 3, 2), (1, 2, 3, 0),
                                   (2, 1, 0, 3), (2, 3, 0, 1), (3, 0, 1, 2), (3, 2, 1, 0)]
    assert builtin_group("alt4").order == 12
    assert builtin_group("sym4").order == 24
    with pytest.raises(ValueError):
        builtin_group("nope")


def test_only_the_battery_tables_are_kept():
    # the battery's tables are default_battery()'s own, under either name
    # of dihedral4; a c<k> table is built afresh and kept by no one
    for i, name in enumerate(("sym3", "dihedral4", "alt4", "sym4")):
        assert builtin_group(name) is default_battery()[i]
    assert builtin_group("d4") is default_battery()[1]
    c5 = builtin_group("c5")
    assert c5 == builtin_group("c5") and c5 is not builtin_group("c5")
    g = builtin_group("c500")
    dropped = weakref.ref(g)
    del g
    assert dropped() is None


def test_sym3_class_count():
    g = builtin_group("sym3")
    # conjugacy classes: count orbits of conjugation
    elems = range(g.order)
    classes = set()
    for a in elems:
        orbit = frozenset(g.table[g.table[g.inverse[b]][a]][b] for b in elems)
        classes.add(orbit)
    assert len(classes) == 3


def test_class_and_centraliser_orbit_weights():
    sizes = {"sym3": [1, 2, 3], "dihedral4": [1, 1, 2, 2, 2], "alt4": [1, 3, 4, 4],
             "sym4": [1, 3, 6, 6, 8]}
    trial_417 = parse_presentation(TRIAL_417)
    for g in default_battery() + COPIES:
        mul, inv = g.table, g.inverse
        # a stabiliser is the bitmask of its elements; S_0 = G acts on itself by conjugation
        classes = g._orbit_list((1 << g.order) - 1)
        assert sorted(size for _, size, _ in classes) == sizes[g.name]
        count_homs(trial_417, g, cap=10 ** 9)
        for _, _, s in classes:  # S_1 = C(v) for every class representative v
            g._orbit_list(s)
        assert len(g._orbits) > 1
        for s, orbits in g._orbits.items():
            hs = {h for h in range(g.order) if s >> h & 1}
            # the representatives' S-orbits, found here, partition G with the sizes given
            found = [{mul[mul[inv[h]][v]][h] for h in hs} for v, _, _ in orbits]
            assert [len(orbit) for orbit in found] == [size for _, size, _ in orbits]
            assert set().union(*found) == set(range(g.order)) and sum(map(len, found)) == g.order
            # orbit-counting lemma: the number of orbits is the mean number of fixed points
            fixed = sum(mul[h][x] == mul[x][h] for h in hs for x in range(g.order))
            assert len(orbits) * len(hs) == fixed
            # a representative v moves S to S intersected with C(v)
            for v, _, t in orbits:
                assert {h for h in range(g.order) if t >> h & 1} == {h for h in hs if mul[h][v] == mul[v][h]}


def test_generators_span_every_builtin():
    for g in (*map(builtin_group, ("c1", "c2", "c12")), C1024, *default_battery()):
        gens = list(_generators(g.table))
        span, frontier = {0}, [0]
        while frontier:
            frontier = [y for y in {g.table[h][s] for h in frontier for s in gens} if y not in span]
            span.update(frontier)
        assert span == set(range(g.order)), g.name
        assert 2 ** len(gens) <= g.order, name  # each generator at least doubles the subgroup


def refusal(table, name="bad"):
    with pytest.raises(ValueError) as e:
        make_table(name, table)
    return str(e.value)


def test_invalid_tables_rejected():
    assert refusal([[0, 1], [1, 0], [0, 1]]) == "bad: table must be square and nonempty"
    assert refusal([[0, 1], [1, -1]]) == "bad: entry -1 out of range"
    assert refusal([[1, 0], [0, 1]]) == "bad: element 0 is not a two-sided identity"
    assert refusal([[0, 1], [1, 1]]) == "bad: element 1 has no two-sided inverse"  # no 0 in row 1
    # 1 has only a right inverse (1 2 = 0, 2 1 = 2), and row 2 holds no 0
    assert refusal([[0, 1, 2], [1, 2, 0], [2, 2, 1]]) == "bad: element 2 has no two-sided inverse"


def generators_chosen(monkeypatch):
    """A list that make_table fills with how many generators _generators
    has chosen by each draw: those drawn so far, and any it holds ready
    beyond them (as a list would)."""
    chosen, choose = [], homcount._generators

    def counted(table):
        gens = iter(choose(table))
        for s in gens:
            chosen.append(len(chosen) + 1 + operator.length_hint(gens))
            yield s

    monkeypatch.setattr(homcount, "_generators", counted)
    return chosen


def test_a_table_that_is_no_group_is_refused_at_its_first_failing_generator(monkeypatch):
    # x y = x for x != y and x x = 0: every nonzero element is a generator,
    # and the first fails Light's test
    m = 1024
    table = [[y if x == 0 else 0 if x == y else x for y in range(m)] for x in range(m)]
    chosen = generators_chosen(monkeypatch)
    assert refusal(table, "xyx") == "xyx: not associative at (1, 1, 2)"
    assert chosen == [1]


def test_each_passing_generator_doubles_the_span(monkeypatch):
    # C2^8 times an order-3 table that is no group ((1 2) 2 = 0 but
    # 1 (2 2) = 1), id a + 256 b: the eight C2 generators and 256 pass
    # Light's test, each doubling the span, and 512 fails
    t3 = [[0, 1, 2], [1, 0, 2], [2, 2, 0]]
    m = 256 * 3
    table = [[((x % 256) ^ (y % 256)) + 256 * t3[x // 256][y // 256] for y in range(m)] for x in range(m)]
    chosen = generators_chosen(monkeypatch)
    assert refusal(table, "c2^8xt3") == "c2^8xt3: not associative at (256, 512, 512)"
    assert chosen == list(range(1, 11))
    assert len(chosen) == math.floor(math.log2(m)) + 1


def test_count_free_group():
    assert count_homs(P((1, YID), []), builtin_group("sym3")) == 36
    for g in default_battery():
        assert count_homs(P((1, 2, 3), []), g) == g.order ** 3


def test_count_commutator_pairs():
    g = builtin_group("sym3")
    p = P((1, 2), [(1, 2, -1, -2)])
    assert count_homs(p, g) == 18
    assert brute_count_homs((1, 2), [(1, 2, -1, -2)], g) == 18


def test_count_forced_trivial():
    for name in ("sym3", "d4", "alt4", "sym4", "c6"):
        assert count_homs(P((1,), [(1,)]), builtin_group(name)) == 1


def test_count_matches_brute_force_randomized():
    rng = random.Random(7)
    g6 = builtin_group("sym3")
    for _ in range(80):
        gens = (1, 2) if rng.random() < 0.7 else (1, 2, YID)
        pool = [v for g in gens for v in (g, -g)]
        rels = [
            tuple(rng.choice(pool) for _ in range(rng.randint(1, 6)))
            for _ in range(rng.randint(1, 3))
        ]
        amb_rels = [r for r in rels]
        p = P(gens, amb_rels)
        # brute force over the presentation's own (reduced) relators
        expected = brute_count_homs(p.generators, [r.letters for r in p.relators], g6)
        assert count_homs(p, g6) == count_homs(p, COPIES[0]) == expected


@st.composite
def small_presentations(draw):
    gens = tuple(range(1, draw(st.integers(1, 3)) + 1))
    letter = st.sampled_from([v for g in gens for v in (g, -g)])
    rels = draw(st.lists(st.lists(letter, min_size=1, max_size=8), min_size=1, max_size=3))
    return P(gens, [tuple(r) for r in rels])


@settings(max_examples=60, deadline=None)
@given(small_presentations())
def test_weighted_count_matches_brute_force_in_the_battery(p):
    # alt4 and sym4 have classes and centraliser orbits of several sizes
    for g in default_battery() + COPIES:
        assert count_homs(p, g) == brute_count_homs(p.generators, [r.letters for r in p.relators], g)


@st.composite
def solvable_presentations(draw):
    # the first relator names the last generator z once or twice, as
    # a z^e1 b [z^e2 c]; the others do not name it, so z is usually deepest
    n = draw(st.integers(2, 3))
    gens = tuple(range(1, n + 1))
    letter = st.sampled_from([v for g in gens[:-1] for v in (g, -g)])
    word = st.lists(letter, max_size=4)
    z = st.sampled_from([n, -n])
    solving = draw(word) + [draw(z)] + draw(word)
    if draw(st.booleans()):
        solving += [draw(z)] + draw(word)
    others = draw(st.lists(st.lists(letter, min_size=1, max_size=6), max_size=2))
    return P(gens, [tuple(solving)] + [tuple(r) for r in others])


@settings(max_examples=60, deadline=None)
@given(solvable_presentations())
def test_solved_count_matches_brute_force_in_the_battery(p):
    for g in default_battery() + COPIES:
        assert count_homs(p, g) == brute_count_homs(p.generators, [r.letters for r in p.relators], g)


def test_a5_and_s5_counts():
    # A5, the smallest non-solvable group, and S5: no lift through an
    # abelian series counts them, so they keep the enumeration
    a5 = make_table("a5", permutation_table(even_permutations(5)))
    s5 = make_table("s5", permutation_table(itertools.permutations(range(5))))
    assert (a5.order, s5.order) == (60, 120)
    trefoil = present.group_of_virtual_link(parse(VIRTUAL_TREFOIL, 2, "virtual"))
    for g, classes, on_trefoil in ((a5, 5, 1140), (s5, 7, 4080)):
        # Hom(F_2, G) is G^2, also as <x1, x2, x3 | x1 x2 x3^-1>, which is
        # enumerated; Hom(Z^2, G) is the commuting pairs, |G| per class
        assert count_homs(P((1, 2), []), g) == count_homs(P((1, 2, 3), [(1, 2, -3)]), g) == g.order ** 2
        assert count_homs(P((1, 2), [(1, 2, -1, -2)]), g) == g.order * classes
        assert count_homs(trefoil, g) == on_trefoil
    # and on a seeded sample of two-generator presentations, tuple by tuple
    rng = random.Random(5)
    for g, n in ((a5, 10), (s5, 5)):
        for _ in range(n):
            rels = [tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(2, 7)))
                    for _ in range(rng.randint(1, 2))]
            p = P((1, 2), rels)
            assert count_homs(p, g) == brute_count_homs(p.generators, [r.letters for r in p.relators], g)


def test_symmetry_data_belongs_to_the_table():
    # a non-abelian impostor: dihedral4's table named sym3
    sym3, dihedral4 = builtin_group("sym3"), builtin_group("dihedral4")
    fresh_dihedral4 = make_table("dihedral4", dihedral4.table)
    named_sym3 = make_table("sym3", dihedral4.table)
    commutator = P((1, 2), [(1, 2, -1, -2)])
    assert count_homs(commutator, sym3) == 18
    assert count_homs(commutator, named_sym3) == count_homs(commutator, fresh_dihedral4) == 40
    assert named_sym3._orbits == fresh_dihedral4._orbits != sym3._orbits
    assert named_sym3._orbits is not fresh_dihedral4._orbits
    # x3 is the deepest generator of x1 x1 x2 x2 x3 x1 x3^-1, and x2 of x1 x2 x1 x2
    fresh_sym3 = make_table("sym3", sym3.table)
    deep = P((1, 2, 3), [(1, 1, 2, 2, 3, 1, -3), (1, 2, 1, 2)])
    for g in (fresh_sym3, named_sym3):
        assert count_homs(deep, g) == brute_count_homs((1, 2, 3), [r.letters for r in deep.relators], g)
    assert named_sym3._orbits != fresh_sym3._orbits


@st.composite
def nested_presentations(draw):
    # long relators over many generators: the pieces between the deepest
    # generator's letters have pieces of their own
    n = draw(st.integers(3, 5))
    gens = tuple(range(1, n + 1))
    letter = st.sampled_from([v for g in gens for v in (g, -g)])
    rels = draw(st.lists(st.lists(letter, min_size=2, max_size=12), min_size=1, max_size=3))
    return gens, [tuple(r) for r in rels]


@settings(max_examples=40, deadline=None)
@given(nested_presentations())
def test_nested_pieces_match_brute_force(spec):
    gens, rels = spec
    p = P(gens, rels)
    named_sym3 = make_table("sym3", builtin_group("c6").table)
    # the brute-force oracle reaches 4-5 generators in the smaller groups only
    checked = {"sym3", "dihedral4"} if len(gens) > 3 else {"sym3", "dihedral4", "alt4", "sym4"}
    relators = [r.letters for r in p.relators]
    # the lift's reference is the enumeration into an equal copy, and the
    # others' the same count on a fresh object
    for g, reference in zip(default_battery() + COPIES + (named_sym3,), COPIES + COPIES + (named_sym3,)):
        count = count_homs(p, g)
        assert count == count_homs(P(gens, rels), reference)
        if g.name in checked:
            assert count == brute_count_homs(p.generators, relators, g), g.name


def test_plan_shares_identical_pieces():
    # slots x1, x2, x3 by occurrence; both relators reach x3's level, and
    # both start with the piece x1 x2 x1^-1
    p = P((1, 2, 3), [(1, 2, -1, 3), (1, 2, -1, -3, 1, 2)])
    levels, size = plan(p)
    x1, x1inv, x2, x3, x3inv = 1, 2, 3, 5, 6
    assert size == 1 + 2 * 3 + 2
    assert levels[0] == levels[1] == ((), ())
    assert levels[2] == (
        ((7, (x1, x2, x1inv)), (8, (x1, x2))),  # evaluated on entering x3's level
        ((7, x3), (7, x3inv, 8)),  # tested on every value of x3
    )
    for g in default_battery() + COPIES:
        assert count_homs(p, g) == brute_count_homs(p.generators, [r.letters for r in p.relators], g)


def test_plan_pieces_have_pieces_of_their_own():
    # slots x1, x2, x3 by occurrence; the run before x3 is a piece at x2's
    # depth, and its runs x1 x1 are one piece at x1's, evaluated once per
    # value of x1 rather than once per value of x2
    p = P((1, 2, 3), [(1, 1, 2, 1, 1, 3)])
    levels, size = plan(p)
    x1, x2, x3 = 1, 3, 5
    assert size == 1 + 2 * 3 + 2
    assert levels == (((), ()), (((7, (x1, x1)),), ()), (((8, (7, x2, 7)),), ((8, x3),)))
    for g in default_battery() + COPIES:
        assert count_homs(p, g) == brute_count_homs(p.generators, [r.letters for r in p.relators], g)


def test_over_cap_count_builds_no_plan(monkeypatch):
    plans = []

    def counting_plan(k, words):
        plans.append(words)
        return _plan_of(k, words)

    monkeypatch.setattr(homcount, "_plan_of", counting_plan)
    _lift_sums.cache_clear()
    p = P((1, 2, 3), [(1, 2, 3)])
    sym3 = builtin_group("sym3")
    with pytest.raises(CapExceeded, match="exceed the cap 10$"):
        count_homs(p, sym3, cap=10)
    assert plans == []
    assert count_homs(p, sym3) == 36
    assert plans == [((1, 3, 5),)]
    # neither a plan built before, nor the kept slot words, nor p's memo
    # entry are a way round the cap: the refused count reads no memo
    info = _lift_sums.cache_info()
    with pytest.raises(CapExceeded, match="exceed the cap 10$"):
        count_homs(p, sym3, cap=10)
    assert _lift_sums.cache_info() == info
    # nor a relabelled copy's count, which leaves p's slot words memoised
    _lift_sums.cache_clear()
    assert count_homs(P((5, YID, 2), [(5, YID, 2)]), sym3) == 36
    p = P((1, 2, 3), [(1, 2, 3)])
    with pytest.raises(CapExceeded, match="exceed the cap 10$"):
        count_homs(p, sym3, cap=10)
    assert _lift_sums.cache_info()[:2] == (0, 1)  # no hit, and no miss but the copy's
    assert count_homs(p, sym3) == 36 and _lift_sums.cache_info()[:2] == (1, 1)
    assert plans == [((1, 3, 5),)] * 2
    plans.clear()
    # every battery count reads the one sym3 enumeration, bounded by 6^3 =
    # 216, so a fingerprint below that cap refuses at its first count, in
    # whichever order the battery comes, before any plan is built
    for battery, cap in ((None, 100), (None, 215), (default_battery()[::-1], 100)):
        p = P((1, 2, 3), [(1, 2, 3)])
        with pytest.raises(CapExceeded) as exc:
            fingerprint(p, battery, cap=cap)
        assert str(exc.value) == f"6^3 assignments exceed the cap {cap}"
    trial_417 = parse_presentation(TRIAL_417)
    with pytest.raises(CapExceeded) as exc:
        fingerprint(trial_417, cap=10 ** 4)
    assert str(exc.value) == "6^6 assignments exceed the cap 10000"
    assert plans == []


def test_kept_counts_are_outside_equality_and_hashing():
    text = "gens: x1 x2 y\nrel: x1 x2 x1^-1 y\nrel: x2 y x2 y^-1\n"
    p, q = parse_presentation(text), parse_presentation(text)
    before = hash(p)
    fingerprint(p)
    assert p._slots is not None and q._slots is None
    assert p._invariants is not None and q._invariants is None
    assert p == q and hash(p) == hash(q) == before


def test_tietze_steps_count_like_parsed_presentations():
    # tietze_simplify builds its result without the public constructor; its
    # results, final and the best seen on a run out of budget, count as
    # their parsed copies do
    rng = random.Random(10)
    battery = default_battery() + COPIES
    steps = exhausted = 0
    for _ in range(60):
        gens = (1, 2, 3, 4)
        pool = [v for g in gens for v in (g, -g)]
        rels = [tuple(rng.choice(pool) for _ in range(rng.randint(1, 10))) for _ in range(3)]
        p = P(gens, rels)
        for budget in (0, 10, 40, TIETZE_BUDGET):
            res = tietze_simplify(p, budget)
            current = res.presentation
            fresh = parse_presentation(format_presentation(current))
            assert fresh == current
            # the lift and the enumeration, against the enumeration on the parsed presentation
            assert [count_homs(current, g) for g in battery] == [count_homs(fresh, g) for g in COPIES + COPIES]
            steps += res.steps
            exhausted += res.exhausted
    assert steps > 200 and exhausted > 20


# criterion 9's virtual trial 417 (seed 2026): 24^6 exceeds DEFAULT_CAP, and
# the brute-force oracle cannot reach six generators
TRIAL_417 = """\
gens: x1 x2 x3 x5 x6 y
rel: x1^-1 y x2 x3^-1 x2^-1 x1 x2 x3 x2^-1 y^-1 y^-1 x2 x3^-1 x2^-1 x1 x2 x3 x2 x3^-1 x2^-1 x1^-1 x2 x3 x2^-1 y y x2 x3^-1 x2^-1 x1^-1 x2 x3 x2^-1 y^-1
rel: x2^-1 y^-1 x2 x3^-1 x2^-1 x1 x2 x3 x2^-1 x3^-1 x2^-1 x1^-1 x2 x3 x2^-1 y y x2 x3^-1 x2^-1 x1^-1 x2 x3 x2^-1 y^-1 x2 x3 x2^-1 y x2 x3^-1 x2^-1 x1 x2 x3 x2^-1 y^-1 y^-1 x2 x3^-1 x2^-1 x1 x2 x3 x2 x3^-1 x2^-1 x1^-1 x2 x3 x2^-1 y
rel: x3^-1 y^-1 x2 x3^-1 x2^-1 x1 x2 x3 x2^-1 x3^-1 x2^-1 x1^-1 x2 x3 x2^-1 y y x2 x3^-1 x2^-1 x1^-1 x2 x3 x2^-1 y^-1 x2 x3^-1 x2^-1 y x2 x3^-1 x2^-1 x1 x2 x3 x2^-1 y^-1 y^-1 x2 x3^-1 x2^-1 x1 x2 x3 x2 x3^-1 x2^-1 x1^-1 x2 x3 x2^-1 y y x2 x3^-1 x2^-1 x1 x2 x3 x2^-1 y^-1 y^-1 x2 x3^-1 x2^-1 x1 x2 x3 x2^-1 x3^-1 x2^-1 x1^-1 x2 x3 x2^-1 y y x2 x3^-1 x2^-1 x1^-1 x2 x3 x2^-1 y^-1 x2 x3 x2^-1 y x2 x3^-1 x2^-1 x1 x2 x3 x2^-1 y^-1 y^-1 x2 x3^-1 x2^-1 x1 x2 x3 x2 x3^-1 x2^-1 x1^-1 x2 x3 x2^-1 y
rel: x5^-1 y^-1 x5 y
rel: x6^-1 x5^-1 x5^-1 y x5 x6 x5^-1 y^-1 x5 x5
"""


def test_criterion_9_trial_417_counts():
    counts = {"sym3": 396, "dihedral4": 1792, "alt4": 3168, "sym4": 24768}
    for battery in (COPIES, default_battery()):
        p = parse_presentation(TRIAL_417)
        assert {g.name: count_homs(p, g, cap=10 ** 9) for g in battery} == counts
    assert dict(fingerprint(parse_presentation(TRIAL_417), cap=10 ** 9).counts) == counts
    # and so do the Fox-Jacobian oracle's, which share no code with the package
    p = parse_presentation(TRIAL_417)
    assert split_extension_counts(p.generators, [r.letters for r in p.relators]).items() <= counts.items()


def test_abelian_check_matches_the_transpose():
    c2, sym3 = builtin_group("c2"), builtin_group("sym3")
    c2c2c2 = direct_product_table(direct_product_table(c2.table, c2.table), c2.table)
    c2_7 = direct_product_table(direct_product_table(c2c2c2, c2c2c2), c2.table)
    tables = [builtin_group(n) for n in ("c1", "c2", "c12", "sym3", "dihedral4", "alt4", "sym4")]
    tables += [make_table("c2^3", c2c2c2), make_table("sym3xc2", direct_product_table(sym3.table, c2.table)),
               make_table("c2xsym3", direct_product_table(c2.table, sym3.table)),
               # its first three generators span c2^3 and commute; the fourth and fifth do not
               make_table("sym3xc2^3", direct_product_table(sym3.table, c2c2c2)),
               # orders above 64: seven commuting generators, and a non-abelian group of order 66
               make_table("c2^7", c2_7),
               make_table("sym3xc11", direct_product_table(sym3.table, builtin_group("c11").table))]
    for g in tables:
        assert _is_abelian(g) == (g.table == tuple(zip(*g.table))), g.name


def test_abelian_tables_are_not_reduced():
    g = C1024
    commutator = P((1, 2), [(1, 2, -1, -2)])
    assert count_homs(commutator, g) == 1024 ** 2
    assert count_homs(P((1, 2), [(1, 2, 1, 2)]), g) == 2048
    assert count_homs(P((1, 2), [(1, 2, 1, -2)]), g) == 2048
    # counted from the abelian invariants: no orbit data is built
    assert "_orbits" not in vars(g)
    # which the check above would see: an enumeration into an abelian table builds it
    c4 = make_table("c4", builtin_group("c4").table)
    assert sum(_count_assignments(c4, plan(commutator)).values()) == 16
    assert "_orbits" in vars(c4)


def _abelian_tables():
    c2, c4 = builtin_group("c2"), builtin_group("c4")
    tables = [builtin_group(f"c{k}") for k in range(1, 13)]
    c2c2c2 = direct_product_table(direct_product_table(c2.table, c2.table), c2.table)
    return tables + [make_table("c2^3", c2c2c2), make_table("c2xc4", direct_product_table(c2.table, c4.table))]


@st.composite
def abelian_presentations(draw):
    # relators made of powers, so the abelianization has torsion, and
    # presentations without relators
    gens = tuple(range(1, draw(st.integers(1, 3)) + 1))
    power = st.tuples(st.sampled_from([v for g in gens for v in (g, -g)]), st.integers(1, 6))
    rels = draw(st.lists(st.lists(power, min_size=1, max_size=4), max_size=3))
    return P(gens, [tuple(v for v, n in r for _ in range(n)) for r in rels])


@settings(max_examples=60, deadline=None)
@given(abelian_presentations())
def test_abelian_count_matches_brute_force(p):
    relators = [r.letters for r in p.relators]
    for g in _abelian_tables():
        assert count_homs(p, g) == brute_count_homs(p.generators, relators, g), g.name
        assert "_orbits" not in vars(g)


def test_cyclic_count_closed_form():
    # |Hom(G, Z/k)| = k^r times the product of gcd(d, k) over the torsion d
    g = C1024
    for ds in ((1,), (2,), (6, 1000), (512, 768), (1024,), (2048, 3)):
        # x1^d1, x2^d2, ... and a free generator y: Z + Z/d1 + Z/d2 + ...
        gens = tuple(range(1, len(ds) + 1)) + (YID,)
        p = P(gens, [(i,) * d for i, d in enumerate(ds, 1)])
        assert abelian_invariants(p).free_rank == 1
        expected = 1024
        for d in ds:
            expected *= math.gcd(d, 1024)
        assert count_homs(p, g) == expected, ds
    commutator = P((1, 2, YID), [(1, 2, -1, -2), (YID, YID)])  # Z^2 + Z/2
    assert count_homs(commutator, g, cap=1024 ** 3) == 1024 ** 2 * 2


def test_stabiliser_below_the_second_depth():
    # x2 commutes with x1 and x3 with x2, so once x1 -> (12)(34) and
    # x2 -> (13)(24) in sym4, x3 runs over the orbits of the intersection
    # of their centralisers, the Klein four-group: neither trivial nor the
    # centraliser of x2
    rels = [(1, 2, -1, -2), (2, 3, -2, -3), (1, 1, 1, 2, 3, 3, 3)]
    p = P((1, 2, 3), rels)
    for g in default_battery() + COPIES:
        assert count_homs(p, g) == brute_count_homs((1, 2, 3), rels, g), g.name
    fresh_sym4 = make_table("sym4", builtin_group("sym4").table)
    assert count_homs(p, fresh_sym4) == count_homs(p, builtin_group("sym4"))
    # sym4's elements are its permutations in sorted order; the Klein
    # four-group is the centraliser of no single element, so only a depth
    # of 2 or more meets it; a stabiliser is the bitmask of its elements
    index = {perm: i for i, perm in enumerate(sorted(itertools.permutations(range(4))))}
    klein = sum(1 << index[perm] for perm in ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)))
    assert klein not in {t for _, _, t in fresh_sym4._orbit_list((1 << 24) - 1)}
    assert klein in fresh_sym4._orbits  # entered, with its orbits built


def test_count_invariant_under_reordering_and_cycling():
    rel = (1, 2, -1, 2, 2)
    for g in (builtin_group("dihedral4"), COPIES[1]):
        base = count_homs(P((1, 2), [rel]), g)
        assert count_homs(P((2, 1), [rel]), g) == base
        # cyclic permutation and inversion of the relator
        assert count_homs(P((1, 2), [rel[2:] + rel[:2]]), g) == base
        inv = tuple(-v for v in reversed(rel))
        assert count_homs(P((1, 2), [inv]), g) == base


def test_count_multiplicative_over_direct_product():
    c2, c3, c6 = builtin_group("c2"), builtin_group("c3"), builtin_group("c6")
    prod = make_table("c2xc3", direct_product_table(c2.table, c3.table))
    p = P((1, 2), [(1, 1, 2, -1, -2)])
    assert count_homs(p, prod) == count_homs(p, c2) * count_homs(p, c3)
    assert count_homs(p, prod) == count_homs(p, c6)


def test_cap_exceeded():
    p = P((1, 2, 3), [(1, 2, 3)])
    with pytest.raises(CapExceeded):
        count_homs(p, builtin_group("sym3"), cap=10)
    # an abelian group enumerates nothing, so no cap applies: Z^2, 1024^2 maps
    for cap in (None, 1):
        assert count_homs(p, C1024, cap=cap) == 1048576
    # the battery is bounded by its sym3 enumeration, 6^k, at every order
    chain = P(tuple(range(1, 12)), [tuple(range(1, 12))])
    for g in default_battery():
        with pytest.raises(CapExceeded) as exc:
            count_homs(chain, g)
        assert str(exc.value) == "6^11 assignments exceed the cap 100000000"
    # free generators are not enumerated, so huge free groups stay cheap
    assert count_homs(P(tuple(range(1, 12)), []), builtin_group("sym4"), cap=10) == 24 ** 11


def test_enumeration_deeper_than_the_recursion_limit():
    # one relator through k generators makes the enumeration k levels deep
    def chain(k):
        return P(tuple(range(1, k + 1)), [tuple(range(1, k + 1))])

    assert count_homs(chain(1000), builtin_group("c1")) == 1
    for g in (builtin_group("sym3"), COPIES[0]):
        with pytest.raises(CapExceeded, match="recurses deeper"):
            count_homs(chain(1500), g, cap=6 ** 1500)
    # an abelian group is counted from the abelian invariants, Z^1499
    assert count_homs(chain(1500), builtin_group("c2"), cap=10 ** 500) == 2 ** 1499
    # the default battery's one enumeration and its lifts run inside the same guard
    with pytest.raises(CapExceeded, match="recurses deeper"):
        fingerprint(chain(1500), cap=10 ** 2100)


def test_effective_cap_env(monkeypatch):
    # the cap comes from the argument alone: LINKGROUPS_HOM_CAP, valid,
    # invalid or past the interpreter's digit limit, changes no count and
    # no refusal
    p = P((1, 2, 3), [(1, 2, -1, -2), (1, 1, 3, 2, -3), (2, 3, 3, 1, 1)])
    chain = P(tuple(range(1, 12)), [tuple(range(1, 12))])
    groups = default_battery() + COPIES + (builtin_group("c6"),)

    def results():
        with pytest.raises(CapExceeded) as exc:
            fingerprint(chain)
        return fingerprint(p), [count_homs(p, g) for g in groups], str(exc.value)

    monkeypatch.delenv("LINKGROUPS_HOM_CAP", raising=False)
    want = results()
    assert want[2] == "6^11 assignments exceed the cap 100000000"
    for env in ("1", "abc", "1" * 5000):
        monkeypatch.setenv("LINKGROUPS_HOM_CAP", env)
        assert effective_cap() == effective_cap(None) == homcount.DEFAULT_CAP == 10 ** 8
        assert effective_cap(123) == 123
        assert results() == want


def test_cap_below_one_rejected_before_any_work():
    # neither a relator-free input nor the trivial group reaches the enumeration
    for p, g in ((P((1, 2), []), builtin_group("sym3")), (P((1,), [(1, 1)]), builtin_group("c1"))):
        for cap in (0, -1):
            with pytest.raises(ValueError, match=f"^the hom-count cap \\(--cap\\) must be at least 1, got {cap}$"):
                count_homs(p, g, cap=cap)
        # NaN compares false both ways, and once capped nothing
        with pytest.raises(ValueError, match="^the hom-count cap \\(--cap\\) must be an int, got nan$"):
            count_homs(p, g, cap=float("nan"))


def test_custom_table_text():
    text = "order 3\n0 1 2\n1 2 0\n2 0 1\n"
    g = load_table_text(text, name="z3")
    assert g.order == 3 and g.name == "z3"
    assert count_homs(P((1,), []), g) == 3
    with pytest.raises(ValueError):
        load_table_text("order 2\n0 1\n")  # missing row
    with pytest.raises(ValueError, match="order m"):
        load_table_text("order\n")


def test_custom_table_names_the_malformed_line():
    for field in ("x", "1_0", "+2", "-1", "\u0662"):
        with pytest.raises(ValueError) as exc:
            load_table_text(f"order {field}\n", name="t")
        assert str(exc.value) == f"table t line 1: {field!r} is not a nonnegative integer"
    for head in ("orderly 2", "order 2 junk"):
        with pytest.raises(ValueError, match="order m"):
            load_table_text(f"{head}\n0 1\n1 0\n")
    # blank and comment lines count towards the line number
    text = "# z3\n\norder 3\n0 1 2\n1 z 0\n2 0 1\n"
    with pytest.raises(ValueError, match=r"^table z3 line 5: 'z' is not a nonnegative integer$"):
        load_table_text(text, name="z3")
    assert load_table_text(text.replace("z", "2"), name="z3").order == 3


def test_group_order_ceiling_checked_before_the_table():
    too_big = MAX_GROUP_ORDER + 1
    with pytest.raises(ValueError, match="exceeds the ceiling"):
        builtin_group(f"c{too_big}")
    # no rows follow, so only the order line can trigger the ceiling
    with pytest.raises(ValueError, match="exceeds the ceiling"):
        load_table_text(f"order {too_big}\n")


def _in_sym4(name):
    """The sym4 id of each element of the battery group name; sym3's
    permutations fix the point 3."""
    index = {perm: i for i, perm in enumerate(_perms("sym4"))}
    return [index[perm + (3,)[len(perm) - 3:]] for perm in _perms(name)]


def test_battery_embeds_in_sym4():
    sym4 = builtin_group("sym4")
    for g in default_battery():
        image = _in_sym4(g.name)
        assert len(set(image)) == g.order
        for a in range(g.order):
            for b in range(g.order):
                assert image[g.table[a][b]] == sym4.table[image[a]][image[b]]


def test_klein_action_is_conjugation_in_sym4():
    # V = {e, (01)(23), (02)(13), (03)(12)} with coordinates in the basis
    # (01)(23), (02)(13); a sym3 element's matrix has as row c the
    # functional of the lane it picks (lane 2 is the sum of rows 0 and 1)
    picks = _lift_tables()[0]
    sym3, sym4 = builtin_group("sym3"), builtin_group("sym4")
    index = {perm: i for i, perm in enumerate(sorted(itertools.permutations(range(4))))}
    klein = {index[(0, 1, 2, 3)]: (0, 0), index[(1, 0, 3, 2)]: (1, 0),
             index[(2, 3, 0, 1)]: (0, 1), index[(3, 2, 1, 0)]: (1, 1)}
    functionals = ((1, 0), (0, 1), (1, 1))

    def matrix(g):
        return tuple(functionals[lane] for lane in picks[g])

    def apply(m, a):
        return tuple((r[0] * a[0] + r[1] * a[1]) % 2 for r in m)

    into = _in_sym4("sym3")
    for g in range(sym3.order):
        x = into[g]
        for v, coordinates in klein.items():
            assert klein[sym4.table[sym4.table[x][v]][sym4.inverse[x]]] == apply(matrix(g), coordinates)
        for h in range(sym3.order):
            product = tuple(apply(matrix(g), column) for column in zip(*matrix(h)))
            assert matrix(sym3.table[g][h]) == tuple(zip(*product))
    assert len({matrix(g) for g in range(sym3.order)}) == sym3.order  # faithful


def test_fixes_count_the_conjugates_into_each_group():
    # fix(K, H), the x in sym3 with x K x^-1 inside H, by brute force from
    # the battery's permutations for each of the six subgroups K of sym3,
    # is the row of _FIXES at |C(K)|, the popcount of the leaves' stabiliser
    sym3 = builtin_group("sym3")
    mul, inv = sym3.table, sym3.inverse
    into = _in_sym4("sym3")
    inside = [{i for i, x in enumerate(into) if x in _in_sym4(name)} for name in ("dihedral4", "alt4", "sym4")]
    subgroups = [k for k in itertools.chain.from_iterable(itertools.combinations(range(6), n) for n in range(1, 7))
                 if 0 in k and all(mul[a][b] in k for a in k for b in k)]
    assert len(subgroups) == 6
    centraliser_sizes = set()
    for k in subgroups:
        stabiliser = sum(1 << h for h in range(6) if all(mul[h][x] == mul[x][h] for x in k))
        fixes = tuple(sum(all(mul[mul[x][h]][inv[x]] in part for h in k) for x in range(6)) for part in inside)
        assert _FIXES[stabiliser.bit_count()] == fixes, k
        centraliser_sizes.add(stabiliser.bit_count())
    assert centraliser_sizes == set(_FIXES)


def test_lifted_fingerprint_matches_each_group_on_deep_plans():
    # 4-6 generators, each the deepest of a relator that names it once,
    # twice or three times, with inverse letters between; the default
    # battery's counts come from the sym3 homs and their lifts, the equal
    # copies enumerate each group
    rng = random.Random(2012)

    def word(top, length):
        return [rng.choice((1, -1)) * rng.randint(1, top - 1) for _ in range(length)]

    deep = few = many = 0
    for _ in range(200):
        n = rng.randint(4, 6)
        rels = []
        for top in range(2, n + 1):
            w = word(top, rng.randint(0, 2))
            a = rng.choice((1, -1)) * rng.randint(1, top - 1)
            kind = rng.randrange(4)
            if kind == 0:  # a conjugacy equation
                rels.append([top] + w + [a] + [-v for v in reversed(w)] + [-top] + word(top, rng.randint(0, 1)))
            elif kind == 1:  # named twice: a square root or a conjugacy equation
                rels.append([top] + w + [-top if rng.random() < 0.5 else top] + word(top, rng.randint(1, 2)))
            elif kind == 2:  # named three times
                rels.append([top] + w + [top, a, -top] + word(top, 1))
            else:  # a unique value, from x1 and x2
                rels.append([rng.choice((1, -1)) * top] + word(min(top, 3), 2))
        p = P(tuple(range(1, n + 1)), rels)
        counts = dict(fingerprint(p, cap=10 ** 9).counts)
        assert counts == {g.name: count_homs(P(p.generators, rels), g, cap=10 ** 9) for g in COPIES}
        assert split_extension_counts(p.generators, rels).items() <= counts.items()
        levels = plan(p)[0]
        deep += len(levels) >= 4
        # how many times each relator names its deepest generator
        named = [sum((i - 1) >> 1 == d for i in prog) for d, (_, tests) in enumerate(levels) for prog in tests]
        few += sum(n <= 2 for n in named)
        many += sum(n >= 3 for n in named)
    assert deep > 150 and few > 100 and many > 100


@st.composite
def battery_presentations(draw):
    gens = tuple(range(1, draw(st.integers(1, 5)) + 1))
    letter = st.sampled_from([v for g in gens for v in (g, -g)])
    rels = draw(st.lists(st.lists(letter, min_size=1, max_size=8), min_size=1, max_size=3))
    return gens, [tuple(r) for r in rels]


@settings(max_examples=80, deadline=None)
@given(battery_presentations())
def test_fingerprint_counts_match_each_group(spec):
    # the default battery is counted from one sym3 enumeration and its lifts
    gens, rels = spec
    counts = dict(fingerprint(P(gens, rels)).counts)
    p = P(gens, rels)
    assert counts == {g.name: count_homs(p, g) for g in COPIES}
    relators = [r.letters for r in p.relators]
    for g in default_battery():
        if g.order ** len(gens) <= 24 ** 3:
            assert counts[g.name] == brute_count_homs(gens, relators, g), g.name


def test_split_extension_oracle_matches_brute_force():
    # the oracle against every tuple of images, on up to three generators,
    # with free generators and relators that are not reduced
    rng = random.Random(1953)
    for _ in range(150):
        gens = tuple(range(1, rng.randint(1, 3) + 1))
        rels = [tuple(rng.choice(gens) * rng.choice((1, -1)) for _ in range(rng.randint(0, 9)))
                for _ in range(rng.randint(0, 3))]
        for name in SPLIT_EXTENSIONS:
            assert split_extension_count(gens, rels, name) == brute_count_homs(gens, rels, builtin_group(name))


def test_fingerprint_routes_by_table_identity():
    # the lift serves only the default battery's own tables, in any order
    # and in any battery; an impostor with a battery name is counted as itself
    sym3, dihedral4, alt4, sym4 = default_battery()
    c24_named_sym4 = make_table("sym4", builtin_group("c24").table)
    copy = dict(zip(default_battery(), COPIES))
    p = P((1, 2, 3), [(1, 2, -1, -2), (1, 1, 3, 2, -3), (2, 3, 3, 1, 1)])
    for battery in ((sym4, alt4, dihedral4, sym3), (sym3, dihedral4, alt4, c24_named_sym4),
                    (sym3, dihedral4, alt4, sym4)):
        fp = fingerprint(p, battery)
        assert fp.counts == tuple((g.name, count_homs(p, copy.get(g, g))) for g in battery)
    assert count_homs(p, c24_named_sym4) != count_homs(p, sym4)


def _renamed(p, ids):
    """p with its generators renamed in place to ids."""
    name = dict(zip(p.generators, ids))
    return P(ids, [tuple(name[v] if v > 0 else -name[-v] for v in r.letters) for r in p.relators])


def _random_presentation(rng, gens):
    pool = [v for g in gens for v in (g, -g)]
    return P(gens, [tuple(rng.choice(pool) for _ in range(rng.randint(1, 8))) for _ in range(rng.randint(1, 3))])


@pytest.fixture
def enumerations(monkeypatch):
    """The tables enumerated from here on, in call order, from a cleared
    memo of lifted sums."""
    tables = []

    def counting(g, plan, lift=False):
        tables.append(g)
        return _count_assignments(g, plan, lift)

    monkeypatch.setattr(homcount, "_count_assignments", counting)
    _lift_sums.cache_clear()
    return tables


def test_renamed_presentations_are_counted_once(enumerations):
    # renaming the generators in place, y included, keeps the slot words:
    # the copy's default battery is a memo hit per count and no enumeration
    rng = random.Random(33)
    served = 0
    for _ in range(150):
        gens = tuple(rng.sample(range(1, 8), rng.randint(1, 4))) + ((YID,) if rng.random() < 0.5 else ())
        p = _random_presentation(rng, gens)
        fp = fingerprint(p)
        q = _renamed(p, tuple(rng.sample(list(range(1, 10)) + [YID], len(gens))))
        hits, misses = _lift_sums.cache_info()[:2]
        enumerations.clear()
        assert fingerprint(q) == fp
        assert enumerations == []
        assert _lift_sums.cache_info()[:2] == (hits + 4 * bool(p.relators), misses)
        served += bool(p.relators)
    assert served > 100


def test_generators_in_no_relator_keep_the_key(enumerations):
    rng = random.Random(34)
    for _ in range(60):
        p = _random_presentation(rng, (1, 2, 3))
        counts = [count_homs(p, g) for g in default_battery()]
        for extra in ((4,), (YID,), (5, 4, YID)):
            gens = list(p.generators)
            for g in extra:
                gens.insert(rng.randint(0, len(gens)), g)
            q = P(tuple(gens), [r.letters for r in p.relators])
            assert _slot_words(q) == _slot_words(p)
            enumerations.clear()
            assert [count_homs(q, g) for g in default_battery()] == [
                c * g.order ** len(extra) for c, g in zip(counts, default_battery())]
            assert enumerations == []


def test_repeated_fingerprints_read_the_memo(enumerations, monkeypatch):
    forms = []

    def counting_smith(m):
        forms.append(m)
        return smith_normal_form(m)

    monkeypatch.setattr(present, "smith_normal_form", counting_smith)
    assert default_battery() is default_battery()
    sym3 = default_battery()[0]
    p = P((1, 2, 3), [(1, 2, -1, -2), (1, 1, 3, 2, -3), (2, 3, 3, 1, 1)])
    fp = fingerprint(p)
    assert enumerations == [sym3] and _lift_sums.cache_info()[:2] == (3, 1)
    assert len(forms) == 1 and p._invariants == fp.abelian
    # a repeat fingerprint reads the memo, by the slot words kept on p, and
    # the kept invariants: no enumeration and no Smith form
    slots = p._slots
    enumerations.clear()
    assert fingerprint(p) == fp and p._slots is slots
    assert enumerations == [] and len(forms) == 1
    assert _lift_sums.cache_info()[:2] == (7, 1)
    free = P((1, YID), [])  # counted from its free rank, no slot words or memo read
    assert fingerprint(free) == fingerprint(free) and free._slots is None
    assert _lift_sums.cache_info()[:2] == (7, 1)
    # equal tables that are not the battery's own are counted afresh, even
    # past a wrong memoised value, which count_homs and fingerprint both read
    fresh = P((1, 2, 3), [(1, 2, -1, -2), (1, 1, 3, 2, -3), (2, 3, 3, 1, 1)])
    assert fingerprint(fresh, COPIES) == fp and _lift_sums.cache_info()[:2] == (7, 1)
    monkeypatch.setattr(homcount, "_lift_sums", lambda slots: (-1, -2, -3, -4))
    assert fingerprint(p, COPIES) == fp
    assert count_homs(p, COPIES[0]) == dict(fp.counts)["sym3"]
    assert fingerprint(p, (sym3,)).counts == (("sym3", -1),)
    assert [count_homs(p, g) for g in default_battery()[::-1]] == [-4, -3, -2, -1]
    assert fingerprint(p).counts == tuple(zip(("sym3", "dihedral4", "alt4", "sym4"), (-1, -2, -3, -4)))


def test_a_fingerprint_outlives_64_other_forms(enumerations):
    # the memo keeps the 64 latest slot-word forms; a presentation counted
    # again after 64 others is enumerated once more, to the same counts
    sym3 = default_battery()[0]
    p = P((1, 2, 3), [(1, 2, -1, -2), (1, 1, 3, 2, -3), (2, 3, 3, 1, 1)])
    fp = fingerprint(p)
    others = [P((1, 2), [(1,) * j + (2, -1, -2)]) for j in range(1, 71)]
    assert len({_slot_words(q) for q in others} | {_slot_words(p)}) == len(others) + 1
    for q in others:
        count_homs(q, sym3)
    enumerations.clear()
    assert fingerprint(p) == fp
    assert enumerations == [sym3]


def test_tables_outside_the_battery_are_enumerated_afresh(enumerations):
    sym3 = default_battery()[0]
    text = "order 6\n" + "\n".join(" ".join(map(str, row)) for row in sym3.table)
    # the battery's tables are found by name, then identity: a table named
    # sym3 is not the battery's own
    tables = [load_table_text(text, name) for name in ("sym3.txt", "sym3")]
    p = P((1, 2, 3), [(1, 2, -1, -2), (1, 1, 3, 2, -3), (2, 3, 3, 1, 1)])
    fp = fingerprint(p)
    assert enumerations == [sym3]
    # equal copies and table: groups never read the memo, for p or a renamed copy
    for q in (p, _renamed(p, (4, YID, 1)), p):
        enumerations.clear()
        info = _lift_sums.cache_info()
        assert fingerprint(q, COPIES) == fp
        assert [count_homs(q, table) for table in tables] == [dict(fp.counts)["sym3"]] * 2
        assert enumerations == list(COPIES) + tables
        assert _lift_sums.cache_info() == info


def test_kept_counts_still_check_the_cap():
    trial_417 = parse_presentation(TRIAL_417)
    # 6^6 is within the default cap: the battery reads the sym3 enumeration
    fp = fingerprint(trial_417)
    slots = trial_417._slots
    assert dict(fp.counts)["sym3"] == 396
    # its sums are memoised, but a refused count reads no memo
    info = _lift_sums.cache_info()
    for _ in range(2):
        with pytest.raises(CapExceeded) as exc:
            fingerprint(trial_417, cap=10 ** 4)
        assert str(exc.value) == "6^6 assignments exceed the cap 10000"
        for g in default_battery():
            with pytest.raises(CapExceeded) as exc:
                count_homs(trial_417, g, cap=10 ** 4)
            assert str(exc.value) == "6^6 assignments exceed the cap 10000"
    assert _lift_sums.cache_info() == info
    assert fingerprint(trial_417, cap=6 ** 6) == fp and trial_417._slots is slots
    assert _lift_sums.cache_info().hits == info.hits + 4


def test_fingerprint_structure():
    p = P((1, YID), [])
    fp = fingerprint(p)
    assert isinstance(fp, Fingerprint)
    assert fp.abelian == abelian_invariants(p)
    assert [name for name, _ in fp.counts] == ["sym3", "dihedral4", "alt4", "sym4"]
    assert dict(fp.counts)["sym3"] == 36
    assert "sym3=36" in str(fp)


def test_fingerprint_separates_free_ranks():
    fp2 = fingerprint(P((1, YID), []))
    fp3 = fingerprint(P((1, 2, YID), []))
    assert fp2 != fp3
    assert dict(fp2.counts)["sym3"] == 36
    assert dict(fp3.counts)["sym3"] == 216
