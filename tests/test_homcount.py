"""Hom counting: builtin tables, brute-force agreement, invariances."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from linkgroups.freegroup import Ambient, Word, YID
from linkgroups.homcount import (
    MAX_GROUP_ORDER,
    CapExceeded,
    Fingerprint,
    _in_sym4,
    _is_abelian,
    _lift_tables,
    _plan,
    builtin_group,
    count_homs,
    default_battery,
    effective_cap,
    fingerprint,
    load_table_text,
    make_table,
)
from linkgroups.present import (
    Presentation,
    abelian_invariants,
    format_presentation,
    parse_presentation,
    tietze_step,
)

from oracles import brute_count_homs, direct_product_table


def P(gens, relator_letter_tuples):
    nx = max((g for g in gens if g != YID), default=0)
    amb = Ambient(nx, YID in gens)
    return Presentation(tuple(gens), [Word(amb, t) for t in relator_letter_tuples])


def test_builtin_orders():
    assert builtin_group("c1").order == 1
    assert builtin_group("c5").order == 5
    assert builtin_group("sym3").order == 6
    assert builtin_group("dihedral4").order == 8
    assert builtin_group("d4").order == 8
    assert builtin_group("d4") is builtin_group("dihedral4")  # one table and one set of symmetry data
    assert builtin_group("alt4").order == 12
    assert builtin_group("sym4").order == 24
    with pytest.raises(ValueError):
        builtin_group("nope")


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
    for g in default_battery():
        mul = g.table
        classes, centralisers = g._orbits(0)  # S_0 = G acts on itself by conjugation
        assert sorted(classes.values()) == sizes[g.name]
        count_homs(trial_417, g, cap=10 ** 9)
        for s in centralisers.values():  # S_1 = C(v) for every class representative v
            g._orbits(s)
        ids, data = g._stabilisers
        assert len(data) > 1
        for s, (hs, orbits, moves) in enumerate(data):
            assert ids[hs] == s
            if orbits is None:  # met, not entered
                continue
            assert sum(orbits.values()) == g.order
            # orbit-counting lemma: the number of orbits is the mean number of fixed points
            fixed = sum(mul[h][x] == mul[x][h] for h in hs for x in range(g.order))
            assert len(orbits) * len(hs) == fixed
            # a representative v moves S to S intersected with C(v)
            for v, t in moves.items():
                assert data[t][0] == tuple(h for h in hs if mul[h][v] == mul[v][h])


def test_invalid_tables_rejected():
    with pytest.raises(ValueError):
        make_table("bad", [[0, 1], [1, 1]])  # 1 has no inverse row
    with pytest.raises(ValueError):
        make_table("bad", [[1, 0], [0, 1]])  # 0 not identity
    with pytest.raises(ValueError):
        make_table("bad", [[0, 1], [1, 0], [0, 1]])  # not square


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
        assert count_homs(p, g6) == expected


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
    for g in default_battery():
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
    for g in default_battery():
        assert count_homs(p, g) == brute_count_homs(p.generators, [r.letters for r in p.relators], g)


def test_symmetry_data_belongs_to_the_table():
    # a non-abelian impostor: dihedral4's table named sym3
    sym3, dihedral4 = builtin_group("sym3"), builtin_group("dihedral4")
    fresh_dihedral4 = make_table("dihedral4", dihedral4.table)
    named_sym3 = make_table("sym3", dihedral4.table)
    commutator = P((1, 2), [(1, 2, -1, -2)])
    assert count_homs(commutator, sym3) == 18
    assert count_homs(commutator, named_sym3) == count_homs(commutator, fresh_dihedral4) == 40
    assert named_sym3._stabilisers == fresh_dihedral4._stabilisers != sym3._stabilisers
    # x3 is the deepest generator of x1 x1 x2 x2 x3 x1 x3^-1, and x2 of x1 x2 x1 x2
    fresh_sym3 = make_table("sym3", sym3.table)
    deep = P((1, 2, 3), [(1, 1, 2, 2, 3, 1, -3), (1, 2, 1, 2)])
    for g in (fresh_sym3, named_sym3):
        assert count_homs(deep, g) == brute_count_homs((1, 2, 3), [r.letters for r in deep.relators], g)
    assert named_sym3._stabilisers != fresh_sym3._stabilisers


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
    plan = None
    for g in default_battery() + (named_sym3,):
        # one object counted into every group builds its plan once
        count = count_homs(p, g)
        plan = plan or p._plan
        assert p._plan is plan
        assert count == count_homs(P(gens, rels), g)
        if g.name in checked:
            assert count == brute_count_homs(p.generators, relators, g), g.name


def test_plan_shares_identical_pieces():
    # slots x1, x2, x3 by occurrence; both relators reach x3's level, and
    # both start with the piece x1 x2 x1^-1
    p = P((1, 2, 3), [(1, 2, -1, 3), (1, 2, -1, -3, 1, 2)])
    levels, size = _plan(p)
    x1, x1inv, x2, x3, x3inv = 1, 2, 3, 5, 6
    assert size == 1 + 2 * 3 + 2
    assert levels[0] == levels[1] == ((), ())
    assert levels[2] == (
        ((7, (x1, x2, x1inv)), (8, (x1, x2))),  # evaluated on entering x3's level
        ((7, x3), (7, x3inv, 8)),  # tested on every value of x3
    )
    for g in default_battery():
        assert count_homs(p, g) == brute_count_homs(p.generators, [r.letters for r in p.relators], g)


def test_over_cap_count_builds_no_plan():
    p = P((1, 2, 3), [(1, 2, 3)])
    sym3 = builtin_group("sym3")
    with pytest.raises(CapExceeded, match="exceed the cap 10$"):
        count_homs(p, sym3, cap=10)
    assert p._plan is None
    assert count_homs(p, sym3) == 36
    assert p._plan is not None
    # a built plan is no way round the cap
    with pytest.raises(CapExceeded, match="exceed the cap 10$"):
        count_homs(p, sym3, cap=10)
    # 6^3, 8^3, 12^3, 24^3 = 216, 512, 1728, 13824: fingerprint checks the
    # cap for every group, in battery order, before any group is counted
    for battery, cap, first in ((None, 1000, "12^3"), (None, 10000, "24^3"),
                                (default_battery()[::-1], 1000, "24^3")):
        p = P((1, 2, 3), [(1, 2, 3)])
        with pytest.raises(CapExceeded) as exc:
            fingerprint(p, battery, cap=cap)
        assert str(exc.value) == f"{first} assignments exceed the cap {cap}"
        assert p._plan is None
    trial_417 = parse_presentation(TRIAL_417)
    with pytest.raises(CapExceeded) as exc:
        fingerprint(trial_417)
    assert str(exc.value) == "24^6 assignments exceed the cap 100000000"
    assert trial_417._plan is None


def test_plan_is_outside_equality_and_hashing():
    text = "gens: x1 x2 y\nrel: x1 x2 x1^-1 y\nrel: x2 y x2 y^-1\n"
    p, q = parse_presentation(text), parse_presentation(text)
    before = hash(p)
    fingerprint(p)
    assert p._plan is not None and q._plan is None
    assert p == q and hash(p) == hash(q) == before


def test_tietze_steps_count_like_parsed_presentations():
    # tietze_step builds its result without the public constructor
    rng = random.Random(10)
    battery = default_battery()
    for _ in range(60):
        gens = (1, 2, 3, 4)
        pool = [v for g in gens for v in (g, -g)]
        rels = [tuple(rng.choice(pool) for _ in range(rng.randint(1, 10))) for _ in range(3)]
        current = P(gens, rels)
        while (current := tietze_step(current)) is not None:
            fresh = parse_presentation(format_presentation(current))
            assert fresh == current and fresh._plan is current._plan is None
            assert [count_homs(current, g) for g in battery] == [count_homs(fresh, g) for g in battery]


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
    p = parse_presentation(TRIAL_417)
    counts = {g.name: count_homs(p, g, cap=10 ** 9) for g in default_battery()}
    assert counts == {"sym3": 396, "dihedral4": 1792, "alt4": 3168, "sym4": 24768}
    assert dict(fingerprint(parse_presentation(TRIAL_417), cap=10 ** 9).counts) == counts


def test_abelian_check_matches_the_transpose():
    c2, sym3 = builtin_group("c2"), builtin_group("sym3")
    c2c2c2 = direct_product_table(direct_product_table(c2.table, c2.table), c2.table)
    tables = [builtin_group(n) for n in ("c1", "c2", "c12", "sym3", "dihedral4", "alt4", "sym4")]
    tables += [make_table("c2^3", c2c2c2), make_table("sym3xc2", direct_product_table(sym3.table, c2.table)),
               make_table("c2xsym3", direct_product_table(c2.table, sym3.table))]
    for g in tables:
        assert _is_abelian(g) == (g.table == tuple(zip(*g.table))), g.name


def test_abelian_tables_are_not_reduced():
    g = builtin_group("c1024")
    commutator = P((1, 2), [(1, 2, -1, -2)])
    assert count_homs(commutator, g) == 1024 ** 2
    assert count_homs(P((1, 2), [(1, 2, 1, 2)]), g) == 2048
    assert count_homs(P((1, 2), [(1, 2, 1, -2)]), g) == 2048
    # counted from the abelian invariants: no stabiliser data is built
    assert "_stabilisers" not in vars(g)


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
        assert "_stabilisers" not in vars(g)


def test_cyclic_count_closed_form():
    # |Hom(G, Z/k)| = k^r times the product of gcd(d, k) over the torsion d
    g = builtin_group("c1024")
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
    for g in default_battery():
        assert count_homs(p, g) == brute_count_homs((1, 2, 3), rels, g), g.name
    fresh_sym4 = make_table("sym4", builtin_group("sym4").table)
    assert count_homs(p, fresh_sym4) == count_homs(p, builtin_group("sym4"))
    # sym4's elements are its permutations in sorted order; the Klein
    # four-group is the centraliser of no single element, so only a depth
    # of 2 or more meets it
    index = {perm: i for i, perm in enumerate(sorted(itertools.permutations(range(4))))}
    klein = tuple(sorted(index[perm] for perm in ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))))
    ids, data = fresh_sym4._stabilisers
    assert data[ids[klein]][1] is not None  # entered, with its orbits built


def test_count_invariant_under_reordering_and_cycling():
    g = builtin_group("dihedral4")
    rel = (1, 2, -1, 2, 2)
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
    # free generators are not enumerated, so huge free groups stay cheap
    assert count_homs(P(tuple(range(1, 12)), []), builtin_group("sym4"), cap=10) == 24 ** 11


def test_enumeration_deeper_than_the_recursion_limit():
    # one relator through k generators makes the enumeration k levels deep
    def chain(k):
        return P(tuple(range(1, k + 1)), [tuple(range(1, k + 1))])

    assert count_homs(chain(1000), builtin_group("c1")) == 1
    with pytest.raises(CapExceeded, match="recurses deeper"):
        count_homs(chain(1500), builtin_group("sym3"), cap=6 ** 1500)
    # an abelian group is counted from the abelian invariants, Z^1499
    assert count_homs(chain(1500), builtin_group("c2"), cap=10 ** 500) == 2 ** 1499
    # the default battery's one enumeration and its lifts run inside the same guard
    with pytest.raises(CapExceeded, match="recurses deeper"):
        fingerprint(chain(1500), cap=10 ** 2100)


def test_effective_cap_env(monkeypatch):
    monkeypatch.delenv("LINKGROUPS_HOM_CAP", raising=False)
    assert effective_cap(None) == 10 ** 8
    assert effective_cap(123) == 123
    monkeypatch.setenv("LINKGROUPS_HOM_CAP", "5000")
    assert effective_cap(None) == 5000


def test_cap_below_one_rejected_before_any_work(monkeypatch):
    monkeypatch.delenv("LINKGROUPS_HOM_CAP", raising=False)
    # neither a relator-free input nor the trivial group reaches the enumeration
    for p, g in ((P((1, 2), []), builtin_group("sym3")), (P((1,), [(1, 1)]), builtin_group("c1"))):
        for cap in (0, -1):
            with pytest.raises(ValueError, match="--cap"):
                count_homs(p, g, cap=cap)
        for env in ("abc", "0", "-3", "2.5"):
            monkeypatch.setenv("LINKGROUPS_HOM_CAP", env)
            with pytest.raises(ValueError, match="LINKGROUPS_HOM_CAP"):
                count_homs(p, g)
        monkeypatch.delenv("LINKGROUPS_HOM_CAP")


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


def test_lifted_fingerprint_matches_each_group_on_deep_plans():
    # 4-6 generators, each the deepest of a relator that names it once,
    # twice or three times, with inverse letters between; the default
    # battery's counts come from the sym3 homs and their lifts, the others
    # enumerate each group
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
        assert counts == {g.name: count_homs(P(p.generators, rels), g, cap=10 ** 9) for g in default_battery()}
        if p._plan is not None:
            levels = p._plan[0]
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
    # the default battery is counted in one sym4 enumeration
    gens, rels = spec
    counts = dict(fingerprint(P(gens, rels)).counts)
    p = P(gens, rels)
    assert counts == {g.name: count_homs(p, g) for g in default_battery()}
    relators = [r.letters for r in p.relators]
    for g in default_battery():
        if g.order ** len(gens) <= 24 ** 3:
            assert counts[g.name] == brute_count_homs(gens, relators, g), g.name


def test_fingerprint_routes_by_table_identity():
    # one sym4 enumeration serves only the default battery's own tables
    sym3, dihedral4, alt4, sym4 = default_battery()
    c24_named_sym4 = make_table("sym4", builtin_group("c24").table)
    p = P((1, 2, 3), [(1, 2, -1, -2), (1, 1, 3, 2, -3), (2, 3, 3, 1, 1)])
    for battery in ((sym4, alt4, dihedral4, sym3), (sym3, dihedral4, alt4, c24_named_sym4),
                    (sym3, dihedral4, alt4, sym4)):
        fp = fingerprint(p, battery)
        assert fp.counts == tuple((g.name, count_homs(p, g)) for g in battery)
    assert count_homs(p, c24_named_sym4) != count_homs(p, sym4)


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
