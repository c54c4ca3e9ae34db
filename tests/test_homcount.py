"""Hom counting: builtin tables, brute-force agreement, invariances."""

import random

import pytest

from linkgroups.freegroup import Ambient, Word, YID
from linkgroups.homcount import (
    MAX_GROUP_ORDER,
    CapExceeded,
    Fingerprint,
    builtin_group,
    count_homs,
    default_battery,
    effective_cap,
    fingerprint,
    load_table_text,
    make_table,
)
from linkgroups.present import Presentation, abelian_invariants

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
        count_homs(chain(1500), builtin_group("c2"), cap=10 ** 500)


def test_effective_cap_env(monkeypatch):
    monkeypatch.delenv("LINKGROUPS_HOM_CAP", raising=False)
    assert effective_cap(None) == 10 ** 8
    assert effective_cap(123) == 123
    monkeypatch.setenv("LINKGROUPS_HOM_CAP", "5000")
    assert effective_cap(None) == 5000


def test_custom_table_text():
    text = "order 3\n0 1 2\n1 2 0\n2 0 1\n"
    g = load_table_text(text, name="z3")
    assert g.order == 3 and g.name == "z3"
    assert count_homs(P((1,), []), g) == 3
    with pytest.raises(ValueError):
        load_table_text("order 2\n0 1\n")  # missing row
    with pytest.raises(ValueError, match="order m"):
        load_table_text("order\n")


def test_group_order_ceiling_checked_before_the_table():
    too_big = MAX_GROUP_ORDER + 1
    with pytest.raises(ValueError, match="exceeds the ceiling"):
        builtin_group(f"c{too_big}")
    # no rows follow, so only the order line can trigger the ceiling
    with pytest.raises(ValueError, match="exceeds the ceiling"):
        load_table_text(f"order {too_big}\n")


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
