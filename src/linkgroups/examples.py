"""Worked examples wired together as a regression suite.

Each check returns (label, passed, detail).  The braids here are the
standard small test cases of the theory: the unknot, the virtual trefoil
(closure of s1 s1 r1), the Kishino knot as a 3-strand closure, an
exchange-move pair, and the 22-letter Kishino braid.  This module is the
one place their words, the expected Kishino images and the pinned
invariants and counts are written; the acceptance tests run these checks.
"""

from __future__ import annotations

from . import braid, present, reps
from .freegroup import YID, is_identity, parse_word
from .homcount import builtin_group, count_homs, fingerprint
from .present import (
    AbelianInvariants,
    abelian_invariants,
    free_rank_certificate,
    group_of_virtual_link,
    parse_presentation,
    quotient_y,
    tietze_simplify,
)

VIRTUAL_TREFOIL = "s1 s1 r1"
# |Hom(G, S3)| of the virtual trefoil's group, pinned from the enumeration
# oracle; the free group of rank 2 has 36
TREFOIL_SYM3 = 30
KISHINO_CLOSURE = "r1 s1 s2 s1 r1 s1^-1 s2^-1 s1^-1"
KISHINO_BRAID = (
    "s2 s1 r2 s1^-1 s2^-1 r1 s2^-1 s1^-1 r2 s1 s2 "
    "s2 s1 r2 s1^-1 s2^-1 r1 s2^-1 s1^-1 r2 s1 s2"
)

KISHINO_IMAGES = {
    1: "y y x3^-1 x2 x3 y^-1 y^-1 x3 y y x3^-1 x2^-1 x3 y^-1 y^-1",
    2: "x3^-1 x2 x3 y^-1 y^-1 x3 y x3^-1 x2^-1 x1 x2 x3 y^-1 x3^-1 y y x3^-1 x2^-1 x3",
    3: "y x3^-1 x2 x3 y^-1",
    YID: "y",
}
# |Hom(G / <<y>>, S3)| of the Kishino closure's group
KISHINO_QUOTIENT_SYM3 = 6

# the exchange pair splits this word as (b1, b1^-1); the one-relator form
# is the presentation its group passes through while simplifying
EXCHANGE_BRAID = "s1 r1 s1"
EXCHANGE_RELATOR = "y x1 y^-1 x2^-1"


def check_unknot():
    p = group_of_virtual_link(braid.BraidWord(1, "virtual", ()))
    ok = (
        free_rank_certificate(p) == 2
        and abelian_invariants(p) == AbelianInvariants(2, ())
    )
    return "unknot-closure-group-free-of-rank-2", ok, str(abelian_invariants(p))


def check_virtual_trefoil():
    b = braid.parse(VIRTUAL_TREFOIL, 2, "virtual")
    p = group_of_virtual_link(b)
    sym3 = builtin_group("sym3")
    inv = abelian_invariants(p)
    count = count_homs(p, sym3)
    free2 = present.Presentation((1, YID))
    ok = (
        inv == AbelianInvariants(2, ())
        and count == TREFOIL_SYM3
        and count < 36
        and count_homs(free2, sym3) == 36
        and free_rank_certificate(p) is None
    )
    return (
        "virtual-trefoil-group-not-free",
        ok,
        f"abelian={inv} sym3={count} (free rank 2 gives 36)",
    )


def check_kishino_closure():
    b = braid.parse(KISHINO_CLOSURE, 3, "virtual")
    rep = reps.virtual(3)
    e = rep.evaluate(b)
    for gid, text in KISHINO_IMAGES.items():
        if e.images[gid] != parse_word(text, rep.ambient):
            return "kishino-closure", False, f"image of generator {gid} differs"
    p = group_of_virtual_link(b)
    if free_rank_certificate(p) != 2:
        return "kishino-closure", False, "group did not simplify to a free group of rank 2"
    q = quotient_y(p)
    inv = abelian_invariants(q)
    count = count_homs(q, builtin_group("sym3"))
    ok = inv == AbelianInvariants(1, ()) and count == KISHINO_QUOTIENT_SYM3
    return "kishino-closure", ok, f"y-quotient abelian={inv} sym3={count}"


def check_exchange_link():
    b1 = braid.parse(EXCHANGE_BRAID, 2, "virtual")
    b2 = braid.braid_inverse(b1)
    classical_form, virtual_form = braid.exchange_pair(b1, b2, "right")
    fp_c = fingerprint(tietze_simplify(group_of_virtual_link(classical_form)).presentation)
    fp_v = fingerprint(tietze_simplify(group_of_virtual_link(virtual_form)).presentation)
    if fp_c != fp_v:
        return "exchange-pair", False, f"{fp_c} != {fp_v}"
    one_relator = parse_presentation(f"gens: x1 x2 y\nrel: {EXCHANGE_RELATOR}")
    simplified = tietze_simplify(one_relator).presentation
    if len(simplified.generators) != 2 or simplified.relators or fingerprint(simplified) != fp_v:
        return "exchange-pair", False, f"the one-relator form simplifies to {simplified}"
    p = group_of_virtual_link(virtual_form)
    sym3 = builtin_group("sym3")
    count = count_homs(p, sym3)
    free3 = present.Presentation((1, 2, YID))
    trivial_count = count_homs(free3, sym3)
    ok = (
        free_rank_certificate(p) == 2
        and count == 36
        and trivial_count == 216
        and count != trivial_count
    )
    return "exchange-pair", ok, f"sym3={count} vs trivial closure {trivial_count}"


def check_kishino_braid():
    b = braid.parse(KISHINO_BRAID, 3, "virtual")
    e = reps.virtual(3).evaluate(b)
    ok = not is_identity(e)
    return "kishino-braid-acts-nontrivially", ok, ""


def _relations_all_hold(rep):
    return all(r.holds for r in reps.check_relations(rep))


def check_representations():
    for n in (3, 4):
        for rep in (reps.artin(n), reps.virtual(n), reps.welded(n), reps.wada(n, 2)):
            if not _relations_all_hold(rep):
                return "defining-relations", False, f"{rep.name} fails at n={n}"
        for h in (1, 2, 3):
            if not _relations_all_hold(reps.wada(n, 1, h)):
                return "defining-relations", False, f"wada1 h={h} fails at n={n}"
    return "defining-relations", True, ""


def check_forbidden_moves():
    rep = reps.virtual(3)
    reports = reps.check_relations(rep, braid.forbidden_relations(3))
    f1 = [r for r in reports if r.relation.name == "F1"]
    f2 = [r for r in reports if r.relation.name == "F2"]
    ok = (
        f1
        and f2
        and all(not r.holds and r.witness is not None for r in f1 + f2)
        and all(r.holds for r in reports if r.relation.name not in ("F1", "F2"))
    )
    return "forbidden-moves-fail-virtually", bool(ok), ""


def check_wada_classification():
    for k in (3, 4):
        for n in (3, 4):
            reports = reps.check_relations(reps.wada(n, k))
            bad = {r.relation.name for r in reports if not r.holds}
            if bad != {"mixed"}:
                return (
                    "wada-classification",
                    False,
                    f"type {k} at n={n} fails at {sorted(bad)} instead of the mixed relation",
                )
            if any(r.holds or r.witness is None for r in reports if r.relation.name == "mixed"):
                return "wada-classification", False, f"type {k} at n={n}: a mixed relation has no witness"
    return "wada-classification", True, "types 1,2 extend; 3,4 fail exactly at the mixed relation"


def run_examples():
    checks = (
        check_unknot,
        check_virtual_trefoil,
        check_kishino_closure,
        check_exchange_link,
        check_kishino_braid,
        check_representations,
        check_forbidden_moves,
        check_wada_classification,
    )
    return [check() for check in checks]
