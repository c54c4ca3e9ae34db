"""Exact counting of homomorphisms into small finite groups.

The count of maps from a finitely presented group into a fixed battery
of small groups, together with the abelian invariants, is the
fingerprint used to distinguish presented groups: equal fingerprints are
necessary for isomorphism, unequal ones certify non-isomorphism.

Enumeration is the oracle: every tuple of images is tried, with early
abort on the first relator that fails once all its generators are
assigned.  Generators that appear in no relator contribute an exact
factor |G|^k without being enumerated.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from functools import lru_cache

from .present import AbelianInvariants, Presentation, abelian_invariants

DEFAULT_CAP = 10 ** 8
_CAP_ENV = "LINKGROUPS_HOM_CAP"
# the largest order of a c<k> or table: group; its table has order^2 entries
MAX_GROUP_ORDER = 1024


class CapExceeded(RuntimeError):
    """The enumeration space is larger than the configured cap, or deeper
    than the interpreter can recurse."""


def effective_cap(cap=None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(_CAP_ENV)
    return int(env) if env else DEFAULT_CAP


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group as a multiplication table over ids 0..m-1 with
    identity 0 and a precomputed inverse table."""

    name: str
    order: int
    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]


def _validate(name, table):
    m = len(table)
    if m == 0 or any(len(row) != m for row in table):
        raise ValueError(f"{name}: table must be square and nonempty")
    for row in table:
        for v in row:
            if not 0 <= v < m:
                raise ValueError(f"{name}: entry {v} out of range")
    for j in range(m):
        if table[0][j] != j or table[j][0] != j:
            raise ValueError(f"{name}: element 0 is not a two-sided identity")
    inverse = [None] * m
    for i in range(m):
        for j in range(m):
            if table[i][j] == 0 and table[j][i] == 0:
                inverse[i] = j
                break
        if inverse[i] is None:
            raise ValueError(f"{name}: element {i} has no two-sided inverse")
    if m <= 64:
        triples = itertools.product(range(m), repeat=3)
    else:
        rng = random.Random(0)
        triples = ((rng.randrange(m), rng.randrange(m), rng.randrange(m)) for _ in range(1000))
    for a, b, c in triples:
        if table[table[a][b]][c] != table[a][table[b][c]]:
            raise ValueError(f"{name}: not associative at ({a}, {b}, {c})")
    return tuple(inverse)


def make_table(name: str, table) -> FiniteGroupTable:
    table = tuple(tuple(row) for row in table)
    inverse = _validate(name, table)
    return FiniteGroupTable(name, len(table), table, inverse)


def _perm_compose(p, q):
    # apply p first, then q
    return tuple(q[v] for v in p)


def _table_from_perms(name, perms):
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[_perm_compose(a, b)] for b in perms] for a in perms]
    return make_table(name, table)


@lru_cache(maxsize=None)
def builtin_group(name: str) -> FiniteGroupTable:
    """sym3, sym4, alt4, dihedral4 (alias d4), or c<k> for the cyclic
    group of order k."""
    if name in ("d4", "dihedral4"):
        rot = (1, 2, 3, 0)
        refl = (3, 2, 1, 0)
        elems = {(0, 1, 2, 3)}
        frontier = [(0, 1, 2, 3)]
        while frontier:
            p = frontier.pop()
            for g in (rot, refl):
                q = _perm_compose(p, g)
                if q not in elems:
                    elems.add(q)
                    frontier.append(q)
        return _table_from_perms("dihedral4", elems)
    if name == "sym3":
        return _table_from_perms("sym3", itertools.permutations(range(3)))
    if name == "sym4":
        return _table_from_perms("sym4", itertools.permutations(range(4)))
    if name == "alt4":
        evens = [p for p in itertools.permutations(range(4)) if _parity(p) == 0]
        return _table_from_perms("alt4", evens)
    if name.startswith("c") and name[1:].isdigit():
        k = int(name[1:])
        if k < 1:
            raise ValueError("cyclic order must be positive")
        _check_order(k)
        return make_table(name, [[(i + j) % k for j in range(k)] for i in range(k)])
    raise ValueError(f"unknown builtin group {name!r}")


def _check_order(m: int):
    if m > MAX_GROUP_ORDER:
        raise ValueError(f"group order {m} exceeds the ceiling {MAX_GROUP_ORDER}")


def _parity(p):
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


def load_table_text(text: str, name: str = "custom") -> FiniteGroupTable:
    """Parse the custom group file format: line 1 `order m`, then m lines
    of m whitespace-separated element ids."""
    lines = [l for l in (s.strip() for s in text.splitlines()) if l and not l.startswith("#")]
    head = lines[0].split() if lines else []
    if len(head) < 2 or not head[0].startswith("order"):
        raise ValueError("first line must be 'order m'")
    m = int(head[1])
    _check_order(m)
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} table rows, got {len(lines) - 1}")
    table = [[int(v) for v in line.split()] for line in lines[1:]]
    return make_table(name, table)


# ---------------------------------------------------------------------------
# counting


def _compile(p: Presentation, g: FiniteGroupTable, cap):
    """Encode the relators for the backtracking enumeration, in one pass.

    The generators that occur in some relator are ordered by descending
    occurrence (first listed first on ties) and the cap is checked.  Each
    relator goes to the depth of its deepest generator, split into that
    generator's occurrences and the constant segments between them, so each
    tree node evaluates the constants once and the per-value work is one
    fold over the occurrences.  Returns the deduplicated (segments,
    exponents) pairs of each depth, in relator order."""
    occ = {gid: 0 for gid in p.generators}
    for r in p.relators:
        for v in r.letters:
            occ[abs(v)] += 1
    active = [gid for gid in p.generators if occ[gid]]
    active.sort(key=lambda gid: (-occ[gid], p.generators.index(gid)))
    k = len(active)
    cap = effective_cap(cap)
    if g.order ** k > cap:
        raise CapExceeded(f"{g.order}^{k} assignments exceed the cap {cap}")
    slot = {gid: s for s, gid in enumerate(active)}
    compiled = [{} for _ in range(k)]  # insertion-ordered sets
    for r in p.relators:
        encoded = [(slot[abs(v)], 1 if v > 0 else -1) for v in r.letters]
        depth = max(s for s, _ in encoded)
        segs, exps, cur = [], [], []
        for s, sg in encoded:
            if s == depth:
                segs.append(tuple(cur))
                cur = []
                exps.append(sg)
            else:
                cur.append((s, sg))
        segs.append(tuple(cur))
        compiled[depth][(tuple(segs), tuple(exps))] = None
    return [list(rels) for rels in compiled]


def _count_assignments(g: FiniteGroupTable, compiled):
    mul = g.table
    inv = g.inverse
    order = g.order
    k = len(compiled)
    assign = [0] * k

    def rec(depth):
        consts = []
        for segs, exps in compiled[depth]:
            cs = []
            for seg in segs:
                w = 0
                for s, sg in seg:
                    w = mul[w][assign[s] if sg > 0 else inv[assign[s]]]
                cs.append(w)
            consts.append((cs, exps))
        total = 0
        last = depth == k - 1
        for v in range(order):
            vinv = inv[v]
            ok = True
            for cs, exps in consts:
                w = cs[0]
                i = 1
                for e in exps:
                    w = mul[w][v if e > 0 else vinv]
                    c = cs[i]
                    if c:
                        w = mul[w][c]
                    i += 1
                if w:
                    ok = False
                    break
            if ok:
                if last:
                    total += 1
                else:
                    assign[depth] = v
                    total += rec(depth + 1)
        return total

    try:
        return rec(0)
    except RecursionError:
        raise CapExceeded(
            f"enumerating {k} generators recurses deeper than the interpreter allows"
        ) from None


def count_homs(p: Presentation, g: FiniteGroupTable, cap=None) -> int:
    """The exact number of homomorphisms from the presented group to g."""
    if g.order == 1 or not p.relators:
        return g.order ** len(p.generators)
    compiled = _compile(p, g, cap)
    free = len(p.generators) - len(compiled)
    return g.order ** free * _count_assignments(g, compiled)


# ---------------------------------------------------------------------------
# fingerprints

_BATTERY_NAMES = ("sym3", "dihedral4", "alt4", "sym4")


def default_battery() -> tuple[FiniteGroupTable, ...]:
    """The smallest groups rich enough to separate the worked example
    pairs while keeping |G|^gens enumerable at desk scale."""
    return tuple(builtin_group(n) for n in _BATTERY_NAMES)


@dataclass(frozen=True)
class Fingerprint:
    abelian: AbelianInvariants
    counts: tuple[tuple[str, int], ...]

    def __str__(self):
        counted = " ".join(f"{n}={c}" for n, c in self.counts)
        return f"abelian={self.abelian} {counted}"


def fingerprint(p: Presentation, battery=None, cap=None) -> Fingerprint:
    """Abelian invariants plus hom counts over the battery, in battery
    order.  Equal fingerprints are necessary for isomorphism."""
    battery = default_battery() if battery is None else tuple(battery)
    counts = tuple((g.name, count_homs(p, g, cap=cap)) for g in battery)
    return Fingerprint(abelian_invariants(p), counts)
