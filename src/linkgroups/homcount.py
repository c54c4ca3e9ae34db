"""Exact counting of homomorphisms into small finite groups.

The count of maps from a finitely presented group into a fixed battery
of small groups, together with the abelian invariants, is the
fingerprint used to distinguish presented groups: equal fingerprints are
necessary for isomorphism, unequal ones certify non-isomorphism.

An abelian group A is counted from the abelian invariants: every
homomorphism into A factors through the abelianization Z^r + Z/d_1 +
... + Z/d_t, so there are |A|^r times the product over i of #{a in A :
a^d_i = 1} of them.  Only a non-abelian group is enumerated.

Enumeration is the oracle: tuples of images are tried depth by depth,
with early abort on the first relator that fails once all its
generators are assigned.  One symmetry rule cuts the tuples tried.  Let
S_d be the elements of G that commute with every image chosen before
depth d: S_0 = G, and S_{d+1} is S_d intersected with the centraliser
C(v_d) of the image chosen at depth d.  Conjugating a whole
homomorphism by an element of S_d keeps the images already chosen and
permutes their completions, so every element of an S_d-orbit of G
(acting by conjugation) has as many completions as any other.  Depth d
therefore runs over one representative of each S_d-orbit, weighted by
the orbit size: the conjugacy classes at depth 0, the orbits of the
first image's centraliser at depth 1, and so on down to single elements
once S_d is trivial.  The counts are the same as those of trying every
tuple.  The stabilisers met, their orbits and where each representative
leads are built as the counts reach them and kept on the table.
Generators that appear in no relator contribute an exact factor |G|^k
without being enumerated.

The subwords of the relators are evaluated once per level, not once per
relator and node.  A relator splits into pieces: the subwords between
the letters of its deepest generator, each split again at the letters
of its own deepest generator.  A piece whose deepest generator sits at
depth m is evaluated once on entering depth m+1, from its letters and
the values of its sub-pieces, and identical pieces are evaluated once.
A relator is tested at the depth of its deepest generator, as the
program of that generator's letters and the pieces between them.  The
pieces and programs form a plan that depends on the presentation
alone: it is built on its first count, after the cap check, and kept
on the presentation.

The default battery is counted from one enumeration into sym3, the
permutations of 0, 1, 2 inside sym4.  sym4 is V x| sym3 for the Klein
four-group V = {e, (01)(23), (02)(13), (03)(12)} = F_2^2, and V lies in
dihedral4 and alt4, which are V x| C2 and V x| A3.  A homomorphism phi
into sym3 satisfies every relator, so its lifts x_i -> a_i phi(x_i) to
sym4, a_i in V, are the kernel of one F_2-linear map: per relator, its
Fox derivatives evaluated through phi, with sym3 acting on V by
conjugation (R. Fox, "Free differential calculus I", Ann. Math. 1953).
So phi has 2^(2k - rank) lifts, the same number for each of its
conjugates.  A piece's rows come with its value on entering its level,
a relator's from its program at each choice, and they are reduced into
an echelon basis carried down the recursion, so a leaf knows its rank;
each node also carries the image K, the subgroup its values generate,
as a mask of sym3's six elements.  A leaf of weight w stands for the w
conjugates of one homomorphism with image K; they add w to sym3's count
and L = w 2^(2k - rank) lifts to sym4's.  For H = dihedral4 or alt4,
which is V x| (H meet sym3), the lifts of phi land in H exactly when
its image lies in H meet sym3.  That holds for w fix(K, H) / 6 of the
conjugates, where fix(K, H) counts the x in sym3 with x K x^-1 inside
H, so H gets L fix(K, H) / 6, and the division is exact.  Only a
battery of the default battery's own tables is counted this way; any
other battery, and count_homs, count one group at a time.  Either way
the cap is checked for every battery group, in battery order, before
any plan is built.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import re
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .present import AbelianInvariants, Presentation, abelian_invariants

DEFAULT_CAP = 10 ** 8
_CAP_ENV = "LINKGROUPS_HOM_CAP"
# the largest order of a c<k> or table: group; its table has order^2 entries
MAX_GROUP_ORDER = 1024


class CapExceeded(RuntimeError):
    """The enumeration space is larger than the configured cap, or deeper
    than the interpreter can recurse."""


def effective_cap(cap=None) -> int:
    """cap, else $LINKGROUPS_HOM_CAP, else DEFAULT_CAP; it must be at least 1."""
    if cap is not None:
        if cap < 1:
            raise ValueError(f"the hom-count cap (--cap) must be at least 1, got {cap}")
        return cap
    env = os.environ.get(_CAP_ENV)
    if not env:
        return DEFAULT_CAP
    try:
        if int(env) >= 1:
            return int(env)
    except ValueError:
        pass
    raise ValueError(f"{_CAP_ENV} must be an integer at least 1, got {env!r}")


@dataclass(frozen=True)
class FiniteGroupTable:
    """A finite group as a multiplication table over ids 0..m-1 with
    identity 0 and a precomputed inverse table."""

    name: str
    order: int
    table: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]

    # the symmetry data of the enumeration, built as the counts reach it
    # and kept on the table, so a table: group never shares a builtin's data

    @cached_property
    def _stabilisers(self):
        """The stabilisers met so far, interned: their ids by their elements
        (ascending), and by id [elements, orbits, moves].  Id 0 is G.  The
        orbits and moves are None until the stabiliser S is entered; then
        they are S's orbits on G acting by conjugation, as
        {representative: size}, and by representative v the id of S
        intersected with C(v)."""
        everything = tuple(range(self.order))
        return {everything: 0}, [[everything, None, None]]

    def _orbits(self, s):
        """The orbits and moves of stabiliser s, built on first use."""
        ids, data = self._stabilisers
        hs, orbits, moves = data[s]
        if orbits is None:
            mul, inv = self.table, self.inverse
            orbits, moves, seen = {}, {}, set()
            for x in range(self.order):
                if x not in seen:
                    orbit = {mul[mul[inv[h]][x]][h] for h in hs}
                    seen |= orbit
                    orbits[x] = len(orbit)
                    meet = tuple(h for h in hs if mul[h][x] == mul[x][h])
                    if meet not in ids:
                        data.append([meet, None, None])
                        ids[meet] = len(data) - 1
                    moves[x] = ids[meet]
            data[s][1:] = orbits, moves
        return orbits, moves


def _is_abelian(g):
    """Whether g is abelian, from a generating set chosen greedily: only its
    elements are compared, in O(order * generators) steps, not order^2."""
    mul = g.table
    inside = [True] + [False] * (g.order - 1)
    gens, span = [], [0]
    for x in range(g.order):
        if inside[x]:
            continue
        if any(mul[x][s] != mul[s][x] for s in gens):
            return False
        gens.append(x)
        # x commutes with the subgroup span, so <span, x> is the union of
        # the cosets span x^k, up to the first power of x inside span
        power = x
        cosets = []
        while not inside[power]:
            for h in span:
                inside[mul[h][power]] = True
                cosets.append(mul[h][power])
            power = mul[power][x]
        span += cosets
    return True


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


def _perms(name):
    """The permutations of the builtin permutation group name, sorted:
    element i of its table is the i-th."""
    if name == "sym3":
        return sorted(itertools.permutations(range(3)))
    if name == "dihedral4":
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
        return sorted(elems)
    if name == "alt4":
        return [p for p in itertools.permutations(range(4)) if _parity(p) == 0]
    return list(itertools.permutations(range(4)))  # sym4


def _in_sym4(name):
    """The sym4 id of each element of the builtin permutation group name,
    by element id; sym3's permutations fix the point 3."""
    index = {p: i for i, p in enumerate(_perms("sym4"))}
    return tuple(index[p + tuple(range(len(p), 4))] for p in _perms(name))


# c<k>: k in ASCII digits without a leading 0, as in generator names
_CYCLIC = re.compile(r"c[1-9][0-9]*")


def builtin_group(name: str) -> FiniteGroupTable:
    """sym3, sym4, alt4, dihedral4 (alias d4), or c<k> for the cyclic
    group of order k; one table per group, whatever name it is asked by."""
    return _builtin_group("dihedral4" if name == "d4" else name)


@lru_cache(maxsize=None)
def _builtin_group(name):
    if name in _BATTERY_NAMES:
        perms = _perms(name)
        index = {p: i for i, p in enumerate(perms)}
        return make_table(name, [[index[_perm_compose(a, b)] for b in perms] for a in perms])
    if name == "c0":
        raise ValueError("cyclic order must be positive")
    if _CYCLIC.fullmatch(name):
        k = int(name[1:])
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
    of m whitespace-separated element ids.  Blank and `#` lines are
    skipped, but counted in the line numbers that errors give."""
    lines = [(k, l) for k, l in enumerate((s.strip() for s in text.splitlines()), 1)
             if l and not l.startswith("#")]
    head = lines[0][1].split() if lines else []
    if len(head) != 2 or head[0] != "order":
        raise ValueError("first line must be 'order m'")

    def integer(k, field):
        if not (field.isascii() and field.isdigit()):
            raise ValueError(f"table {name} line {k}: {field!r} is not a nonnegative integer")
        return int(field)

    m = integer(lines[0][0], head[1])
    _check_order(m)
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} table rows, got {len(lines) - 1}")
    table = [[integer(k, v) for v in line.split()] for k, line in lines[1:]]
    return make_table(name, table)


# ---------------------------------------------------------------------------
# counting


def _plan(p: Presentation):
    """The enumeration plan of p's relators, the same for every group.

    The generators that occur in some relator get slots 0..k-1 by
    descending occurrence (first listed first on ties).  Values live in
    one list: index 0 is the identity, 1+2s and 2+2s are slot s's image
    and its inverse, and the indices after those are pieces.  A piece is
    a subword whose deepest slot is m, stored as the indices of its
    slot-m letters and of the sub-pieces between them; it is evaluated
    once on entering depth m+1, and identical pieces share one index.
    Each relator goes to the depth d of its deepest generator, as the
    program of its slot-d letters and the pieces between them.  Returns
    (levels, size): per depth, the pieces to evaluate on entering it and
    the programs of the relators to test, deduplicated, those with the
    fewest slot-d letters first (in relator order on ties); size is the
    length of the value list."""
    occ = {}
    for count in p._letter_counts():
        for gid, n in count.items():
            occ[gid] = occ.get(gid, 0) + n
    order = {gid: i for i, gid in enumerate(p.generators)}
    active = sorted(occ, key=lambda gid: (-occ[gid], order[gid]))
    k = len(active)
    letter = {}
    for s, gid in enumerate(active):
        letter[gid], letter[-gid] = 1 + 2 * s, 2 + 2 * s
    pieces = {}  # program -> index, in evaluation order
    entry = [[] for _ in range(k)]

    def split(word, m):
        """The slot-m letters of word and the indices of the pieces
        between them, empty ones dropped."""
        prog, run = [], []
        for i in word:
            if (i - 1) >> 1 == m:
                if run:
                    prog.append(piece(run))
                    run = []
                prog.append(i)
            else:
                run.append(i)
        if run:
            prog.append(piece(run))
        return tuple(prog)

    def piece(word):
        """The index of word's value: a letter's own, or its piece's."""
        if len(word) == 1:
            return word[0]
        m = (max(word) - 1) >> 1
        prog = split(word, m)
        at = pieces.get(prog)
        if at is None:
            at = pieces[prog] = 1 + 2 * k + len(pieces)
            entry[m + 1].append((at, prog))  # a relator deeper than m needs it
        return at

    programs = [{} for _ in range(k)]  # insertion-ordered sets, by depth
    for r in p.relators:
        word = [letter[v] for v in r.letters]
        d = (max(word) - 1) >> 1
        programs[d][split(word, d)] = None
    levels = []
    for d, progs in enumerate(programs):
        named = {prog: sum((i - 1) >> 1 == d for i in prog) for prog in progs}
        levels.append((tuple(entry[d]), tuple(sorted(named, key=named.get))))
    return tuple(levels), 1 + 2 * k + len(pieces)


def _count_assignments(g: FiniteGroupTable, plan, lift=False):
    """The weights of the enumeration's leaves, added up by image and rank,
    as {(image, rank): weight}; without lift every leaf has key (1, 0).

    With lift, g is sym3, and every value also carries its Fox rows into
    V = F_2^2 (see _lift_tables): two ints, with bits 2s and 2s+1 for
    slot s, kept as three lanes, the two rows and their sum, so that a
    conjugation picks two lanes.  A piece gets its rows on entering its
    level, with its value; at each choice, the rows of that depth's
    relators are reduced into an echelon basis carried down the
    recursion.  A leaf's image is the mask of the subgroup its values
    generate, and its rank the length of its basis."""
    mul = g.table
    inv = g.inverse
    levels, size = plan
    k = len(levels)
    val = [0] * size
    leaves = defaultdict(int)
    if lift:
        picks, inverse_letters, joins, _ = _lift_tables()
        lanes = [0] * size, [0] * size, [0] * size
        lane0, lane1, lane2 = lanes
        by_prefix = [(lanes[c0], lanes[c1]) for c0, c1 in picks]
        for s in range(k):
            lane0[1 + 2 * s], lane1[1 + 2 * s], lane2[1 + 2 * s] = 1 << 2 * s, 2 << 2 * s, 3 << 2 * s

        def rows(prog):
            """The value of prog and its Fox rows: those of uv are u's plus
            u's action on v's."""
            x = f0 = f1 = 0
            for i in prog:
                p, q = by_prefix[x]
                f0 ^= p[i]
                f1 ^= q[i]
                x = mul[x][val[i]]
            return x, f0, f1
    else:
        joins = {1: [1] * g.order}

    def rec(depth, s, image, basis, w):
        entry, tests = levels[depth]
        for at, prog in entry:
            if lift:
                val[at], f0, f1 = rows(prog)
                lane0[at], lane1[at], lane2[at] = f0, f1, f0 ^ f1
            else:
                x = 0
                for i in prog:
                    x = mul[x][val[i]]
                val[at] = x
        orbits, moves = g._orbits(s)
        last = depth == k - 1
        row = joins[image]
        at = 1 + 2 * depth
        shift = 2 * depth
        for v, weight in orbits.items():
            val[at] = v
            val[at + 1] = inv[v]
            for prog in tests:
                x = 0
                for i in prog:
                    x = mul[x][val[i]]
                if x:
                    break
            else:
                found = basis
                if lift:
                    a, b, c = inverse_letters[v]
                    lane0[at + 1], lane1[at + 1], lane2[at + 1] = a << shift, b << shift, c << shift
                    for prog in tests:
                        _, f0, f1 = rows(prog)
                        found = _reduce(found, f0, f1)
                if last:
                    leaves[row[v], len(found)] += w * weight
                else:
                    rec(depth + 1, moves[v], row[v], found, w * weight)

    rec(0, 0, 1, (), 1)
    return leaves


def _reduce(basis, *rows):
    """The echelon basis (rows with distinct leading bits, descending)
    of the span of basis and rows."""
    for row in rows:
        for b in basis:
            x = row ^ b
            if x < row:
                row = x
        if row:
            basis = tuple(sorted(basis + (row,), reverse=True))
    return basis


@lru_cache(maxsize=None)
def _lift_tables():
    """The tables that lift homomorphisms into sym3 to sym4.

    sym4 is V x| sym3 for the Klein four-group V = {e, (01)(23), (02)(13),
    (03)(12)}, and sym3, the permutations fixing 3, acts on V by
    conjugation: M(g) is the matrix of v -> g v g^-1 over F_2, in the
    basis (01)(23), (02)(13).  A pair of rows over V is kept as three
    lanes, the rows and their sum (the three nonzero functionals), and
    M(g) maps it to two of its lanes.  Returns (picks, inverse_letters,
    joins, fixes), by sym3 element g or subgroup mask K (bit i for sym3's
    element i): picks[g], the lanes that M(g)'s two rows pick;
    inverse_letters[g], the lanes of slot 0's letter inverse to g, which
    are M(g^-1)'s rows and their sum; joins[K][g], the mask of <K, g>; and
    fixes[K], for each battery group H after sym3, the number of x in sym3
    with x K x^-1 inside H."""
    sym3, sym4 = builtin_group("sym3"), builtin_group("sym4")
    mul, inv = sym4.table, sym4.inverse
    perms = _perms("sym4")
    basis = perms.index((1, 0, 3, 2)), perms.index((2, 3, 0, 1))
    coords = {0: 0, basis[0]: 1, basis[1]: 2, mul[basis[0]][basis[1]]: 3}
    into = _in_sym4("sym3")
    picks = []
    for x in into:
        columns = [coords[mul[mul[x][e]][inv[x]]] for e in basis]
        # row c of M(x) as a functional: bit j set when column j has bit c
        picks.append(tuple((columns[0] >> c & 1 | (columns[1] >> c & 1) << 1) - 1 for c in (0, 1)))
    mul3, inv3 = sym3.table, sym3.inverse
    inverse_letters = tuple((c0 + 1, c1 + 1, (c0 + 1) ^ (c1 + 1)) for c0, c1 in (picks[i] for i in inv3))

    def elements(mask):
        return [h for h in range(sym3.order) if mask >> h & 1]

    subgroups = [m for m in range(1, 1 << sym3.order, 2)
                 if all(m >> mul3[a][b] & 1 for a in elements(m) for b in elements(m))]
    # <K, g> is the smallest subgroup holding K and g
    joins = {mask: [min((h for h in subgroups if h & mask == mask and h >> g & 1), key=int.bit_count)
                    for g in range(sym3.order)] for mask in subgroups}
    inside = [{i for i, x in enumerate(into) if x in _in_sym4(n)} for n in _BATTERY_NAMES[1:]]
    fixes = {mask: tuple(sum(all(mul3[mul3[x][h]][inv3[x]] in part for h in elements(mask))
                             for x in range(sym3.order)) for part in inside)
             for mask in subgroups}
    return tuple(picks), inverse_letters, joins, fixes


def _active(p: Presentation, groups, cap) -> int:
    """The number k of generators that occur in some relator, once every
    group's order^k is within the cap; the first group beyond it raises."""
    plan = p._plan
    k = len(plan[0]) if plan is not None else len(set().union(*p._letter_counts()))
    for g in groups:
        if g.order ** k > cap:
            raise CapExceeded(f"{g.order}^{k} assignments exceed the cap {cap}")
    return k


def _leaves(p: Presentation, k, g, lift=False):
    """_count_assignments over p's plan, which is built on first use and
    kept on p."""
    try:
        if p._plan is None:
            p._plan = _plan(p)
        return _count_assignments(g, p._plan, lift)
    except RecursionError:
        raise CapExceeded(
            f"enumerating {k} generators recurses deeper than the interpreter allows"
        ) from None


def _count_abelian(p: Presentation, g: FiniteGroupTable) -> int:
    """|Hom(p, g)| for abelian g, which is Hom(G^ab, g): g.order^r times,
    per torsion invariant d, the number of a in g with a^d = 1.  a^d = 1
    exactly when a^gcd(d, |g|) = 1, as the order of a divides |g|."""
    mul = g.table
    inv = abelian_invariants(p)
    count = g.order ** inv.free_rank
    for d in inv.torsion:
        e = math.gcd(d, g.order)
        power, square = [0] * g.order, list(range(g.order))  # a^e by squaring, for each a
        while e:
            if e & 1:
                power = [mul[x][y] for x, y in zip(power, square)]
            square = [mul[y][y] for y in square]
            e >>= 1
        count *= power.count(0)
    return count


def count_homs(p: Presentation, g: FiniteGroupTable, cap=None) -> int:
    """The exact number of homomorphisms from the presented group to g."""
    cap = effective_cap(cap)
    if not p.relators:
        return g.order ** len(p.generators)
    k = _active(p, (g,), cap)
    if _is_abelian(g):
        return _count_abelian(p, g)
    return g.order ** (len(p.generators) - k) * _leaves(p, k, g)[1, 0]


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
    order.  Equal fingerprints are necessary for isomorphism.  The cap is
    checked for every group before any enumeration."""
    default = default_battery()
    battery = default if battery is None else tuple(battery)
    cap = effective_cap(cap)
    k = _active(p, battery, cap)
    if p.relators and len(battery) == len(default) and all(g is h for g, h in zip(battery, default)):
        # one sym3 enumeration: a leaf of weight w stands for w conjugates of
        # a hom with image K, each with 2^(2k - rank) lifts to sym4, and of
        # the lifted homs w fix(K, H) / 6 land in H, for each H containing V
        fixes = _lift_tables()[3]
        sums = [0] * len(default)
        for (mask, rank), w in _leaves(p, k, default[0], lift=True).items():
            lifts = w << 2 * k - rank
            sums[0] += w
            for i, fixed in enumerate(fixes[mask], 1):
                sums[i] += lifts * fixed
        free = len(p.generators) - k
        counts = [g.order ** free * (s if i == 0 else s // 6) for i, (g, s) in enumerate(zip(default, sums))]
    else:
        counts = [count_homs(p, g, cap=cap) for g in battery]
    return Fingerprint(abelian_invariants(p), tuple((g.name, c) for g, c in zip(battery, counts)))
