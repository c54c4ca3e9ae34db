"""Exact counting of homomorphisms into small finite groups.

The count of maps from a finitely presented group into a fixed battery
of small groups, together with the abelian invariants, is the
fingerprint used to distinguish presented groups: equal fingerprints are
necessary for isomorphism, unequal ones certify non-isomorphism.

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
leads are built as the counts reach them and kept on the table; an
abelian group has one stabiliser, G, whose orbits are its elements,
listed without conjugating.  Generators that appear in no relator
contribute an exact factor |G|^k without being enumerated.

A relator that names its depth's generator v once or twice is solved,
not searched: once the shallower images are fixed it reads
c0 v^e1 c1 = 1 or c0 v^e1 c1 v^e2 c2 = 1, whose solutions are a unique
value, the square roots of one element (same signs), or a coset of a
centraliser (opposite signs, a conjugacy equation).  Its constants are
products of images that S_d commutes with, so its solutions are a union
of S_d-orbits: they filter that depth's representatives, weights kept,
and the relator is not tested again; the counts are unchanged.  A last
depth with no relator left to test lists no orbits: their weights add
up to the number of its candidates, |G| or the solutions.  The
square roots are one table of |G| entries per group; the solutions of a
conjugacy equation are a row per conjugated element, built on first
use, and an abelian group builds none, because there every conjugate of
c is c.

The constants are evaluated once per level, not once per relator and
node.  A relator splits into pieces: the subwords between the letters
of its deepest generator, each split again at the letters of its own
deepest generator.  A piece whose deepest generator sits at depth m is
evaluated once on entering depth m+1, from its letters and the values
of its sub-pieces, and identical pieces are evaluated once.  The
pieces and relator programs form a plan that depends on the
presentation alone: it is built on its first count, after the cap
check, and kept on the presentation.

The default battery is counted in one enumeration into sym4: sym3 (on
the points 0, 1, 2), dihedral4 and alt4 are subgroups of it as
permutations of four points.  Each node carries the image K, the
subgroup its values generate, as a mask of sym4's 24 elements, and the
leaves' weights are added up by K (P. Hall's |Hom(G, H)| is the sum of
|Epi(G, K)| over the subgroups K of H).  A leaf of weight w stands for
the w conjugates of one homomorphism with image K, and of those,
w fix(K, H) / 24 land in H, where fix(K, H) counts the x in sym4 with
x K x^-1 inside H; so 24 |Hom(G, H)| is the sum of w fix(K, H) over the
leaves, and the division is exact.  A last level with no relator to test
tallies its candidates v by <K, v>, each with the weight of the level
above, once per K and set of candidates, without listing its orbits:
over an orbit those leaves stand for one homomorphism's conjugates, so
the sum is the same.  The joins <K, v>, the tallies and fix(K, H) are
built on first use.  Only a battery of the default battery's own tables
is counted this way; any other battery, and count_homs, count one group
at a time.  Either way the cap is checked for every battery group, in
battery order, before any plan is built.
"""

from __future__ import annotations

import itertools
import os
import random
import re
from collections import Counter, defaultdict
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
    def _abelian(self):
        return _is_abelian(self)

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
        """The orbits and moves of stabiliser s, built on first use.  An
        abelian table has one stabiliser, G, whose orbits are its elements;
        they are listed without conjugating."""
        ids, data = self._stabilisers
        hs, orbits, moves = data[s]
        if orbits is None:
            if self._abelian:
                orbits, moves = dict.fromkeys(hs, 1), dict.fromkeys(hs, 0)
            else:
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

    @cached_property
    def _square_roots(self):
        """The elements r with r r = x, by x."""
        roots = [[] for _ in range(self.order)]
        for r in range(self.order):
            roots[self.table[r][r]].append(r)
        return roots

    @cached_property
    def _conjugators_by_element(self):
        """The conjugator rows built so far, by conjugated element."""
        return {}

    def _conjugators(self, c):
        """For each conjugate t of c, the elements v with v c v^-1 = t: a
        left coset of the centraliser of c."""
        row = self._conjugators_by_element.get(c)
        if row is None:
            mul, inv = self.table, self.inverse
            row = {}
            for v in range(self.order):
                row.setdefault(mul[mul[v][c]][inv[v]], []).append(v)
            self._conjugators_by_element[c] = row
        return row


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
    (levels, size): per depth, the pieces to evaluate on entering it, the
    relator to solve there (its constants as indices, 0 where empty, and
    its exponents) or None, and the programs of the relators to test,
    deduplicated, those with the fewest slot-d letters first (in relator
    order on ties); size is the length of the value list."""
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
        progs = sorted(named, key=named.get)
        solved = None
        if progs and named[progs[0]] <= 2:
            cs, exps, c = [], [], 0
            for i in progs.pop(0):
                if (i - 1) >> 1 == d:
                    cs.append(c)
                    exps.append(1 if i & 1 else -1)
                    c = 0
                else:
                    c = i
            solved = (tuple(cs) + (c,), tuple(exps))
        levels.append((tuple(entry[d]), solved, tuple(progs)))
    return tuple(levels), 1 + 2 * k + len(pieces)


def _solve(g: FiniteGroupTable, cs, exps):
    """The values v with c0 v^e1 c1 = 1, or c0 v^e1 c1 v^e2 c2 = 1, for
    the constants cs and exponents exps; None stands for all of g."""
    mul, inv = g.table, g.inverse
    if len(exps) == 1:  # v^e1 = (c1 c0)^-1
        x = mul[cs[1]][cs[0]]
        return (inv[x],) if exps[0] > 0 else (x,)
    c0, c, c2 = cs
    t = inv[mul[c2][c0]]  # v^e1 c v^e2 = t
    e1, e2 = exps
    if e1 == e2:
        if e1 < 0:  # v^-1 c v^-1 = t  is  v c^-1 v = t^-1
            c, t = inv[c], inv[t]
        # v c v = t  is  (v c)^2 = t c
        cinv = inv[c]
        return [mul[r][cinv] for r in g._square_roots[mul[t][c]]]
    if g._abelian:  # v c v^-1 = c for every v
        return None if t == c else ()
    if e1 > 0:  # v c v^-1 = t
        return g._conjugators(c).get(t, ())
    return g._conjugators(t).get(c, ())  # v^-1 c v = t  is  v t v^-1 = c


def _count_assignments(g: FiniteGroupTable, plan, images=None):
    """The weights of the enumeration's leaves, added up by image, as
    {image: weight}.  Without images every leaf has image 1.  With them
    (the _Images of g) a leaf's image is the subgroup its values generate:
    the root's is 1, the trivial subgroup, images.joins(m)[v] is the image
    once v is chosen under image m, and images.tally(m, candidates) counts
    a last level's candidates (None for all of g) by that image."""
    mul = g.table
    inv = g.inverse
    levels, size = plan
    k = len(levels)
    val = [0] * size
    leaves = defaultdict(int)
    if images is None:
        ones = [1] * g.order

        def joins(image):
            return ones

        def tally(image, candidates):
            return ((1, g.order if candidates is None else len(candidates)),)
    else:
        joins, tally = images.joins, images.tally

    def rec(depth, s, image, w):
        entry, solved, tests = levels[depth]
        for at, prog in entry:
            x = 0
            for i in prog:
                x = mul[x][val[i]]
            val[at] = x
        solutions = None  # all of G
        if solved is not None:
            cs, exps = solved
            solutions = _solve(g, [val[i] for i in cs], exps)
        last = depth == k - 1
        if last and not tests:  # a union of orbits: list no orbit, tally its elements
            for m, n in tally(image, solutions):
                leaves[m] += w * n
            return
        orbits, moves = g._orbits(s)
        if solutions is not None:  # a union of orbits: keep its representatives
            orbits = {v: orbits[v] for v in solutions if v in orbits}
        row = joins(image)
        at = 1 + 2 * depth
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
                if last:
                    leaves[row[v]] += w * weight
                else:
                    rec(depth + 1, moves[v], row[v], w * weight)

    rec(0, 0, 1, 1)
    return leaves


class _Images:
    """Subgroups of sym4 as masks of its element ids (bit i for element
    i), for counting the default battery in one enumeration: the battery's
    groups inside sym4, and, built as the count reaches them, by subgroup K
    the joins <K, v> by element v, a last level's candidates tallied by
    <K, v>, and fix(K, H) = #{x in sym4 : x K x^-1 inside H} for each
    battery group H."""

    def __init__(self):
        self.g = builtin_group("sym4")
        self.battery = tuple(sum(1 << i for i in _in_sym4(n)) for n in _BATTERY_NAMES)
        self._joins, self._tallies, self._fixes = {}, {}, {}

    def _elements(self, mask):
        return [x for x in range(self.g.order) if mask >> x & 1]

    def joins(self, mask):
        row = self._joins.get(mask)
        if row is None:
            mul = self.g.table
            elements = self._elements(mask)
            row = []
            for v in range(self.g.order):
                joined, span = mask | 1 << v, elements + [v]
                for x in span:  # close under multiplying by v and K's elements
                    for h in (v, *elements):
                        y = mul[x][h]
                        if not joined >> y & 1:
                            joined |= 1 << y
                            span.append(y)
                row.append(joined)
            self._joins[mask] = row
        return row

    def tally(self, mask, candidates):
        key = mask, None if candidates is None else tuple(candidates)
        pairs = self._tallies.get(key)
        if pairs is None:
            row = self.joins(mask)
            every = range(self.g.order) if candidates is None else candidates
            pairs = self._tallies[key] = tuple(Counter(row[v] for v in every).items())
        return pairs

    def fix(self, mask):
        fixed = self._fixes.get(mask)
        if fixed is None:
            mul, inv = self.g.table, self.g.inverse
            elements = self._elements(mask)
            fixed = [0] * len(self.battery)
            for x in range(self.g.order):
                conjugate = 0
                for h in elements:
                    conjugate |= 1 << mul[mul[x][h]][inv[x]]
                for i, battery_mask in enumerate(self.battery):
                    fixed[i] += conjugate & battery_mask == conjugate
            fixed = self._fixes[mask] = tuple(fixed)
        return fixed


@lru_cache(maxsize=None)
def _images():
    return _Images()


def _active(p: Presentation, groups, cap) -> int:
    """The number k of generators that occur in some relator, once every
    group's order^k is within the cap; the first group beyond it raises."""
    plan = p._plan
    k = len(plan[0]) if plan is not None else len(set().union(*p._letter_counts()))
    for g in groups:
        if g.order ** k > cap:
            raise CapExceeded(f"{g.order}^{k} assignments exceed the cap {cap}")
    return k


def _leaves(p: Presentation, k, g, images=None):
    """_count_assignments over p's plan, which is built on first use and
    kept on p."""
    try:
        if p._plan is None:
            p._plan = _plan(p)
        return _count_assignments(g, p._plan, images)
    except RecursionError:
        raise CapExceeded(
            f"enumerating {k} generators recurses deeper than the interpreter allows"
        ) from None


def count_homs(p: Presentation, g: FiniteGroupTable, cap=None) -> int:
    """The exact number of homomorphisms from the presented group to g."""
    cap = effective_cap(cap)
    if g.order == 1 or not p.relators:
        return g.order ** len(p.generators)
    k = _active(p, (g,), cap)
    return g.order ** (len(p.generators) - k) * _leaves(p, k, g)[1]


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
        # one sym4 enumeration: a leaf of weight w stands for w conjugates
        # of a hom with image K, and w fix(K, H) / 24 of them land in H
        images = _images()
        sums = [0] * len(default)
        for mask, w in _leaves(p, k, images.g, images).items():
            for i, fixed in enumerate(images.fix(mask)):
                sums[i] += w * fixed
        free = len(p.generators) - k
        counts = [g.order ** free * s // images.g.order for g, s in zip(default, sums)]
    else:
        counts = [count_homs(p, g, cap=cap) for g in battery]
    return Fingerprint(abelian_invariants(p), tuple((g.name, c) for g, c in zip(battery, counts)))
