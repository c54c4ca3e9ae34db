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
tuple.  Each stabiliser entered is named by the bitmask of its elements,
and its orbits, as (representative, size, next stabiliser) triples, are
built as the counts reach it and kept on the table.
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
pieces and programs form a plan that depends only on the slot words,
the relators with each generator written as its depth, which are
counted once per presentation and kept on it: the plan is built after
the cap check, for each enumeration into a table.  The default
battery's counts (below) are memoised by slot words, the 64 latest in
an lru_cache, and kept nowhere else: a renamed presentation, as the
Markov moves often give after Tietze, has the same slot words and is
not counted again.  Once its slot words have left the memo, a repeat
fingerprint enumerates again: 71 us per repeat of a criterion-9
presentation, against 7.7 us when the counts were kept on the
presentation (2-core Xeon, Python 3.11).

The default battery is counted from one enumeration into sym3, the
permutations of 0, 1, 2 inside sym4.  sym4 is V x| sym3 for the Klein
four-group V = {e, (01)(23), (02)(13), (03)(12)} = F_2^2, and dihedral4
and alt4 are V x| C2 and V x| A3.  The lifts x_i -> a_i phi(x_i), a_i
in V, of a homomorphism phi into sym3 are the kernel of one F_2-linear
map: per relator, its Fox derivatives evaluated through phi (R. Fox,
"Free differential calculus I", Ann. Math. 1953), with sym3 acting on V
by conjugation, which permutes V's three nonzero functionals as it
permutes the points 0, 1, 2 (see _lift_tables).  The rows are reduced
into an echelon basis carried down the recursion, so a leaf knows its
rank, and its stabiliser C(K), K its image; K = C(C(K)) in sym3, so
the leaves are added up by stabiliser and rank.  A leaf of weight w
stands for w conjugates of one homomorphism, each with 2^(2k - rank)
lifts to sym4.  For H = dihedral4 or alt4, which is V x| (H meet sym3),
the lifts land in H exactly when the image lies in H meet sym3, which
holds for w fix(K, H) / 6 of the conjugates, fix(K, H) counting the x
in sym3 with x K x^-1 inside H; it depends only on |C(K)| (see
_FIXES).  count_homs counts the default battery's own tables (matched
by name and identity) this way, from one enumeration whose four counts the memo
keeps, and enumerates any other non-abelian table.  The cap bounds the
enumeration a count runs over the k generators that occur in some
relator: 6^k for the default battery, order^k for any other non-abelian
table, and none for an abelian one, which enumerates nothing.  So a
fingerprint over the default battery refuses at its first count or not
at all.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .braid import check_int
from .present import AbelianInvariants, Presentation, abelian_invariants

DEFAULT_CAP = 10 ** 8
# the largest order of a c<k> or table: group; its table has order^2 entries
MAX_GROUP_ORDER = 1024


class CapExceeded(RuntimeError):
    """The enumeration space is larger than the configured cap, or deeper
    than the interpreter can recurse."""


def effective_cap(cap=None) -> int:
    """cap, else DEFAULT_CAP; an int of at least 1.  The caller alone sets
    the cap (--cap on the command line)."""
    if cap is None:
        return DEFAULT_CAP
    check_int("the hom-count cap (--cap)", cap, 1)
    return cap


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
    def _orbits(self):
        """The orbit lists of the stabilisers entered so far, by stabiliser
        S as the bitmask of its elements (bit h for element h, G is
        (1 << order) - 1): S's orbits on G acting by conjugation, as
        (representative v, orbit size, bitmask of S intersected with C(v))."""
        return {}

    def _orbit_list(self, s):
        """The orbit list of stabiliser s, built on first use."""
        orbits = self._orbits.get(s)
        if orbits is None:
            mul, inv = self.table, self.inverse
            hs = [h for h in range(self.order) if s >> h & 1]
            orbits, seen = [], set()
            for x in range(self.order):
                if x not in seen:
                    orbit = {mul[mul[inv[h]][x]][h] for h in hs}
                    seen |= orbit
                    orbits.append((x, len(orbit), sum(1 << h for h in hs if mul[h][x] == mul[x][h])))
            self._orbits[s] = orbits
        return orbits


def _generators(table):
    """A generating set of the table, chosen greedily and yielded as each
    is chosen: each generator is the smallest element that is not a
    left-normed product ((s_1 s_2) ...) s_j of those chosen before it.
    Those products are the closure of {0} under right multiplication by
    the generators, which needs no associativity.  The span grows only
    when the next generator is drawn, so a caller that refuses one stops
    the work there.  If every row holds 0 and the generators pass Light's
    test, each at least doubles the span (see _validate), so at most
    floor(log2(order)) of them pass."""
    inside = [True] + [False] * (len(table) - 1)
    gens, span = [], [0]
    for x in range(len(table)):
        if inside[x]:
            continue
        gens.append(x)
        yield x
        # the span is closed under the generators before x, so its old
        # elements need only x and its new ones every generator
        old = len(span)
        for i, h in enumerate(span):  # span grows as it is read
            for s in gens[-1:] if i < old else gens:
                y = table[h][s]
                if not inside[y]:
                    inside[y] = True
                    span.append(y)


def _is_abelian(g):
    """Whether g is abelian: whether its generators commute."""
    mul = g.table
    return all(mul[a][b] == mul[b][a] for a, b in itertools.combinations(_generators(mul), 2))


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
    inverse = []
    for i, row in enumerate(table):
        try:
            inverse.append(row.index(0))
        except ValueError:
            raise ValueError(f"{name}: element {i} has no two-sided inverse") from None
    # Light's test: the b with (x b) y = x (b y) for all x, y include 0 and
    # are closed under products, so it is enough that the generators are.
    # Each generator s is tested as it is drawn, so the work is bounded: a
    # passing s has a right inverse t, and (x s) t = x makes right
    # multiplication by s injective.  The span H of the generators before s
    # is closed under each of them, so each permutes H, and each h in H has
    # a w in H with h w = w h = 0.  Were h s in H for some h in H, so would
    # be s = w (h s); so H s is disjoint from H and as large, and each
    # passing generator at least doubles the span.  Hence at most
    # floor(log2 m) + 1 generators are drawn, each one pass over the table.
    # An associative table with two-sided identity 0 and 0 in every row is
    # a group, so the right inverses read from the rows are two-sided.
    for s in _generators(table):
        times_s = operator.itemgetter(*table[s])  # row x -> the row of x (s y)
        for x in range(m):
            if table[table[x][s]] != times_s(table[x]):
                y = next(y for y in range(m) if table[table[x][s]][y] != table[x][table[s][y]])
                raise ValueError(f"{name}: not associative at ({x}, {s}, {y})")
    return tuple(inverse)


def make_table(name: str, table) -> FiniteGroupTable:
    table = tuple(tuple(row) for row in table)
    inverse = _validate(name, table)
    return FiniteGroupTable(name, len(table), table, inverse)


def _perms(name):
    """The permutations of the builtin permutation group name, sorted:
    element i of its table is the i-th."""
    if name == "sym3":
        return sorted(itertools.permutations(range(3)))
    if name == "dihedral4":  # the symmetries of the square 0-1-2-3
        return [p for p in itertools.permutations(range(4)) if all((p[i] - p[i - 1]) % 2 for i in range(4))]
    if name == "alt4":
        return [p for p in itertools.permutations(range(4)) if _parity(p) == 0]
    return list(itertools.permutations(range(4)))  # sym4


# c<k>: k in ASCII digits without a leading 0, as in generator names
_CYCLIC = re.compile(r"c[1-9][0-9]*")


def builtin_group(name: str) -> FiniteGroupTable:
    """sym3, sym4, alt4, dihedral4 (alias d4), or c<k> for the cyclic
    group of order k.  A battery group is default_battery()'s own table,
    whatever name it is asked by; a c<k> table is built afresh at each
    call, so none is kept past its last use."""
    name = "dihedral4" if name == "d4" else name
    if name in _BATTERY_NAMES:
        return default_battery()[_BATTERY_NAMES.index(name)]
    if name == "c0":
        raise ValueError("cyclic order must be positive")
    if _CYCLIC.fullmatch(name):
        k = _order(name[1:])
        return make_table(name, [[(i + j) % k for j in range(k)] for i in range(k)])
    raise ValueError(f"unknown builtin group {name!r}")


def _order(digits: str) -> int:
    """The order written in ASCII digits without leading zeros, at most
    MAX_GROUP_ORDER.  The digits are counted first: int() refuses to read
    more than 4300."""
    if len(digits) > len(str(MAX_GROUP_ORDER)) or int(digits) > MAX_GROUP_ORDER:
        raise ValueError(f"group order {digits} exceeds the ceiling {MAX_GROUP_ORDER}")
    return int(digits)


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

    def digits(k, field):
        if not (field.isascii() and field.isdigit()):
            raise ValueError(f"table {name} line {k}: {field!r} is not a nonnegative integer")
        return field.lstrip("0") or "0"

    m = _order(digits(lines[0][0], head[1]))
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} table rows, got {len(lines) - 1}")
    table = [[digits(k, v) for v in line.split()] for k, line in lines[1:]]
    for v in itertools.chain(*table):
        if len(v) > len(str(MAX_GROUP_ORDER)):  # past every order: refused unread, as by _order
            raise ValueError(f"{name}: entry {v} out of range")
    return make_table(name, [[int(v) for v in row] for row in table])


# ---------------------------------------------------------------------------
# counting


def _slot_words(p: Presentation):
    """p's relators in slot letters, as (k, words), kept on p.  The k
    generators that occur in some relator get slots 0..k-1 by descending
    occurrence (first listed first on ties); slot s's letter is 1 + 2s and
    its inverse 2 + 2s.  Renaming the generators in place keeps the slot
    words, and equal slot words give equal plans and counts up to the
    factor of the generators that occur in no relator."""
    if p._slots is None:
        occ = Counter(abs(v) for r in p.relators for v in r.letters)
        order = {gid: i for i, gid in enumerate(p.generators)}
        active = sorted(occ, key=lambda gid: (-occ[gid], order[gid]))
        letter = {}
        for s, gid in enumerate(active):
            letter[gid], letter[-gid] = 1 + 2 * s, 2 + 2 * s
        p._slots = len(active), tuple(tuple(letter[v] for v in r.letters) for r in p.relators)
    return p._slots


def _plan_of(k, words):
    """The enumeration plan of relators over k slots, given as slot words
    (see _slot_words), the same for every group.

    Values live in one list: index 0 is the identity, 1+2s and 2+2s are
    slot s's image and its inverse, and the indices after those are
    pieces.  Each relator goes to the depth d of its deepest slot, as the
    program of its slot-d letters and the runs between them: a run of one
    letter is that letter, and a longer one a piece.  A piece whose
    deepest slot is m is stored the same way, as its slot-m letters and
    the runs between them, and evaluated once on entering depth m+1;
    identical pieces share one index.  One pass over a relator builds
    them all, closing the runs that each letter ends.  Returns
    (levels, size): per depth, the pieces to evaluate on entering it and
    the programs of the relators to test, deduplicated, those with the
    fewest slot-d letters first (in relator order on ties); size is the
    length of the value list."""
    pieces = {}  # program -> index, in evaluation order
    entry = [[] for _ in range(k)]

    def close(run):
        """The index of a finished run [m, items...]: its one letter's, or
        that of the piece whose program is its items."""
        if len(run) == 2:
            return run[1]
        prog = tuple(run[1:])
        at = pieces.get(prog)
        if at is None:
            at = pieces[prog] = 1 + 2 * k + len(pieces)
            entry[run[0] + 1].append((at, prog))  # a relator deeper than m needs it
        return at

    programs = [{} for _ in range(k)]  # insertion-ordered sets, by depth
    for word in words:
        d = (max(word) - 1) >> 1
        # the open runs, as [m, items...]: the run of items no deeper than
        # m, which holds a slot-m letter; m falls towards the top
        runs = [[d]]
        for i in word:
            s = (i - 1) >> 1
            while runs[-1][0] < s:  # a slot-s letter ends every run shallower
                done = close(runs.pop())
                if runs[-1][0] > s:
                    runs.append([s])
                runs[-1].append(done)
            if runs[-1][0] > s:
                runs.append([s])
            runs[-1].append(i)
        while len(runs) > 1:
            done = close(runs.pop())
            runs[-1].append(done)
        programs[d][tuple(runs[0][1:])] = None
    levels = []
    for d, progs in enumerate(programs):
        named = {prog: sum((i - 1) >> 1 == d for i in prog) for prog in progs}
        levels.append((tuple(entry[d]), tuple(sorted(named, key=named.get))))
    return tuple(levels), 1 + 2 * k + len(pieces)


def _count_assignments(g: FiniteGroupTable, plan, lift=False):
    """The weights of the enumeration's leaves, added up by stabiliser and
    rank, as {(stabiliser, rank): weight}, a stabiliser being the bitmask
    of its elements; without lift every rank is 0.

    With lift, g is sym3, and every value also carries its Fox rows into
    V = F_2^2 (see _lift_tables): two ints, with bits 2s and 2s+1 for
    slot s, kept as three lanes, the two rows and their sum, so that a
    conjugation picks two lanes.  A piece gets its rows on entering its
    level, with its value; at each choice, the rows of that depth's
    relators are reduced into an echelon basis carried down the
    recursion.  A leaf's stabiliser is the centraliser of its values, and
    its rank the length of its basis."""
    mul = g.table
    inv = g.inverse
    levels, size = plan
    k = len(levels)
    val = [0] * size
    leaves = defaultdict(int)
    if lift:
        picks, inverse_letters = _lift_tables()
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

    def rec(depth, s, basis, w):
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
        last = depth == k - 1
        at = 1 + 2 * depth
        shift = 2 * depth
        for v, weight, meet in g._orbit_list(s):
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
                    leaves[meet, len(found)] += w * weight
                else:
                    rec(depth + 1, meet, found, w * weight)

    try:
        rec(0, (1 << g.order) - 1, (), 1)
    except RecursionError:
        raise CapExceeded(f"enumerating {k} generators recurses deeper than the interpreter allows") from None
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


# The fix(K, H) of each battery group H after sym3, by |C(K)|, the popcount
# of a leaf's stabiliser.  K is 1, a transposition, A3 or sym3, and
# dihedral4, alt4 and sym4 meet sym3 in <(02)>, A3 and sym3.
_FIXES = {6: (6, 6, 6), 2: (2, 0, 6), 3: (0, 6, 6), 1: (0, 0, 6)}


@lru_cache(maxsize=None)
def _lift_tables():
    """The tables that lift homomorphisms into sym3 to sym4.

    sym4 is V x| sym3, and sym3 acts on V = F_2^2, in the basis (01)(23),
    (02)(13), by conjugation.  A pair of rows over V is kept as three
    lanes, the rows and their sum: V's three nonzero functionals, which
    sym3 permutes as it permutes the points 0, 1, 2, lane c standing for
    point c+1 mod 3 (it vanishes on the element of V pairing that point
    with 3).  Returns (picks, inverse_letters), by sym3 element g:
    picks[g], the lanes that g's matrix's two rows pick, row c picking
    lane g(c+1) - 1 mod 3; and inverse_letters[g], the lanes of slot 0's
    letter inverse to g, which are g^-1's rows and their sum."""
    perms = _perms("sym3")
    picks = tuple(tuple((g[(c + 1) % 3] - 1) % 3 for c in (0, 1)) for g in perms)
    inverse_letters = tuple((c0 + 1, c1 + 1, (c0 + 1) ^ (c1 + 1))
                            for c0, c1 in (picks[i] for i in builtin_group("sym3").inverse))
    return picks, inverse_letters


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


@lru_cache(maxsize=64)
def _lift_sums(slot_words):
    """The default battery's counts over the slots of the relators
    slot_words (see _slot_words), before the factor of the generators in
    no relator: a sym3 leaf of weight w is w conjugates of a hom with
    image K, each with L = 2^(2k - rank) lifts to sym4, and w fix(K, H) / 6
    of them land in H, for each H containing V; so H counts the sum of
    L w fix(K, H), divided by 6 once.  The 64 latest are kept."""
    k = slot_words[0]
    sums = [0] * len(_BATTERY_NAMES)
    for (stabiliser, rank), w in _count_assignments(default_battery()[0], _plan_of(*slot_words), lift=True).items():
        lifts = w << 2 * k - rank
        sums[0] += w
        for i, fixed in enumerate(_FIXES[stabiliser.bit_count()], 1):
            sums[i] += lifts * fixed
    return (sums[0], *(s // 6 for s in sums[1:]))


def count_homs(p: Presentation, g: FiniteGroupTable, cap=None) -> int:
    """The exact number of homomorphisms from the presented group to g; the
    cap bounds the enumeration it runs (see the module docstring)."""
    cap = effective_cap(cap)
    if not p.relators:
        return g.order ** len(p.generators)
    battery = default_battery()
    i = _BATTERY_NAMES.index(g.name) if g.name in _BATTERY_NAMES else 0
    lifted = i if battery[i] is g else None  # an equal copy or table: group is enumerated
    if lifted is None and _is_abelian(g):
        return _count_abelian(p, g)
    slots = _slot_words(p)
    k = slots[0]
    order = g.order if lifted is None else battery[0].order  # all four read the sym3 enumeration
    if order ** k > cap:
        raise CapExceeded(f"{order}^{k} assignments exceed the cap {cap}")
    free = g.order ** (len(p.generators) - k)
    if lifted is None:
        return free * sum(_count_assignments(g, _plan_of(*slots)).values())
    return free * _lift_sums(slots)[lifted]


# ---------------------------------------------------------------------------
# fingerprints

_BATTERY_NAMES = ("sym3", "dihedral4", "alt4", "sym4")


@lru_cache(maxsize=None)
def default_battery() -> tuple[FiniteGroupTable, ...]:
    """The smallest groups rich enough to separate the worked example
    pairs while keeping |G|^gens enumerable at desk scale; builtin_group
    hands out these tables.  Element i is the i-th of _perms, and i * j
    applies i first."""
    battery = []
    for name in _BATTERY_NAMES:
        perms = _perms(name)
        index = {p: i for i, p in enumerate(perms)}
        battery.append(make_table(name, [[index[tuple(b[v] for v in a)] for b in perms] for a in perms]))
    return tuple(battery)


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
    battery = default_battery() if battery is None else battery
    cap = effective_cap(cap)  # here too: an empty battery still refuses a bad cap
    counts = tuple((g.name, count_homs(p, g, cap=cap)) for g in battery)
    return Fingerprint(abelian_invariants(p), counts)
