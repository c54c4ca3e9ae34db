"""Independent oracles the tests check the library against.

Everything here is deliberately naive and shares no code with the
package: repeated-scan reduction, plain substitution and its
left-to-right fold over a braid word, Tietze elimination that rebuilds
every relator and the key that picks its next elimination by counting,
arc labels carried down a braid diagram, as words, multiplied in a
group to count the diagram's colourings, or as integer vectors whose
cokernel, taken by naive elimination, is the abelianization, a braid's
permutation as the
left-to-right fold of its transpositions, the cycle lengths of a
permutation, the rho -> alpha letter map onto the welded alphabet,
exponent sums and slot words added up letter by letter,
brute-force hom counting over full tuple products, schoolbook
matrix multiplication, cofactor determinants, kernels mod a prime by
Gaussian elimination, direct products of multiplication tables,
tables of permutation groups, and hom counts into the split extensions
sym3, dihedral4 and alt4 as sums of Fox-Jacobian ranks.
"""

import functools
import itertools
import operator
from collections import Counter


def naive_reduce(letters):
    """Repeatedly delete the first cancelling adjacent pair until none."""
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i] == -letters[i + 1]:
                del letters[i : i + 2]
                changed = True
                break
    return tuple(letters)


def scheduled_reduce(letters, rng):
    """Cancel a randomly chosen cancelling pair at each step."""
    letters = list(letters)
    while True:
        sites = [i for i in range(len(letters) - 1) if letters[i] == -letters[i + 1]]
        if not sites:
            return tuple(letters)
        i = rng.choice(sites)
        del letters[i : i + 2]


def naive_invert(letters):
    return tuple(-v for v in reversed(letters))


def naive_substitute(letters, images):
    """Substitute generator images (dict gid -> letter tuple) and reduce."""
    out = []
    for v in letters:
        img = images[abs(v)]
        out.extend(img if v > 0 else naive_invert(img))
    return naive_reduce(out)


def naive_evaluate(letter_images, gens):
    """The images of gens under a braid word, given each letter's images
    in word order (one dict gid -> letter tuple per letter).  Folds left
    to right from the identity, substituting each letter's images into
    the images so far, so the first letter acts first."""
    images = {g: (g,) for g in gens}
    for step in letter_images:
        images = {g: naive_substitute(w, step) for g, w in images.items()}
    return images


def naive_cyclic_reduce(letters):
    """Reduce, then strip matching first and last letters until none."""
    letters = naive_reduce(letters)
    while len(letters) >= 2 and letters[0] == -letters[-1]:
        letters = letters[1:-1]
    return letters


def naive_tietze_step(gens, relators, y):
    """One elimination on letter tuples, rebuilding every relator.

    Picks the shortest relator with a generator that occurs in it once
    (then the lowest generator, y last, then the first such relator),
    solves for it and substitutes the solution into every other relator.
    Returns (gens, relators), or None at a fixpoint."""
    best = None
    for ri, r in enumerate(relators):
        for g in set(abs(v) for v in r):
            if sum(1 for v in r if abs(v) == g) == 1:
                key = (len(r), (1, 0) if g == y else (0, g), ri)
                if best is None or key < best[0]:
                    best = (key, g)
    if best is None:
        return None
    (_, _, ri), g = best
    rel = relators[ri]
    pos = [abs(v) for v in rel].index(g)
    u, v = rel[:pos], rel[pos + 1 :]
    solved = naive_invert(u) + naive_invert(v) if rel[pos] > 0 else v + u
    images = {h: (h,) for h in gens}
    images[g] = solved
    rebuilt = [naive_cyclic_reduce(naive_substitute(r, images)) for k, r in enumerate(relators) if k != ri]
    return tuple(h for h in gens if h != g), [r for r in rebuilt if r]


def naive_tietze(gens, relators, budget, y):
    """Eliminate until a fixpoint or until the relators have more than
    budget letters; then the presentation with the fewest letters seen
    (the last of equals) is returned.  y is the id that sorts last.
    Returns (gens, relators, exhausted, steps)."""
    current = (tuple(gens), [r for r in map(naive_cyclic_reduce, relators) if r])
    best, steps = current, 0
    size = lambda p: sum(len(r) for r in p[1])
    while True:
        nxt = naive_tietze_step(*current, y)
        if nxt is None:
            return current[0], current[1], False, steps
        steps += 1
        current = nxt
        if size(current) <= size(best):
            best = current
        if size(current) > budget:
            return best[0], best[1], True, steps


def once_key(letters, y):
    """(len(letters), (is y, id)) for the lowest generator (y last) that
    occurs in letters exactly once, counting the occurrences of every
    generator; None if no generator does."""
    once = [g for g in set(abs(v) for v in letters) if sum(1 for v in letters if abs(v) == g) == 1]
    if not once:
        return None
    g = min(once, key=lambda g: (g == y, g))
    return len(letters), (g == y, g)


def label_closure(strands, letters, y):
    """Relators of a braid diagram's closure group from its arc labels.

    letters are (family, position, sign) triples, drawn from the top of
    the diagram down.  The top arc at position k is labelled x_k and
    each crossing relabels the two arcs leaving it: at a positive
    sigma_i the strand entering at i passes over to i + 1 keeping its
    label, and the under-strand's label is conjugated by it (by its
    inverse at sigma_i^-1, where the strand entering at i + 1 is over).
    rho_i swaps the labels through y and alpha_i swaps them.  Closing
    the braid sets the bottom label at k equal to x_k: one relator
    x_k^-1 * label_k per strand."""
    labels = [None] + [(k,) for k in range(1, strands + 1)]
    for family, i, sign in letters:
        a, b = labels[i], labels[i + 1]
        if family == "s" and sign > 0:
            labels[i], labels[i + 1] = naive_reduce(a + b + naive_invert(a)), a
        elif family == "s":
            labels[i], labels[i + 1] = b, naive_reduce(naive_invert(b) + a + b)
        elif family == "r":
            labels[i], labels[i + 1] = naive_reduce((y,) + b + (-y,)), naive_reduce((-y,) + a + (y,))
        else:
            labels[i], labels[i + 1] = b, a
    return [naive_reduce((-k,) + labels[k]) for k in range(1, strands + 1)]


def colour_count(strands, letters, table, y, wada=1, h=1):
    """|Hom(G, H)| for the closure group G of a braid diagram, counted as
    the diagram's colourings by H, given by its multiplication table
    (identity 0).

    letters are (family, position, sign) triples drawn from the top of the
    diagram down, as for label_closure, and y says whether G has the
    generator y.  The top arcs get elements h_1..h_n of H and y gets g;
    the labels are carried down as label_closure carries words, but
    multiplied in H, and a colouring is an assignment whose bottom labels
    equal the top ones.  A crossing sigma_i with labels a, b entering at
    i, i + 1 gives, by Wada type (h the conjugation power of type 1;
    label_closure's rule is type 1 with h = 1):

        type 1: sigma_i  a^h b a^-h, a     sigma_i^-1  b, b^-h a b^h
        type 2: sigma_i  a b^-1 a, a       sigma_i^-1  b, b a^-1 b

    Conjugating every label and g by one element permutes the colourings,
    as every rule is a word in the labels, so g (or h_1, without y) runs
    over one representative of each conjugacy class, weighted by the
    class size."""
    m = len(table)
    inv = [row.index(0) for row in table]

    def conj(c, a):  # c a c^-1
        return table[table[c][a]][inv[c]]

    powers = list(range(m))  # c^h, by c
    for _ in range(h - 1):
        powers = [table[x][c] for c, x in enumerate(powers)]
    classes = {}
    for a in range(m):
        cls = {conj(c, a) for c in range(m)}
        classes[min(cls)] = len(cls)
    count = 0
    for rep, size in classes.items():
        for rest in itertools.product(range(m), repeat=strands if y else strands - 1):
            top = list(rest) if y else [rep, *rest]
            labels = [None] + top
            for family, i, sign in letters:
                a, b = labels[i], labels[i + 1]
                if family == "s" and wada == 2 and sign > 0:
                    labels[i], labels[i + 1] = table[table[a][inv[b]]][a], a
                elif family == "s" and wada == 2:
                    labels[i], labels[i + 1] = b, table[table[b][inv[a]]][b]
                elif family == "s" and sign > 0:
                    labels[i], labels[i + 1] = conj(powers[a], b), a
                elif family == "s":
                    labels[i], labels[i + 1] = b, conj(inv[powers[b]], a)
                elif family == "r":
                    labels[i], labels[i + 1] = conj(rep, b), conj(inv[rep], a)
                else:
                    labels[i], labels[i + 1] = b, a
            if labels[1:] == top:
                count += size
    return count


def abelian_labels(strands, letters, y, wada=1):
    """(free rank, torsion) of the abelianized closure group of a braid
    diagram, from its arc labels abelianized.

    letters are (family, position, sign) triples drawn from the top of the
    diagram down, as for label_closure, and y says whether G has the
    generator y.  Each label is an integer vector over x_1..x_n (and y),
    carried down as label_closure carries words.  Conjugation vanishes in
    the abelianization, so a crossing of Wada type 1 (at any power h), a
    rho and an alpha swap the two labels; a crossing of type 2 with labels
    a, b entering at i, i + 1 gives

        sigma_i  2a - b, a       sigma_i^-1  b, 2b - a

    Closing the braid gives the row label_k - x_k for each strand, and the
    result is the cokernel of those rows (see cokernel)."""
    width = strands + bool(y)
    labels = [None] + [[int(j == k) for j in range(width)] for k in range(strands)]
    for family, i, sign in letters:
        a, b = labels[i], labels[i + 1]
        if family == "s" and wada == 2 and sign > 0:
            labels[i], labels[i + 1] = [2 * u - v for u, v in zip(a, b)], a
        elif family == "s" and wada == 2:
            labels[i], labels[i + 1] = b, [2 * v - u for u, v in zip(a, b)]
        else:
            labels[i], labels[i + 1] = b, a
    rows = [[u - int(j == k) for j, u in enumerate(labels[k + 1])] for k in range(strands)]
    return cokernel(rows, width)


def cokernel(rows, width):
    """(free rank, torsion) of Z^width modulo the span of rows.  An entry
    of least absolute value in the matrix is the pivot; the other rows and
    columns lose multiples of its row and column, by floor division, until
    a remainder is a smaller pivot or the pivot's row and column are clear.
    A clear pivot that fails to divide some row has that row added to its
    own and is tried again; one that divides every row is a diagonal entry,
    and its row and column are deleted.  The torsion is the diagonal
    entries above 1, in increasing order."""
    m = [list(r) for r in rows if any(r)]
    diagonal = []
    while m:
        entries = [(abs(v), i, j) for i, r in enumerate(m) for j, v in enumerate(r) if v]
        if not entries:
            break
        _, i, j = min(entries)
        d = m[i][j]
        for k, r in enumerate(m):
            if k != i and r[j]:
                q = r[j] // d
                m[k] = [u - q * v for u, v in zip(r, m[i])]
        for c in range(len(m[i])):
            if c != j and m[i][c]:
                q = m[i][c] // d
                for r in m:
                    r[c] -= q * r[j]
        if any(r[j] for k, r in enumerate(m) if k != i) or any(v for c, v in enumerate(m[i]) if c != j):
            continue
        bad = next((r for r in m if any(v % d for v in r)), None)
        if bad is not None:
            m[i] = [u + v for u, v in zip(m[i], bad)]
            continue
        diagonal.append(abs(d))
        del m[i]
        for r in m:
            del r[j]
    return width - len(diagonal), tuple(sorted(d for d in diagonal if d > 1))


def perm_of_positions(positions, n):
    """Fold the transpositions (i, i+1) left to right."""
    p = list(range(1, n + 1))
    for i in positions:
        p = [i + 1 if v == i else i if v == i + 1 else v for v in p]
    return tuple(p)


def perm_compose(p, q):
    """Apply p first, then q (1-based image tuples)."""
    return tuple(q[v - 1] for v in p)


def cycle_lengths(perm):
    """The sorted cycle lengths of a 1-based image tuple."""
    seen = set()
    lengths = []
    for start in range(1, len(perm) + 1):
        k, length = start, 0
        while k not in seen:
            seen.add(k)
            k = perm[k - 1]
            length += 1
        if length:
            lengths.append(length)
    return sorted(lengths)


def welded_letters(letters):
    """The quotient map to the welded alphabet, letter by letter: each
    virtual rho_i becomes alpha_i, and the crossings stay."""
    return tuple(l._replace(family="a") if l.family == "r" else l for l in letters)


def exponent_sums(letters, gens):
    """The exponent sum of each generator in gens, in that order: one pass
    over the letters, adding 1 for a generator and -1 for an inverse."""
    sums = dict.fromkeys(gens, 0)
    for v in letters:
        sums[abs(v)] += 1 if v > 0 else -1
    return [sums[g] for g in gens]


def slot_words(generators, relators):
    """(k, words): the relators (letter tuples) rewritten over slots.  The
    k generators that occur in some relator take slots 0..k-1, most
    occurrences first and in generator order on ties; slot s is written
    1 + 2s and its inverse 2 + 2s."""
    occurrences = dict.fromkeys(generators, 0)
    for r in relators:
        for v in r:
            occurrences[abs(v)] += 1
    active = sorted((g for g in generators if occurrences[g]), key=lambda g: -occurrences[g])
    slot = {g: s for s, g in enumerate(active)}
    return len(active), tuple(tuple(1 + 2 * slot[abs(v)] + (v < 0) for v in r) for r in relators)


def brute_count_homs(generators, relators, table):
    """Count homs by trying every tuple of images, no pruning.

    generators: sequence of gids; relators: sequence of signed-letter
    tuples; table: FiniteGroupTable.
    """
    m = table.order
    idx = {g: i for i, g in enumerate(generators)}
    count = 0
    for assignment in itertools.product(range(m), repeat=len(generators)):
        good = True
        for rel in relators:
            v = 0
            for letter in rel:
                e = assignment[idx[abs(letter)]]
                if letter < 0:
                    e = table.inverse[e]
                v = table.table[v][e]
            if v != 0:
                good = False
                break
        if good:
            count += 1
    return count


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_det(a):
    """Determinant by cofactor expansion along the first row."""
    if not a:
        return 1
    return sum(
        (-1) ** j * a[0][j] * mat_det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
    )


def echelon_mod(a, width, p):
    """The reduced row echelon form over the integers mod the prime p of
    the rows a, each of `width` ints, by Gauss-Jordan elimination: its
    nonzero rows and their pivot columns."""
    rows = [[x % p for x in row] for row in a]
    pivots = []
    for j in range(width):
        rank = len(pivots)
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][j], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                f = rows[i][j]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        pivots.append(j)
    return rows[: len(pivots)], pivots


def kernel_mod(a, width, p):
    """A basis of the kernel of x -> a x over the integers mod the prime p,
    one vector for each column of the echelon form without a pivot."""
    rows, pivots = echelon_mod(a, width, p)
    basis = []
    for f in (j for j in range(width) if j not in pivots):
        x = [0] * width
        x[f] = 1
        for row, j in zip(rows, pivots):
            x[j] = -row[f] % p
        basis.append(x)
    return basis


def mat_nullity_mod(a, p):
    """The dimension of the kernel of x -> a x over the integers mod the
    prime p."""
    return len(kernel_mod(a, len(a[0]), p))


def direct_product_table(g, h):
    """The multiplication table of G x H from the tables of G and H; the
    pair (a, b) gets the id a * |H| + b."""
    m, k = len(g), len(h)
    return [
        [g[a1][b1] * k + h[a2][b2] for b1 in range(m) for b2 in range(k)]
        for a1 in range(m)
        for a2 in range(k)
    ]


def permutation_table(perms):
    """The multiplication table of a group of permutations, each a tuple
    of the images of 0..n-1.  Element i is the i-th permutation in
    sorted order, so the identity is 0, and i * j applies i first."""
    perms = sorted(perms)
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(q[v] for v in p)] for q in perms] for p in perms]


def even_permutations(n):
    """The permutations of 0..n-1 with an even number of inversions."""
    return [p for p in itertools.permutations(range(n))
            if sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0]


# The battery groups that split over an elementary abelian normal subgroup
# M = F_p^d with a cyclic complement C_q, by name: the prime p, a basis of
# M and a generator t of C_q, as permutations (tuples of the images of
# 0..n-1).  V = {e, (01)(23), (02)(13), (03)(12)}.
SPLIT_EXTENSIONS = {
    "sym3": (3, [(1, 2, 0)], (1, 0, 2)),  # A3 x| <(01)>
    "dihedral4": (2, [(1, 0, 3, 2), (2, 3, 0, 1)], (0, 3, 2, 1)),  # V x| <(13)>
    "alt4": (2, [(1, 0, 3, 2), (2, 3, 0, 1)], (1, 2, 0, 3)),  # V x| <(012)>
}


@functools.lru_cache(maxsize=None)
def split_extension(name):
    """(p, q, d, blocks) for the split extension M x| C_q named, with
    M = F_p^d and q the order of t, a prime.  blocks maps each (n_e mod p
    for e in Z/q) to the d x d matrix sum_e n_e A^e over F_p, A being the
    action m -> t m t^-1 of t on M in basis coordinates.  Checked: for
    each unit u mod q some invertible P has P A = A^u P."""
    p, basis, t = SPLIT_EXTENSIONS[name]
    d = len(basis)

    def compose(a, b):  # a first, then b
        return tuple(b[v] for v in a)

    identity = tuple(range(len(t)))
    coordinates = {}
    for exponents in itertools.product(range(p), repeat=d):
        m = identity
        for g, e in zip(basis, exponents):
            for _ in range(e):
                m = compose(m, g)
        coordinates[m] = exponents
    assert len(coordinates) == p ** d  # the basis is independent
    t_inverse = tuple(sorted(identity, key=t.__getitem__))
    columns = [coordinates[compose(compose(t, g), t_inverse)] for g in basis]
    q, power = 1, t
    while power != identity:
        q, power = q + 1, compose(power, t)

    def times(a, b):
        return [[x % p for x in row] for row in mat_mul(a, b)]

    a = [list(row) for row in zip(*columns)]
    powers = [mat_identity(d)]  # A^e, e in Z/q
    for _ in range(q - 1):
        powers.append(times(powers[-1], a))
    blocks = {n: [[sum(n_e * power[x][y] for n_e, power in zip(n, powers)) % p for y in range(d)]
                  for x in range(d)]
              for n in itertools.product(range(p), repeat=q)}
    assert all(q % u for u in range(2, q))
    matrices = [[list(entries[i * d : i * d + d]) for i in range(d)]
                for entries in itertools.product(range(p), repeat=d * d)]
    for u in range(2, q):
        assert any(times(m, a) == times(powers[u], m) and rank_mod(m, d, p) == d for m in matrices)
    return p, q, d, blocks


def rank_mod(rows, width, p):
    """The rank over F_p of rows of `width` ints.  Over F_2 each row is
    packed into an int and reduced by XOR against a basis kept by leading
    bit."""
    if p != 2:
        return len(echelon_mod(rows, width, p)[1])
    lead = {}
    for row in rows:
        x = int("".join(map(str, row)) or "0", 2)
        while x and x.bit_length() in lead:
            x ^= lead[x.bit_length()]
        if x:
            lead[x.bit_length()] = x
    return len(lead)


def split_extension_count(generators, relators, name):
    """|Hom(G, H)| for G = <generators | relators>, given as ids and tuples
    of signed ids, and H = M x| C_q one of SPLIT_EXTENSIONS.

    H's elements are m t^c, multiplied as (m t^c)(m' t^c') =
    (m + A^c m') t^(c + c'), with A the conjugation action.  A hom sends
    each x_j to m_j t^(c_j).  Its C_q part rho: x_j -> c_j is a hom into
    C_q, a vector in the kernel mod q of the exponent-sum matrix.  The
    M part of a relator's image is then sum_j J_j m_j, where J_j, the Fox
    derivative by x_j evaluated through rho, adds A^c(u) for each letter
    x_j and subtracts A^c(u x_j^-1) for each letter x_j^-1, u being the
    word before that letter and c(u) its image under rho.  So
    |Hom(G, H)| = sum over rho of p^(dk - rank J_rho), J_rho the Fox
    Jacobian over F_p (R. Fox, Ann. Math. 1953), over the k generators
    in some relator, times |H| for each generator in none.

    rho runs over lambda_1 b_1 + ... + lambda_r b_r, b a kernel basis,
    so c(u) = lambda . v(u) with v(u)_l = (the exponent sums of u) . b_l
    mod q.  For a unit u mod q, J_(u rho)'s blocks are J_rho's with A^u
    for A; as A^u = P A P^-1 (see split_extension), J_(u rho) is J_rho
    conjugated by diag(P), of equal rank.  So only the lambda whose first
    nonzero coordinate is 1 are visited, each standing for q - 1.  Each letter's term is booked under (relator, j, v(u)), and
    (relator, j) keeps a bitmask of p - 1 copies of (Z/q)^r, copy c at bit
    c q^r: a v booked n times net (mod p) sets bit sum_l v_l q^l in the
    first n copies.  For each lambda the v with lambda . v = e are a
    bitmask with the same copies, built one coordinate of lambda at a
    time, so each entry n_e of J_rho is one popcount."""
    p, q, d, blocks = split_extension(name)
    active = sorted({abs(v) for r in relators for v in r})
    k = len(active)
    free = (q * p ** d) ** (len(generators) - k)
    slot = {g: j for j, g in enumerate(active)}
    sums = [[0] * k for _ in relators]
    for row, r in zip(sums, relators):
        for v in r:
            row[slot[abs(v)]] += 1 if v > 0 else -1
    kernel = kernel_mod(sums, k, q)
    steps = [[b[j] for b in kernel] for j in range(k)]  # v(x_j), by j
    booked = [[0] * k for _ in relators]  # bitmasks, by relator and j
    copies = q ** len(kernel)  # the bits of a copy
    for masks, r in zip(booked, relators):
        net, v = Counter(), (0,) * len(kernel)
        for letter in r:
            j = slot[abs(letter)]
            if letter > 0:
                net[j, v] += 1
            v = tuple((x + (1 if letter > 0 else -1) * y) % q for x, y in zip(v, steps[j]))
            if letter < 0:
                net[j, v] -= 1
        for (j, v), n in net.items():
            for c in range(n % p):
                masks[j] |= 1 << c * copies + sum(x * q ** l for l, x in enumerate(v))

    def terms(level, by_residue, zero):
        """The sum over lambda_level.. of p^(dk - rank J_rho), by_residue[e]
        being the bitmask of v in (Z/q)^level with lambda . v = e, and zero
        whether lambda_0..lambda_(level-1) are all 0."""
        if level == len(kernel):
            jacobian = []
            for masks in booked:
                row = [blocks[tuple([(mask & s).bit_count() % p for s in by_residue])] for mask in masks]
                jacobian += [[x for block in row for x in block[i]] for i in range(d)]  # d rows per relator
            return p ** (d * k - rank_mod(jacobian, d * k, p))
        # v = (v', x), x at bit x q^level: lambda . v = e iff lambda' . v' = e - lam x
        shift = q ** level
        return sum((q - 1 if zero and lam else 1)
                   * terms(level + 1, [functools.reduce(operator.or_, (by_residue[(e - lam * x) % q] << x * shift
                                                                      for x in range(q)))
                                       for e in range(q)], zero and not lam)
                   for lam in ((0, 1) if zero else range(q)))

    return free * terms(0, [sum(1 << c * copies for c in range(p - 1))] + [0] * (q - 1), True)


def split_extension_counts(generators, relators):
    """split_extension_count into each of SPLIT_EXTENSIONS, by name."""
    return {name: split_extension_count(generators, relators, name) for name in SPLIT_EXTENSIONS}
