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
Gaussian elimination, direct products of multiplication tables and
tables of permutation groups.
"""

import itertools


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


def mat_nullity_mod(a, p):
    """The dimension of the kernel of x -> a x over the integers mod the
    prime p, by Gaussian elimination."""
    rows = [[x % p for x in row] for row in a]
    rank = 0
    for j in range(len(a[0])):
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
        rank += 1
    return len(a[0]) - rank


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
