"""Independent oracles the tests check the library against.

Everything here is deliberately naive and shares no code with the
package: repeated-scan reduction, plain substitution and its
left-to-right fold over a braid word, brute-force hom counting over
full tuple products, schoolbook matrix multiplication, cofactor
determinants and direct products of multiplication tables.
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


def perm_of_positions(positions, n):
    """Fold the transpositions (i, i+1) left to right."""
    p = list(range(1, n + 1))
    for i in positions:
        p = [i + 1 if v == i else i if v == i + 1 else v for v in p]
    return tuple(p)


def perm_compose(p, q):
    """Apply p first, then q (1-based image tuples)."""
    return tuple(q[v - 1] for v in p)


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


def direct_product_table(g, h):
    """The multiplication table of G x H from the tables of G and H; the
    pair (a, b) gets the id a * |H| + b."""
    m, k = len(g), len(h)
    return [
        [g[a1][b1] * k + h[a2][b2] for b1 in range(m) for b2 in range(k)]
        for a1 in range(m)
        for a2 in range(k)
    ]
