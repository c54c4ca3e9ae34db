"""A fixed pure-Python reference loop, used to normalise timings.

The host this benchmark was written on runs slower in phases that last
longer than one run, by 25-50%.  The loop below is timed between units of
about 80 ms of measured work, and each unit's seconds are scaled by
NOMINAL_MS / (mean loop time within 2 s of the unit; run.UNIT_S and
run.REF_WINDOW_S), so a phase that slows the interpreter slows the loop
by about the same share and cancels out.

The loop shares no code with linkgroups but does the same kinds of work:
backtracking over a permutation-group multiplication table, substituting
and freely reducing signed-letter words, and allocating small objects.
A tight arithmetic loop tracked the workloads worse: it sped up by 1.6x
in phases where they sped up by 1.1x.
"""

from __future__ import annotations

import itertools
import time

# Loop time on the reference host (2-core x86-64, CPython 3.11); fixed so
# that reference seconds from different runs and commits compare.
NOMINAL_MS = 1.15


def _perm_table(n):
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(q[v] for v in p)] for q in perms] for p in perms]
    inverse = [index[tuple(sorted(range(n), key=p.__getitem__))] for p in perms]
    return table, inverse


_TABLE, _INVERSE = _perm_table(4)
_RELATOR = (1, 2, 1, -2, -1, -2)
_IMAGES = {1: (1, 2, -1), 2: (1,), 3: (3, -2)}


class _Node:
    __slots__ = ("word", "depth")

    def __init__(self, word, depth):
        self.word = word
        self.depth = depth


def _reduce(letters):
    out = []
    for v in letters:
        if out and out[-1] == -v:
            out.pop()
        else:
            out.append(v)
    return tuple(out)


def _loop() -> int:
    table, inverse = _TABLE, _INVERSE
    total = 0
    for a in range(24):
        for b in range(24):
            w = 0
            for v in _RELATOR:
                g = a if abs(v) == 1 else b
                w = table[w][g if v > 0 else inverse[g]]
            total += w == 0
    for start in range(12):
        word = (1, 2, 3, -1, 2, start % 3 + 1)
        nodes = []
        for depth in range(6):
            letters = []
            for v in word:
                image = _IMAGES[abs(v)]
                letters.extend(image if v > 0 else tuple(-x for x in reversed(image)))
            word = _reduce(letters)[:40]
            nodes.append(_Node(word, depth))
        seen = {}
        for node in nodes:
            for v in node.word:
                seen[abs(v)] = seen.get(abs(v), 0) + node.depth
        total += len(seen)
    return total


def ref_ms(repeats: int = 3) -> float:
    """Observed loop time in ms: the fastest of a few repeats, so that one
    interrupt does not count as a slow phase."""
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        _loop()
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return best * 1000.0
