"""The benchmark's workloads: how an item is generated and run.

An item is one unit of user-visible work: one fuzz trial (a one-trial
`markov.fuzz` campaign) or one braid taken through present -> Tietze ->
abelian invariants.  Runners return (status, output), with status "ok",
"skip" or "error"; output is the deterministic text the digest and
checks cover.
"""

from __future__ import annotations

import random

# criterion 9's campaign parameters
FUZZ_STRANDS, FUZZ_LEN, FUZZ_DEPTH = 4, 10, 6
# fuzz-welded mixes the welded, wada1 and wada2 campaigns 500:200:200, as
# criterion 9 does; kind is the Wada type, 0 for the plain welded group
WELDED_KINDS = (0, 1, 2)
WELDED_WEIGHTS = (5, 2, 2)

INVARIANT_THEORIES = ("classical", "virtual", "welded")
INVARIANT_STRANDS = (4, 9)
INVARIANT_LETTERS = (20, 50)

_FAMILIES = {"classical": "s", "virtual": "sr", "welded": "sa"}


def braid_letters(rng: random.Random, strands: int, length: int, theory: str):
    """Uniform letters over the theory's alphabet, as (family, pos, sign);
    drawn here rather than by the package so that the inputs do not move
    when the package's own generator changes."""
    alphabet = []
    for i in range(1, strands):
        for fam in _FAMILIES[theory]:
            alphabet.append((fam, i, 1))
            if fam == "s":
                alphabet.append((fam, i, -1))
    return [rng.choice(alphabet) for _ in range(length)]


def invariant_braid(seed: int):
    """(theory, strands, letters) of the invariants-long braid for a seed."""
    rng = random.Random(seed)
    theory = rng.choice(INVARIANT_THEORIES)
    strands = rng.randint(*INVARIANT_STRANDS)
    length = rng.randint(*INVARIANT_LETTERS)
    return theory, strands, braid_letters(rng, strands, length, theory)


def braid_text(letters) -> str:
    if not letters:
        return "1"
    return " ".join(f"{f}{p}" + ("^-1" if s < 0 else "") for f, p, s in letters)


# ---------------------------------------------------------------------------
# in-process runners; `lg` holds the linkgroups modules loaded at set-up


def run_fuzz(lg, theory: str, seed: int, wada_type=None, captured=None):
    """One fuzz trial.  Its output is the rendered report followed by every
    fingerprint the trial computed, so the digests cover each count and
    abelian invariant, not only the mismatch tally.  captured, if given,
    receives (presentation, fingerprint) pairs for the oracle check."""
    fingerprints = [] if captured is None else captured
    fingerprint = lg.markov.fingerprint

    def capture(p, battery=None, cap=None):
        fp = fingerprint(p, battery, cap)
        fingerprints.append((p, fp))
        return fp

    # markov looks fingerprint up as its own global
    lg.markov.fingerprint = capture
    try:
        report = lg.markov.fuzz(
            theory, 1, FUZZ_STRANDS, FUZZ_LEN, FUZZ_DEPTH, seed=seed, wada_type=wada_type or None
        )
    finally:
        lg.markov.fingerprint = fingerprint
    status = "error" if report.mismatches else "skip" if report.skipped else "ok"
    return status, "\n".join([report.render()] + [str(fp) for _, fp in fingerprints])


def fuzz_virtual_item(lg, item, captured=None):
    return run_fuzz(lg, "virtual", item[0], captured=captured)


def fuzz_welded_item(lg, item, captured=None):
    return run_fuzz(lg, "welded", item[1], item[0], captured=captured)


def build_invariant(lg, seed: int):
    """The closure presentation of the seed's braid."""
    theory, strands, letters = invariant_braid(seed)
    b = lg.braid.BraidWord(strands, theory, [lg.braid.BraidLetter(*l) for l in letters])
    build = {
        "classical": lg.present.group_of_classical_link,
        "virtual": lg.present.group_of_virtual_link,
        "welded": lg.present.group_of_welded_link,
    }[theory]
    return build(b)


def invariants_item(lg, item):
    seed = item[0]
    try:
        res = lg.present.tietze_simplify(build_invariant(lg, seed))
        inv = lg.present.abelian_invariants(res.presentation)
    except lg.freegroup.WordLengthError as exc:
        return "skip", f"{seed} WordLengthError: {exc}"
    p = res.presentation
    out = f"{seed} {inv} gens={len(p.generators)} rels={len(p.relators)} exhausted={res.exhausted}"
    return ("skip" if res.exhausted else "ok"), out
