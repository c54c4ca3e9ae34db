"""Command line interface.

The library is the product; this is thin glue.  Presentations and braid
words travel between subcommands through the text formats, so the
subcommands compose in pipelines.  All output is deterministic given the
flags and seed.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

from . import braid, homcount, markov, present, reps
from .freegroup import Word, WordLengthError, format_word, gen_name, parse_letters


def _integer(text: str) -> int:
    """An integer flag's value.  argparse names the flag in front of each
    error, and keeps the message of an ArgumentTypeError only."""
    try:
        value = homcount.read_int(text, "the integer")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _build_parser():
    # allow_abbrev=False: a flag's prefix is refused, not read as the flag it
    # abbreviates (present --wada 2 would silently set --wada-h)
    top = argparse.ArgumentParser(
        prog="linkgroups",
        description="Group-valued invariants of classical, virtual, and welded links",
        allow_abbrev=False,
    )
    add_parser = partial(top.add_subparsers(dest="command", required=True).add_parser, allow_abbrev=False)

    p = add_parser("parse", help="validate and normalize a braid word")
    p.add_argument("--theory", choices=braid.THEORIES, required=True)
    p.add_argument("--strands", type=_integer, required=True)
    p.add_argument("--word", required=True)

    p = add_parser("act", help="print the free-group images of a braid word")
    p.add_argument("--rep", choices=tuple(reps.REPRESENTATIONS), required=True)
    p.add_argument("--wada-h", type=_integer, default=1)
    p.add_argument("--strands", type=_integer, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--on", help="apply to this free word instead of listing generators")

    p = add_parser("present", help="emit the link group presentation of a braid closure")
    p.add_argument("--theory", choices=braid.THEORIES, required=True)
    p.add_argument("--strands", type=_integer, required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--rep", choices=("default", "wada1", "wada2"), default="default")
    p.add_argument("--wada-h", type=_integer, default=1)
    p.add_argument("--format", choices=("text", "structured"), default="text")

    p = add_parser("simplify", help="Tietze-simplify a presentation")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--budget", type=_integer, default=present.TIETZE_BUDGET)
    p.add_argument("--format", choices=("text", "structured"), default="text")

    p = add_parser("abelianize", help="abelian invariants of a presentation")
    p.add_argument("--in", dest="infile", default="-")

    p = add_parser("homcount", help="count homomorphisms to a finite group")
    p.add_argument("--in", dest="infile", default="-")
    p.add_argument("--group", required=True, help="sym3|sym4|alt4|d4|c<k>|table:<path>")
    p.add_argument("--cap", type=_integer, default=None)

    p = add_parser("check-relations", help="verify the defining relations under a representation")
    p.add_argument("--rep", choices=tuple(reps.REPRESENTATIONS), required=True)
    p.add_argument("--strands", type=_integer, required=True)
    p.add_argument("--wada-h", type=_integer, default=1)
    p.add_argument("--include-forbidden", action="store_true")

    p = add_parser("markov-fuzz", help="fingerprint invariance under random moves")
    p.add_argument("--theory", choices=("virtual", "welded"), required=True)
    p.add_argument("--trials", type=_integer, required=True)
    p.add_argument("--strands", type=_integer, default=4)
    p.add_argument("--len", dest="length", type=_integer, default=10)
    p.add_argument("--depth", type=_integer, default=6)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--wada", type=_integer, choices=(1, 2), default=None)

    add_parser("examples", help="replay the worked examples as a regression suite")
    return top


def _read_presentation(path: str) -> present.Presentation:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return present.parse_presentation(text)


def _group_from_flag(flag: str):
    if flag.startswith("table:"):
        path = flag[len("table:") :]
        return homcount.load_table_text(Path(path).read_text(), name=path)
    return homcount.builtin_group(flag)


def _cmd_parse(args) -> int:
    b = braid.parse(args.word, args.strands, args.theory)
    print(braid.serialize(b))
    return 0


def _cmd_act(args) -> int:
    rep = reps.representation(args.rep, args.strands, args.wada_h)
    b = braid.parse(args.word, args.strands, rep.theory)
    e = rep.evaluate(b)
    if args.on is not None:
        letters = parse_letters(args.on)
        bad = next((v for v in letters if v not in rep.ambient.letter_set), None)
        if bad is not None:
            raise ValueError(f"--on word uses unknown generator {gen_name(abs(bad))}")
        print(format_word(e(Word(rep.ambient, letters))))
        return 0
    for g in rep.ambient.gens():
        print(f"{gen_name(g)} -> {format_word(e.images[g])}")
    return 0


def _cmd_present(args) -> int:
    b = braid.parse(args.word, args.strands, args.theory)
    wada_type = None if args.rep == "default" else int(args.rep[4:])
    p = present.closure_group(b, wada_type, args.wada_h)
    print(present.format_presentation(p, structured=args.format == "structured"))
    return 0


def _cmd_simplify(args) -> int:
    p = _read_presentation(args.infile)
    res = present.tietze_simplify(p, args.budget)
    print(present.format_presentation(res.presentation, structured=args.format == "structured"))
    if res.exhausted:
        print("warning: tietze budget exhausted; result is the best seen", file=sys.stderr)
    return 0


def _cmd_abelianize(args) -> int:
    inv = present.abelian_invariants(_read_presentation(args.infile))
    print(f"free_rank: {inv.free_rank}")
    torsion = " ".join(str(d) for d in inv.torsion)
    print(f"torsion: {torsion}" if torsion else "torsion:")
    return 0


def _cmd_homcount(args) -> int:
    p = _read_presentation(args.infile)
    g = _group_from_flag(args.group)
    print(homcount.count_homs(p, g, cap=args.cap))
    return 0


def _cmd_check_relations(args) -> int:
    rep = reps.representation(args.rep, args.strands, args.wada_h)
    extra = braid.forbidden_relations(args.strands) if args.include_forbidden else ()
    if extra and rep.theory != "virtual":
        raise ValueError("the forbidden relations are expressed over the virtual alphabet")
    failures = 0
    reports = reps.check_relations(rep, extra)
    for rpt in reports:
        if rpt.holds:
            print(f"{rpt.label()}: ok")
        else:
            failures += 1
            g, left, right = rpt.witness
            print(
                f"{rpt.label()}: FAIL witness {gen_name(g)}: "
                f"{format_word(left)} != {format_word(right)}"
            )
    print(f"relations: {len(reports)}, failures: {failures}")
    return 0


def _cmd_markov_fuzz(args) -> int:
    report = markov.fuzz(
        args.theory,
        args.trials,
        args.strands,
        args.length,
        args.depth,
        args.seed,
        wada_type=args.wada,
    )
    print(report.render())
    return 0 if report.ok else 3


def _cmd_examples(args) -> int:
    from .examples import run_examples

    ok = True
    for label, passed, detail in run_examples():
        status = "PASS" if passed else "FAIL"
        line = f"{status} {label}"
        if detail and not passed:
            line += f": {detail}"
        print(line)
        ok = ok and passed
    return 0 if ok else 1


_HANDLERS = {
    "parse": _cmd_parse,
    "act": _cmd_act,
    "present": _cmd_present,
    "simplify": _cmd_simplify,
    "abelianize": _cmd_abelianize,
    "homcount": _cmd_homcount,
    "check-relations": _cmd_check_relations,
    "markov-fuzz": _cmd_markov_fuzz,
    "examples": _cmd_examples,
}


def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, WordLengthError, homcount.CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
