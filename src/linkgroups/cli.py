"""Command line interface.

The library is the product; this is thin glue.  Presentations and braid
words travel between subcommands through the text formats, so the
subcommands compose in pipelines.  All output is deterministic given the
flags and seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import braid, homcount, markov, present, reps
from .freegroup import Word, format_word, gen_name, parse_letters


def _integer(text: str) -> int:
    """An integer flag's value.  argparse names the flag in front of each
    error, and keeps the message of an ArgumentTypeError only.  The digits
    are counted first: past the interpreter's limit (4300 by default) int()
    refuses with advice on sys.set_int_max_str_digits()."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # none before 3.10.7
    if limit and sum(c.isdecimal() for c in text) > limit:
        raise argparse.ArgumentTypeError(f"the integer has more than {limit} digits")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _build_parser():
    """The CLI's one table: each subcommand with its handler, its help and
    its flags in usage order.  A flag several subcommands share is one spec."""

    def flag(*names, **options):
        return names, options

    theory = flag("--theory", choices=braid.THEORIES, required=True)
    strands = flag("--strands", type=_integer, required=True)
    word = flag("--word", required=True)
    rep = flag("--rep", choices=tuple(reps.REPRESENTATIONS), required=True)
    wada_h = flag("--wada-h", type=_integer, default=1)
    infile = flag("--in", dest="infile", default="-")
    form = flag("--format", choices=("text", "structured"), default="text")
    # allow_abbrev=False: a flag's prefix is refused, not read as the flag it
    # abbreviates (present --wada 2 would silently set --wada-h)
    top = argparse.ArgumentParser(
        prog="linkgroups",
        description="Group-valued invariants of classical, virtual, and welded links",
        allow_abbrev=False,
    )
    add_parser = top.add_subparsers(dest="command", required=True).add_parser
    for name, handler, summary, *flags in (
        ("parse", _cmd_parse, "validate and normalize a braid word", theory, strands, word),
        ("act", _cmd_act, "print the free-group images of a braid word",
         rep, wada_h, strands, word,
         flag("--on", help="apply to this free word instead of listing generators")),
        ("present", _cmd_present, "emit the link group presentation of a braid closure",
         theory, strands, word,
         flag("--rep", choices=("default", *(f"wada{k}" for k in present.WADA_TYPES)), default="default"),
         wada_h, form),
        ("simplify", _cmd_simplify, "Tietze-simplify a presentation",
         infile, flag("--budget", type=_integer, default=present.TIETZE_BUDGET), form),
        ("abelianize", _cmd_abelianize, "abelian invariants of a presentation", infile),
        ("homcount", _cmd_homcount, "count homomorphisms to a finite group",
         infile, flag("--group", required=True, help="sym3|sym4|alt4|d4|c<k>|table:<path>"),
         flag("--cap", type=_integer)),
        ("check-relations", _cmd_check_relations, "verify the defining relations under a representation",
         rep, strands, wada_h, flag("--include-forbidden", action="store_true")),
        ("markov-fuzz", _cmd_markov_fuzz, "fingerprint invariance under random moves",
         flag("--theory", choices=markov.FUZZ_THEORIES, required=True),
         flag("--trials", type=_integer, required=True),
         flag("--strands", type=_integer, default=4),
         flag("--len", dest="length", type=_integer, default=10),
         flag("--depth", type=_integer, default=6),
         flag("--seed", type=_integer, default=0),
         flag("--wada", type=_integer, choices=present.WADA_TYPES)),
        ("examples", _cmd_examples, "replay the worked examples as a regression suite"),
    ):
        p = add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(handler=handler)
        for names, options in flags:
            p.add_argument(*names, **options)
    return top


def _path(text: str, flag: str) -> Path:
    """The path a flag names; Path('') would read the current directory."""
    if not text:
        raise ValueError(f"{flag} needs a path, got an empty one")
    return Path(text)


def _read_presentation(path: str) -> present.Presentation:
    text = sys.stdin.read() if path == "-" else _path(path, "--in").read_text()
    return present.parse_presentation(text)


def _group_from_flag(flag: str):
    if flag.startswith("table:"):
        path = flag[len("table:") :]
        return homcount.load_table_text(_path(path, "--group table:").read_text(), name=path)
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
        bad = next((v for v in letters if not rep.ambient.has_letter(v)), None)
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


def run(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, homcount.CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
