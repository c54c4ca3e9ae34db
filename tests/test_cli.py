"""CLI: pipelines, formats, determinism, error statuses."""

import io
import json
import tracemalloc

import pytest

from linkgroups import cli, examples
from linkgroups.braid import MAX_STRANDS
from linkgroups.cli import _build_parser, _integer, run
from linkgroups.examples import EXCHANGE_RELATOR, KISHINO_CLOSURE, TREFOIL_SYM3, VIRTUAL_TREFOIL
from linkgroups.homcount import MAX_GROUP_ORDER
from linkgroups.markov import FUZZ_THEORIES
from linkgroups.present import WADA_TYPES
from linkgroups.reps import REPRESENTATIONS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_round_trip(capsys):
    code, out, _ = invoke(capsys, "parse", "--theory", "virtual", "--strands", "2", "--word", "s1 s1 r1")
    assert code == 0 and out.strip() == "s1 s1 r1"
    code, out, _ = invoke(capsys, "parse", "--theory", "virtual", "--strands", "2", "--word", "r1^-1")
    assert code == 0 and out.strip() == "r1"


def test_parse_bad_word(capsys):
    code, _, err = invoke(capsys, "parse", "--theory", "classical", "--strands", "2", "--word", "r1")
    assert code == 1 and err.startswith("error:")


def test_usage_error_status():
    with pytest.raises(SystemExit) as exc:
        run(["parse", "--theory", "imaginary", "--strands", "2", "--word", "s1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["homcount", "--group", "sym3", "--jobs", "2"])  # hom counting runs in one process
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["markov-fuzz", "--theory", "welded", "--trials", "2", "--jobs", "2"])  # so do fuzz trials
    assert exc.value.code == 2


PRESENT_WELDED = ("present", "--theory", "welded", "--strands")


@pytest.mark.parametrize("argv, message", [
    # --wada is markov-fuzz's Wada type; here it would have been read as --wada-h
    (PRESENT_WELDED + ("2", "--word", "s1 s1 s1", "--rep", "wada1", "--wada", "2"),
     "unrecognized arguments: --wada 2"),
    (PRESENT_WELDED + ("3", "--word", "a1 a1", "--wada", "3"), "unrecognized arguments: --wada 3"),
    (PRESENT_WELDED + ("2", "--word", "s1", "--form", "text"), "unrecognized arguments: --form text"),
    (("markov-fuzz", "--theory", "welded", "--trials", "2", "--wad", "1"), "unrecognized arguments: --wad 1"),
    (("homcount", "--group", "sym3", "--ca", "9"), "unrecognized arguments: --ca 9"),
    # every flag abbreviated: argparse reports the missing flags first
    (("present", "--the", "welded", "--str", "2", "--wo", "s1"),
     "the following arguments are required: --theory, --strands, --word"),
])
def test_abbreviated_flags_are_refused(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    assert exc.value.code == 2 and message in capsys.readouterr().err


@pytest.mark.parametrize("h, count", [(None, 12), ("2", 6)])
def test_present_wada_h_spelled_in_full(capsys, monkeypatch, h, count):
    flags = () if h is None else ("--wada-h", h)
    code, out, _ = invoke(capsys, *PRESENT_WELDED, "2", "--word", "s1 s1 s1", "--rep", "wada1", *flags)
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    assert invoke(capsys, "homcount", "--group", "sym3") == (0, f"{count}\n", "")


def test_act_lists_images(capsys):
    code, out, _ = invoke(
        capsys, "act", "--rep", "virtual", "--strands", "2", "--word", "r1"
    )
    assert code == 0
    assert out.splitlines() == ["x1 -> y x2 y^-1", "x2 -> y^-1 x1 y", "y -> y"]


def test_act_on_word(capsys):
    code, out, _ = invoke(
        capsys, "act", "--rep", "virtual", "--strands", "2", "--word", "s1", "--on", "x1",
    )
    assert code == 0 and out.strip() == "x1 x2 x1^-1"


@pytest.mark.parametrize("rep, on, name", [("virtual", "x1 x9", "x9"), ("artin", "x2 y^-1", "y"),
                                           ("virtual", "x4^-1", "x4")])
def test_act_on_names_an_unknown_generator(capsys, rep, on, name):
    result = invoke(capsys, "act", "--rep", rep, "--strands", "3", "--word", "s1", "--on", on)
    assert one_line_error(*result)
    assert result[2] == f"error: --on word uses unknown generator {name}\n"


@pytest.mark.parametrize("argv", [
    ("parse", "--theory", "classical", "--strands", "3", "--word", ""),
    ("parse", "--theory", "virtual", "--strands", "3", "--word", "  "),
    ("present", "--theory", "virtual", "--strands", "2", "--word", ""),
    ("act", "--rep", "virtual", "--strands", "2", "--word", "s1", "--on", ""),
    ("act", "--rep", "virtual", "--strands", "2", "--word", "s1", "--on", " "),
])
def test_empty_word_text_is_an_error(capsys, argv):
    # both grammars write the empty word as 1
    result = invoke(capsys, *argv)
    assert one_line_error(*result) and "the empty word is written 1" in result[2]
    assert invoke(capsys, *argv[:-1], "1")[0] == 0


@pytest.mark.parametrize("payload", ["gens: x1 x2\nrel: x1 x2\nrel:\n", "gens: x1\nrel:   \n",
                                     '{"generators": ["x1"], "relators": [" "]}'])
def test_blank_relator_is_an_error(capsys, monkeypatch, payload):
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    result = invoke(capsys, "abelianize")
    assert one_line_error(*result) and "the empty word is written 1" in result[2]


def test_present_text(capsys):
    code, out, _ = invoke(
        capsys, "present", "--theory", "virtual", "--strands", "2", "--word", VIRTUAL_TREFOIL
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gens: x1 x2 y"
    assert len(lines) == 3 and all(l.startswith("rel: ") for l in lines[1:])


def test_present_structured(capsys):
    code, out, _ = invoke(
        capsys,
        "present", "--theory", "virtual", "--strands", "2", "--word", VIRTUAL_TREFOIL,
        "--format", "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generators"] == ["x1", "x2", "y"]
    assert len(payload["relators"]) == 2


def test_present_wada_requires_welded(capsys):
    code, _, err = invoke(
        capsys,
        "present", "--theory", "virtual", "--strands", "2", "--word", "s1", "--rep", "wada2",
    )
    assert code == 1 and "welded" in err


def one_line_error(code, out, err):
    return code == 1 and out == "" and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("h", ["0", "-1"])
def test_act_rejects_nonpositive_wada_h(capsys, h):
    result = invoke(capsys, "act", "--rep", "wada1", "--wada-h", h, "--strands", "2", "--word", "s1")
    assert one_line_error(*result)


def test_present_rejects_nonpositive_wada_h_without_wada_rep(capsys):
    result = invoke(capsys, "present", "--theory", "welded", "--strands", "2", "--word", "s1",
                    "--wada-h", "0")
    assert one_line_error(*result) and "at least 1" in result[2]


def test_act_rejects_wada_h_outside_wada1(capsys):
    result = invoke(capsys, "act", "--rep", "virtual", "--strands", "2", "--word", "r1",
                    "--wada-h", "7")
    assert one_line_error(*result) and "only to wada1" in result[2]


@pytest.mark.parametrize("argv, h", [
    (("act", "--rep", "wada1", "--strands", "3", "--word", "s1"), 10 ** 12),
    (("present", "--theory", "welded", "--rep", "wada1", "--strands", "3", "--word", "s1"), 10 ** 8),
    (("check-relations", "--rep", "wada1", "--strands", "3"), 10 ** 8),
])
def test_large_wada_h_is_one_line_error(capsys, argv, h):
    # x_i's image under sigma_i has 2h + 1 letters, refused before it is built
    result = invoke(capsys, *argv, "--wada-h", str(h))
    assert one_line_error(*result)
    assert result[2] == f"error: {2 * h + 1} letters exceeds limit 1000000\n"


def test_wada_h_over_the_letter_limit_builds_no_image(capsys):
    tracemalloc.start()
    try:
        result = invoke(capsys, "act", "--rep", "wada1", "--strands", "3", "--word", "s1",
                        "--wada-h", "600000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result[2] == "error: 1200001 letters exceeds limit 1000000\n"
    assert peak < 10 ** 6  # a tuple of 1200001 letters alone takes about 10 MB


@pytest.mark.parametrize("word", ["a1", "1"])
def test_large_wada_h_without_sigma_letters(capsys, word):
    # only a sigma letter builds the long image; alpha letters ignore h
    argv = ("act", "--rep", "wada1", "--strands", "3", "--word", word)
    expected = invoke(capsys, *argv)
    assert invoke(capsys, *argv, "--wada-h", str(10 ** 12)) == expected
    assert expected[0] == 0 and len(expected[1].splitlines()) == 3


# more digits than int() reads from a string by default
HUGE = "1" * 5000


def refused_as(result, message):
    """The one-line error message, not the interpreter's advice to raise
    its limit on integer digits."""
    assert "set_int_max_str_digits" not in result[2]
    return one_line_error(*result) and result[2] == f"error: {message}\n"


def test_homcount_rejects_group_order_over_ceiling(capsys, monkeypatch):
    for order in (str(MAX_GROUP_ORDER + 1), HUGE):
        monkeypatch.setattr("sys.stdin", io.StringIO("gens: x1\nrel: x1 x1\n"))
        result = invoke(capsys, "homcount", "--group", f"c{order}")
        assert refused_as(result, f"group order {order} exceeds the ceiling {MAX_GROUP_ORDER}")


@pytest.mark.parametrize("name, message", [
    ("c١٢", "unknown builtin group 'c١٢'"),  # Arabic-Indic digits
    ("c²", "unknown builtin group 'c²'"),  # superscript two
    ("c001", "unknown builtin group 'c001'"),
    ("c0", "cyclic order must be positive"),
])
def test_homcount_cyclic_names_are_ascii_without_leading_zeros(capsys, monkeypatch, name, message):
    monkeypatch.setattr("sys.stdin", io.StringIO("gens: x1\nrel: x1 x1\n"))
    assert invoke(capsys, "homcount", "--group", name) == (1, "", f"error: {message}\n")
    monkeypatch.setattr("sys.stdin", io.StringIO("gens: x1\nrel: x1 x1\n"))
    assert invoke(capsys, "homcount", "--group", "c12") == (0, "2\n", "")


@pytest.mark.parametrize("argv, flag", [
    (("abelianize", "--in", ""), "--in"),
    (("homcount", "--group", "table:"), "--group table:"),
])
def test_empty_paths_are_refused(capsys, monkeypatch, argv, flag):
    # Path('') is the current directory, which read as "Is a directory: '.'"
    monkeypatch.setattr("sys.stdin", io.StringIO("gens: x1\nrel: x1 x1\n"))
    assert refused_as(invoke(capsys, *argv), f"{flag} needs a path, got an empty one")


def test_homcount_deep_enumeration(capsys, monkeypatch):
    def chain(k):
        names = " ".join(f"x{i}" for i in range(1, k + 1))
        return io.StringIO(f"gens: {names}\nrel: {names}\n")

    monkeypatch.setattr("sys.stdin", chain(1000))
    assert invoke(capsys, "homcount", "--group", "c1") == (0, "1\n", "")
    monkeypatch.setattr("sys.stdin", chain(1500))
    result = invoke(capsys, "homcount", "--group", "sym3", "--cap", str(6 ** 1500))
    assert one_line_error(*result) and "recurses deeper" in result[2]
    # an abelian group is counted from the abelian invariants, without recursion
    monkeypatch.setattr("sys.stdin", chain(1500))
    assert invoke(capsys, "homcount", "--group", "c2", "--cap", str(10 ** 500)) == (0, f"{2 ** 1499}\n", "")


@pytest.mark.parametrize("cap, env, named", [
    ("0", None, "--cap"), ("-1", None, "--cap"), (HUGE, None, "--cap"),
    (None, "abc", "LINKGROUPS_HOM_CAP"), (None, "0", "LINKGROUPS_HOM_CAP"),
    (None, HUGE, "LINKGROUPS_HOM_CAP"),
])
def test_homcount_rejects_cap_below_one(capsys, monkeypatch, cap, env, named):
    if env is None:
        monkeypatch.delenv("LINKGROUPS_HOM_CAP", raising=False)
    else:
        monkeypatch.setenv("LINKGROUPS_HOM_CAP", env)
    monkeypatch.setattr("sys.stdin", io.StringIO("gens: x1 x2\n"))  # no relator to enumerate
    argv = ["homcount", "--group", "sym3"] + (["--cap", cap] if cap else [])
    if cap == HUGE:  # refused by the parser: usage, then the error line, status 2
        with pytest.raises(SystemExit) as exc:
            run(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        error = captured.err.splitlines()[-1]
        assert error == "linkgroups homcount: error: argument --cap: the integer has more than 4300 digits"
        return
    result = invoke(capsys, *argv)
    assert one_line_error(*result) and named in result[2]
    if env == HUGE:
        assert result[2] == "error: LINKGROUPS_HOM_CAP has more than 4300 digits\n"


def test_integer_flags_state_the_digit_limit(capsys):
    subcommands = next(a for a in _build_parser()._actions if a.dest == "command").choices
    flags = [a for sub in subcommands.values() for a in sub._actions if a.type is not None]
    assert len(flags) == 15 and all(a.type is _integer for a in flags)
    too_long = "the integer has more than 4300 digits"
    for argv, error in (
        (["markov-fuzz", "--theory", "welded", "--trials", "1", "--seed", HUGE], f"--seed: {too_long}"),
        (["parse", "--theory", "virtual", "--strands", HUGE, "--word", "s1"], f"--strands: {too_long}"),
        (["simplify", "--budget", "abc"], "--budget: invalid int value: 'abc'"),
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f" error: argument {error}")
    # 4000 digits are within the limit, as before
    seed = "7" * 4000
    code, out, _ = invoke(capsys, "markov-fuzz", "--theory", "welded", "--trials", "1", "--seed", seed)
    assert code == 0 and out.startswith(f"theory=welded trials=1 seed={seed} ")


def test_rep_choices_are_the_family_table():
    subcommands = next(a for a in _build_parser()._actions if a.dest == "command").choices

    def choices(name, dest):
        return tuple(next(a for a in subcommands[name]._actions if a.dest == dest).choices)

    for name in ("act", "check-relations"):
        assert choices(name, "rep") == tuple(REPRESENTATIONS)
    assert choices("present", "rep") == ("default", *(f"wada{k}" for k in WADA_TYPES))
    assert choices("markov-fuzz", "wada") == WADA_TYPES
    assert choices("markov-fuzz", "theory") == FUZZ_THEORIES


def test_each_subcommand_carries_its_handler():
    subcommands = next(a for a in _build_parser()._actions if a.dest == "command").choices
    assert len(subcommands) == 9
    for name, parser in subcommands.items():
        assert parser.get_default("handler") is getattr(cli, "_cmd_" + name.replace("-", "_"))


@pytest.mark.parametrize("payload, message", [
    ("", "empty presentation input"),
    ("  \n\n", "empty presentation input"),
    ("gens: x1\ngens: x2\n", "duplicate gens line"),
    ("gens: x1\nrelator: x1\n", "bad presentation line 'relator: x1'"),
    ("# no generators\nrel: x1 x1\n", "missing gens line"),
])
def test_malformed_text_presentation_is_an_error(capsys, monkeypatch, payload, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert invoke(capsys, "abelianize") == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "payload", ['{"generators": 5}', '{"generators": ["x1"], "relators": "x1"}']
)
def test_structured_input_is_type_checked(capsys, monkeypatch, payload):
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    result = invoke(capsys, "abelianize")
    assert one_line_error(*result) and "must be a list of strings" in result[2]


@pytest.mark.parametrize("payload", ['{"generators": ["x1"], "relator": ["x1 x1"]}',
                                     '{"generators": ["x1"], "relators": [], "gens": []}'])
def test_structured_input_rejects_unknown_keys(capsys, monkeypatch, payload):
    # a misspelled key would otherwise read as a presentation without relators
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    result = invoke(capsys, "abelianize")
    assert one_line_error(*result) and "unknown key" in result[2]


@pytest.mark.parametrize("payload, key", [
    ('{"generators": ["x1"], "relators": ["x1 x1"], "relators": []}', "relators"),
    ('{"generators": ["x1"], "generators": ["x1", "x2"], "relators": ["x1 x1"]}', "generators"),
])
def test_structured_input_rejects_repeated_keys(capsys, monkeypatch, payload, key):
    # JSON keeps the last of two equal keys, so the first would be dropped
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    result = invoke(capsys, "abelianize")
    assert one_line_error(*result) and f"repeated key {key!r}" in result[2]


def test_deeply_nested_structured_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"generators": ' + "[" * 100000 + "]" * 100000 + "}"))
    result = invoke(capsys, "homcount", "--group", "sym3")
    assert one_line_error(*result) and "nested too deeply" in result[2]


@pytest.mark.parametrize(
    "payload", ["gens: x\u0661 x2\nrel: x1 x2\n", '{"generators": ["x\u0661", "x2"], "relators": []}']
)
def test_generator_names_are_ascii(capsys, monkeypatch, payload):
    # an Arabic-Indic digit one is not the generator x1, in either form
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    result = invoke(capsys, "abelianize")
    assert one_line_error(*result) and "bad generator name" in result[2]


@pytest.mark.parametrize("payload", ["gens: x1073741824\nrel: x1073741824 x1073741824\n", "gens: x1073741824 y\n"])
def test_generator_index_of_y_is_an_error(capsys, monkeypatch, payload):
    # 1073741824 = 2^30 is y's id; x1073741824 is neither y nor a duplicate of it
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    result = invoke(capsys, "simplify")
    assert one_line_error(*result)
    assert result[2] == "error: bad generator name 'x1073741824'\n"


@pytest.mark.parametrize(
    "payload, name",
    [
        ("gens: x1\nrel: y\n", "y"),
        ("gens: x1 x2\nrel: x3\n", "x3"),
        ("gens: x2\nrel: x1\n", "x1"),
        ("gens: x1\nrel: x1 y y^-1\n", "y"),
        ('{"generators": ["x1"], "relators": ["y"]}', "y"),
        ('{"generators": ["x1", "x2"], "relators": ["x1 x3"]}', "x3"),
        ('{"generators": ["x2"], "relators": ["x2 x1"]}', "x1"),
    ],
)
def test_unknown_relator_generator_is_named(capsys, monkeypatch, payload, name):
    # a generator outside the ambient (y, x3) gets the same message as one
    # inside it but unlisted (x1 under gens x2), even where it cancels
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    result = invoke(capsys, "abelianize")
    assert one_line_error(*result)
    assert result[2] == f"error: relator uses unknown generator {name}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["check-relations", "--rep", "virtual", "--strands", str(MAX_STRANDS + 1)],
        ["present", "--theory", "virtual", "--strands", str(MAX_STRANDS + 1), "--word", "s1"],
        ["markov-fuzz", "--theory", "welded", "--trials", "1", "--strands", str(MAX_STRANDS - 5)],
    ],
)
def test_strand_count_above_ceiling(capsys, argv):
    result = invoke(capsys, *argv)
    assert one_line_error(*result) and "exceeds the ceiling" in result[2]


def test_pipeline_simplify_abelianize_homcount(capsys, monkeypatch, tmp_path):
    code, out, _ = invoke(
        capsys, "present", "--theory", "virtual", "--strands", "2", "--word", VIRTUAL_TREFOIL
    )
    assert code == 0
    pres_file = tmp_path / "pres.txt"
    pres_file.write_text(out)

    code, out, _ = invoke(capsys, "simplify", "--in", str(pres_file))
    assert code == 0
    simp = out
    assert simp.splitlines()[0].startswith("gens: ")
    assert len(simp.splitlines()) == 2

    simp_file = tmp_path / "simp.txt"
    simp_file.write_text(simp)

    code, out, _ = invoke(capsys, "abelianize", "--in", str(simp_file))
    assert code == 0
    assert out.splitlines() == ["free_rank: 2", "torsion:"]

    code, out, _ = invoke(capsys, "homcount", "--in", str(simp_file), "--group", "sym3")
    assert code == 0 and out.strip() == str(TREFOIL_SYM3)

    monkeypatch.setattr("sys.stdin", io.StringIO(simp))
    code, out, _ = invoke(capsys, "homcount", "--group", "sym3")
    assert code == 0 and out.strip() == str(TREFOIL_SYM3)


def test_simplify_structured_and_budget_warning(capsys, tmp_path):
    pres_file = tmp_path / "p.json"
    pres_file.write_text(json.dumps({"generators": ["x1", "x2", "y"], "relators": [EXCHANGE_RELATOR]}))
    code, out, err = invoke(
        capsys, "simplify", "--in", str(pres_file), "--format", "structured"
    )
    assert code == 0
    assert json.loads(out)["relators"] == []

    big = tmp_path / "big.txt"
    big.write_text("gens: x1 x2\nrel: x2 x1 x1 x1 x1\nrel: x2 x1 x2 x1 x2\n")
    code, out, err = invoke(capsys, "simplify", "--in", str(big), "--budget", "2")
    assert code == 0 and "budget" in err
    result = invoke(capsys, "simplify", "--in", str(big), "--budget", "-5")
    assert one_line_error(*result) and "at least 0" in result[2]


def test_homcount_custom_table(capsys, tmp_path):
    table = tmp_path / "z2.txt"
    table.write_text("order 2\n0 1\n1 0\n")
    pres = tmp_path / "p.txt"
    pres.write_text("gens: x1 x2\n")
    code, out, _ = invoke(
        capsys, "homcount", "--in", str(pres), "--group", f"table:{table}"
    )
    assert code == 0 and out.strip() == "4"


@pytest.mark.parametrize("text, line, field", [
    ("order x\n", 1, "x"),
    ("# c2\n\norder 2\n0 1\n1 z\n", 5, "z"),
])
def test_homcount_table_with_a_bad_field(capsys, tmp_path, text, line, field):
    table = tmp_path / "t.txt"
    table.write_text(text)
    pres = tmp_path / "p.txt"
    pres.write_text("gens: x1\n")
    result = invoke(capsys, "homcount", "--in", str(pres), "--group", f"table:{table}")
    assert one_line_error(*result)
    assert f"line {line}: '{field}' is not a nonnegative integer" in result[2]


@pytest.mark.parametrize("text, message", [
    ("order {}\n0\n", "group order {} exceeds the ceiling 1024"),
    ("order 2\n0 1\n1 {}\n", "{table}: entry {} out of range"),
])
def test_homcount_table_with_a_huge_field(capsys, tmp_path, text, message):
    table = tmp_path / "t.txt"
    pres = tmp_path / "p.txt"
    pres.write_text("gens: x1\n")
    for value in ("2000", HUGE):
        table.write_text(text.format(value))
        result = invoke(capsys, "homcount", "--in", str(pres), "--group", f"table:{table}")
        assert refused_as(result, message.format(value, table=table))


def _c66_with_an_intercalate_swapped():
    """c66 with t[2][7] <-> t[2][40] and t[35][7] <-> t[35][40]: every row
    and column is still a permutation, with identity 0 and inverses, but
    the table is no group."""
    t = [[(i + j) % 66 for j in range(66)] for i in range(66)]
    for row in t[2], t[35]:
        row[7], row[40] = row[40], row[7]
    return "order 66\n" + "".join(" ".join(map(str, row)) + "\n" for row in t)


@pytest.mark.parametrize("text, triple", [
    ("order 3\n0 1 2\n1 0 2\n2 2 0\n", "(1, 2, 2)"),
    (_c66_with_an_intercalate_swapped(), "(1, 1, 7)"),
])
def test_homcount_table_not_associative(capsys, tmp_path, text, triple):
    table = tmp_path / "t.txt"
    table.write_text(text)
    pres = tmp_path / "p.txt"
    pres.write_text("gens: x1 x2\nrel: x1 x2 x1^-1 x2^-1 x1\n")
    result = invoke(capsys, "homcount", "--in", str(pres), "--group", f"table:{table}")
    assert refused_as(result, f"{table}: not associative at {triple}")


def test_parse_huge_position(capsys):
    for position in ("100", HUGE):
        result = invoke(capsys, "parse", "--theory", "virtual", "--strands", "3", "--word", f"s1 s{position}")
        assert refused_as(result, f"position {position} out of range for 3 strands")


@pytest.mark.parametrize("payload, message", [
    ('{{"generators": ["x1"], "relators": [{}]}}', "'relators' must be a list of strings"),
    ('{{"generators": ["x1"], "order": {}}}', "unknown key 'order'"),
])
def test_structured_input_with_a_huge_number(capsys, monkeypatch, payload, message):
    for value in ("5", HUGE):
        monkeypatch.setattr("sys.stdin", io.StringIO(payload.format(value)))
        result = invoke(capsys, "abelianize")
        assert refused_as(result, f"structured presentation: {message}")


def test_homcount_free_rank_two(capsys, tmp_path):
    pres = tmp_path / "free.txt"
    pres.write_text("gens: x1 y\n")
    code, out, _ = invoke(capsys, "homcount", "--in", str(pres), "--group", "sym3")
    assert code == 0 and out.strip() == "36"


def test_check_relations_table(capsys):
    code, out, _ = invoke(capsys, "check-relations", "--rep", "virtual", "--strands", "3")
    assert code == 0
    assert out.strip().endswith("failures: 0")
    code, out, _ = invoke(
        capsys, "check-relations", "--rep", "virtual", "--strands", "3", "--include-forbidden"
    )
    assert code == 0
    assert "F1(1): FAIL witness x1" in out
    code, out, _ = invoke(capsys, "check-relations", "--rep", "wada3", "--strands", "3")
    assert code == 0
    assert "mixed(1): FAIL" in out and "failures: 0" not in out


def test_check_relations_forbidden_needs_virtual(capsys):
    code, _, err = invoke(
        capsys, "check-relations", "--rep", "welded", "--strands", "3", "--include-forbidden"
    )
    assert code == 1 and "virtual" in err


def test_markov_fuzz_cli(capsys):
    code, out, _ = invoke(
        capsys,
        "markov-fuzz", "--theory", "welded", "--trials", "5",
        "--strands", "3", "--len", "6", "--depth", "3", "--seed", "1",
    )
    assert code == 0
    assert "mismatches=0" in out


@pytest.mark.parametrize("flags", [
    ["--trials", "-2"],
    ["--trials", "2", "--strands", "1"],
    ["--trials", "2", "--len", "-1"],
    ["--trials", "2", "--depth", "-4"],
])
def test_markov_fuzz_rejects_bad_sizes(capsys, flags):
    result = invoke(capsys, "markov-fuzz", "--theory", "welded", *flags)
    assert one_line_error(*result) and "must be at least" in result[2]


def test_markov_fuzz_rejects_length_over_word_limit(capsys):
    # a trial draws up to --len letters into one braid word; this length is
    # only rejected, never drawn
    result = invoke(capsys, "markov-fuzz", "--theory", "welded", "--trials", "1",
                    "--len", str(10 ** 12))
    assert one_line_error(*result) and "exceeds the word-length limit" in result[2]


def test_examples_pass(capsys):
    code, out, _ = invoke(capsys, "examples")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert all(l.startswith("PASS") for l in lines)


def test_examples_report_a_failing_check(capsys, monkeypatch):
    monkeypatch.setattr(examples, "TREFOIL_SYM3", TREFOIL_SYM3 + 1)
    code, out, _ = invoke(capsys, "examples")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[1] == (
        f"FAIL virtual-trefoil-group-not-free: abelian=Z^2 sym3={TREFOIL_SYM3} "
        "(free rank 2 gives 36)"
    )
    assert all(l.startswith("PASS") for l in lines[:1] + lines[2:]) and len(lines) == 8


def test_byte_identical_output(capsys):
    args = ("present", "--theory", "virtual", "--strands", "3",
            "--word", KISHINO_CLOSURE, "--format", "structured")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second
