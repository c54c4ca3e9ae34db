"""CLI: pipelines, formats, determinism, error statuses."""

import io
import json
import tracemalloc

import pytest

from linkgroups import examples
from linkgroups.braid import MAX_STRANDS
from linkgroups.cli import _build_parser, run
from linkgroups.examples import EXCHANGE_RELATOR, KISHINO_CLOSURE, TREFOIL_SYM3, VIRTUAL_TREFOIL
from linkgroups.homcount import MAX_GROUP_ORDER
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


def test_homcount_rejects_group_order_over_ceiling(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("gens: x1\nrel: x1 x1\n"))
    result = invoke(capsys, "homcount", "--group", f"c{MAX_GROUP_ORDER + 1}")
    assert one_line_error(*result) and "exceeds the ceiling" in result[2]


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
    ("0", None, "--cap"), ("-1", None, "--cap"),
    (None, "abc", "LINKGROUPS_HOM_CAP"), (None, "0", "LINKGROUPS_HOM_CAP"),
])
def test_homcount_rejects_cap_below_one(capsys, monkeypatch, cap, env, named):
    if env is None:
        monkeypatch.delenv("LINKGROUPS_HOM_CAP", raising=False)
    else:
        monkeypatch.setenv("LINKGROUPS_HOM_CAP", env)
    monkeypatch.setattr("sys.stdin", io.StringIO("gens: x1 x2\n"))  # no relator to enumerate
    argv = ["homcount", "--group", "sym3"] + (["--cap", cap] if cap else [])
    result = invoke(capsys, *argv)
    assert one_line_error(*result) and named in result[2]


def test_rep_choices_are_the_family_table():
    subcommands = next(a for a in _build_parser()._actions if a.dest == "command").choices
    for name in ("act", "check-relations"):
        rep = next(a for a in subcommands[name]._actions if a.dest == "rep")
        assert tuple(rep.choices) == tuple(REPRESENTATIONS)


@pytest.mark.parametrize(
    "payload", ['{"generators": 5}', '{"generators": ["x1"], "relators": "x1"}']
)
def test_structured_input_is_type_checked(capsys, monkeypatch, payload):
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    result = invoke(capsys, "abelianize")
    assert one_line_error(*result) and "must be a list of strings" in result[2]


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
    ["--trials", "2", "--jobs", "0"],
    ["--trials", "2", "--jobs", "-4"],
])
def test_markov_fuzz_rejects_bad_sizes(capsys, flags):
    result = invoke(capsys, "markov-fuzz", "--theory", "welded", *flags)
    assert one_line_error(*result) and "must be at least" in result[2]


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
