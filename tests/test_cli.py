import json

import pytest

from substratum import cli
from substratum.cli import main

PD = {"alphabet": ["a", "b"], "length": 2, "rules": {"a": "ab", "b": "aa"}, "seed": ["a", "a"]}
BIGDIAG = {
    "alphabet": ["a", "b", "c"],
    "length": 3,
    "rules": {"a": "acb", "b": "baa", "c": "bba"},
    "seed": ["b", "a"],
}
THUE_MORSE = {"alphabet": ["a", "b"], "length": 2, "rules": {"a": "ab", "b": "ba"}, "seed": ["b", "a"]}
PD2 = {"alphabet": ["a", "b"], "length": 4, "rules": {"a": "abaa", "b": "abab"}, "seed": ["a", "a"]}
# the right seed letter a has period 2 under the first column (a->b->a)
PERIODIC_RIGHT_SEED = {"alphabet": ["a", "b"], "length": 2, "rules": {"a": "bb", "b": "ab"}, "seed": ["b", "a"]}

BIGDIAG_TOEPLITZ_20 = """\
fixed point: aperiodic
   -20  aperiodic  states=((a,c,c)^T, (c,a,a)^T)
   -19  aperiodic  states=((a,b,b)^T, (b,a,a)^T)
   -18  aperiodic  states=((b,a,a)^T, (a,b,b)^T)
   -17  aperiodic  states=((a,c,c)^T, (c,a,a)^T)
   -16  aperiodic  states=((a,b,b)^T, (b,a,a)^T)
   -15  periodic  period=81 letter=b states=((b,b,b)^T, (b,b,b)^T)
   -14  aperiodic  states=((a,b,b)^T, (b,a,a)^T)
   -13  periodic  period=81 letter=a states=((a,a,a)^T, (a,a,a)^T)
   -12  aperiodic  states=((a,b,b)^T, (b,a,a)^T)
   -11  aperiodic  states=((c,a,a)^T, (a,c,c)^T)
   -10  aperiodic  states=((b,a,a)^T, (a,b,b)^T)
    -9  aperiodic  states=((a,b,b)^T, (b,a,a)^T)
    -8  aperiodic  states=((c,a,a)^T, (a,c,c)^T)
    -7  aperiodic  states=((b,a,a)^T, (a,b,b)^T)
    -6  aperiodic  states=((b,a,a)^T, (a,b,b)^T)
    -5  aperiodic  states=((b,c,c)^T, (c,b,b)^T)
    -4  aperiodic  states=((a,b,b)^T, (b,a,a)^T)
    -3  aperiodic  states=((a,b,b)^T, (b,a,a)^T)
    -2  aperiodic  states=((c,a,a)^T, (a,c,c)^T)
    -1  aperiodic  states=((a,b,b)^T, (b,a,a)^T)
     0  aperiodic  states=((a,b,b)^T, (b,a,a)^T)
     1  aperiodic  states=((c,a,a)^T, (a,c,c)^T)
     2  aperiodic  states=((b,a,a)^T, (a,b,b)^T)
     3  aperiodic  states=((b,a,a)^T, (a,b,b)^T)
     4  aperiodic  states=((b,c,c)^T, (c,b,b)^T)
     5  aperiodic  states=((a,b,b)^T, (b,a,a)^T)
     6  aperiodic  states=((b,a,a)^T, (a,b,b)^T)
     7  aperiodic  states=((a,c,c)^T, (c,a,a)^T)
     8  aperiodic  states=((a,b,b)^T, (b,a,a)^T)
     9  aperiodic  states=((b,a,a)^T, (a,b,b)^T)
    10  aperiodic  states=((a,c,c)^T, (c,a,a)^T)
    11  aperiodic  states=((a,b,b)^T, (b,a,a)^T)
    12  periodic  period=81 letter=b states=((b,b,b)^T, (b,b,b)^T)
    13  aperiodic  states=((a,b,b)^T, (b,a,a)^T)
    14  periodic  period=81 letter=a states=((a,a,a)^T, (a,a,a)^T)
    15  aperiodic  states=((a,b,b)^T, (b,a,a)^T)
    16  aperiodic  states=((c,a,a)^T, (a,c,c)^T)
    17  aperiodic  states=((b,a,a)^T, (a,b,b)^T)
    18  aperiodic  states=((b,a,a)^T, (a,b,b)^T)
    19  aperiodic  states=((a,c,c)^T, (c,a,a)^T)
    20  aperiodic  states=((a,b,b)^T, (b,a,a)^T)
Aper ∩ [-20,20] = {-20, -19, -18, -17, -16, -14, -12, -11, -10, -9, -8, -7, -6, -5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 16, 17, 18, 19, 20}
"""

PD2_REDUCED_GRAPH_TEXT = """\
vertices (1), removed 2 constant states:
  (a,b)^T
edges: 1
cycle (3)* after ε: address -1
"""


@pytest.fixture
def sub_file(tmp_path):
    def write(data, name="sub.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    return write


def test_validate_ok(sub_file, capsys):
    assert main(["validate", sub_file(PD)]) == 0
    out = capsys.readouterr().out
    assert "ok:" in out


def test_validate_bad_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(path)]) == 1


def test_validate_bad_rules(sub_file, capsys):
    bad = {"alphabet": ["a", "b"], "length": 2, "rules": {"a": "ab", "b": "a"}}
    assert main(["validate", sub_file(bad)]) == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("length", 2.0),
        ("length", "2"),
        ("rules", {"a": "ab", "b": 5}),
        ("alphabet", [["a"], "b"]),
        ("seed", 5),
    ],
    ids=["float-length", "string-length", "int-rule", "list-letter", "int-seed"],
)
def test_malformed_field_types_are_invalid_input(sub_file, capsys, field, value):
    # a field of the wrong JSON type is refused where the file is read
    path = sub_file({**PD, field: value})
    for verb in ("validate", "check"):
        assert main([verb, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


def test_simplify(sub_file, capsys):
    assert main(["simplify", sub_file(PD)]) == 0
    out = capsys.readouterr().out
    assert "exponent: 2" in out
    assert "a->abaa, b->abab" in out


def test_fixed_point(sub_file, capsys):
    assert main(["fixed-point", sub_file(BIGDIAG), "--range", "0..8"]) == 0
    assert capsys.readouterr().out.strip() == "acbbbabaa"


def test_fixed_point_negative_range(sub_file, capsys):
    assert main(["fixed-point", sub_file(BIGDIAG), "--range=-1..0"]) == 0
    assert capsys.readouterr().out.strip() == "ba"


def test_fixed_point_spaces_letters_when_the_alphabet_has_a_wide_one(sub_file, capsys):
    # period doubling with b written "yy": u_0..u_5 = a b a a a b
    rules = {"x": ["x", "yy"], "yy": ["x", "x"]}
    wide = {"alphabet": ["x", "yy"], "length": 2, "rules": rules, "seed": ["x", "x"]}
    assert main(["fixed-point", sub_file(wide), "--range", "0..5"]) == 0
    assert capsys.readouterr().out == "x yy x x x yy\n"
    # the rule reads the alphabet, not the window: three one-character letters
    assert main(["fixed-point", sub_file(wide), "--range", "2..4"]) == 0
    assert capsys.readouterr().out == "x x x\n"


def test_fixed_point_far_range_reads_the_direct_machine(sub_file, capsys):
    # period-doubling: u_n = a iff the 2-adic valuation of n + 1 is even
    def letter(n):
        v = 0
        while (n + 1) % 2 ** (v + 1) == 0:
            v += 1
        return "a" if v % 2 == 0 else "b"

    lo = 10**12
    assert main(["fixed-point", sub_file(PD), f"--range={lo}..{lo + 5}"]) == 0
    assert capsys.readouterr().out.strip() == "".join(letter(n) for n in range(lo, lo + 6))


def test_automaton_dot(sub_file, capsys):
    assert main(["automaton", sub_file(BIGDIAG), "--reading", "direct", "--format", "dot"]) == 0
    out = capsys.readouterr().out
    for edge in (
        '"a" -> "a" [label="0"]',
        '"a" -> "c" [label="1"]',
        '"a" -> "b" [label="2"]',
        '"b" -> "b" [label="0"]',
        '"b" -> "a" [label="1,2"]',
        '"c" -> "b" [label="0,1"]',
        '"c" -> "a" [label="2"]',
    ):
        assert edge in out


def test_automaton_json_parses(sub_file, capsys):
    assert main(["automaton", sub_file(PD), "--reading", "reverse", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["reading"] == "reverse"
    assert data["ell"] == 2


def test_kernel_table(sub_file, capsys):
    assert main(["kernel", sub_file(PD), "--depth", "4"]) == 0
    out = capsys.readouterr().out
    assert "kernel size: 4" in out
    assert "brute-force count at depth 4: 4" in out


def test_kernel_negative_depth_is_invalid_input(sub_file, capsys):
    assert main(["kernel", sub_file(PD), "--depth", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--depth" in captured.err


@pytest.mark.parametrize("budget", ["ten", "-3", "0"])
def test_bad_budget_is_invalid_input(sub_file, capsys, monkeypatch, budget):
    # refused before the first line of output, whatever the verb
    monkeypatch.setenv("SUBSTRATUM_BUDGET", budget)
    for argv in (["check", sub_file(PD)], ["validate", sub_file(PD)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "SUBSTRATUM_BUDGET" in captured.err


def test_semigroup(sub_file, capsys):
    assert main(["semigroup", sub_file(PD)]) == 0
    out = capsys.readouterr().out
    assert "stabilizing exponent: 2" in out
    assert "(a,a)^T" in out and "(b,b)^T" in out


def test_toeplitz_summary(sub_file, capsys):
    assert main(["toeplitz", sub_file(PD), "--range=-100..100"]) == 0
    out = capsys.readouterr().out
    assert "Aper ∩ [-100,100] = {-1}" in out


def test_toeplitz_refusal_exit_code(sub_file, capsys):
    assert main(["toeplitz", sub_file(THUE_MORSE), "--range=-5..5"]) == 2


def test_toeplitz_golden_bigdiag(sub_file, capsys):
    assert main(["toeplitz", sub_file(BIGDIAG), "--range=-20..20"]) == 0
    assert capsys.readouterr().out == BIGDIAG_TOEPLITZ_20


def test_reduced_graph_text_golden_pd2(sub_file, capsys):
    assert main(["reduced-graph", sub_file(PD2), "--format", "text"]) == 0
    assert capsys.readouterr().out == PD2_REDUCED_GRAPH_TEXT


def test_reduced_graph_dot(sub_file, capsys):
    assert main(["reduced-graph", sub_file(PD), "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert "digraph reduced" in out


def test_check_passes(sub_file, capsys):
    assert main(["check", sub_file(PD)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_check_semigroup_machine_minimality_needs_primitivity(sub_file, capsys):
    assert main(["check", sub_file(PD)]) == 0
    assert "ok: semigroup machine of the simplified form is minimal" in capsys.readouterr().out
    # b never occurs, so the machine has 2 states against 1 after minimize
    unused_letter = {"alphabet": ["a", "b"], "length": 2, "rules": {"a": "aa", "b": "ab"}, "seed": ["a", "a"]}
    assert main(["check", sub_file(unused_letter)]) == 0
    out = capsys.readouterr().out
    assert "note: not primitive; semigroup machine minimality skipped" in out
    assert "semigroup machine of the simplified form" not in out


def test_check_duality_with_periodic_right_seed(sub_file, capsys):
    # u is a fixed point of theta^2 only, so the duality must use that power
    assert main(["check", sub_file(PERIODIC_RIGHT_SEED)]) == 0
    out = capsys.readouterr().out
    assert "ok: subsequence/column duality" in out
    assert "FAIL" not in out


def test_deterministic_output(sub_file, capsys):
    path = sub_file(BIGDIAG)
    main(["toeplitz", path, "--range=-20..20"])
    first = capsys.readouterr().out
    main(["toeplitz", path, "--range=-20..20"])
    second = capsys.readouterr().out
    assert first == second


def test_main_calls_share_one_parser(sub_file, capsys, monkeypatch):
    # the first main call builds the parser and later ones reuse it; a verb,
    # a usage error or --help before a check leaves that check's output and
    # exit code as they were
    monkeypatch.setattr(cli, "_parser", None)
    path = sub_file(PD)
    assert main(["check", path]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("main built a second parser"))
    # validate returns 0; argparse exits 2 on a usage error and 0 after help
    for argv, exit_code in (
        (["validate", path], None),
        (["no-such-verb", path], 2),
        (["--help"], 0),
        (["check", "--help"], 0),
    ):
        if exit_code is None:
            assert main(argv) == 0
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == exit_code
        capsys.readouterr()
        assert main(["check", path]) == 0
        assert capsys.readouterr().out == expected


def test_main_calls_the_verb_function_the_module_holds(sub_file, capsys, monkeypatch):
    # a wrapper put on the module after import, as a tracer does, is the one that runs
    seen = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.file) or 0)
    path = sub_file(PD)
    assert main(["validate", path]) == 0
    assert seen == [path]
    assert capsys.readouterr().out == ""


def test_missing_seed_for_fixed_point(sub_file, capsys):
    bare = {"alphabet": ["a", "b"], "length": 2, "rules": {"a": "ab", "b": "aa"}}
    assert main(["fixed-point", sub_file(bare), "--range", "0..3"]) == 1
