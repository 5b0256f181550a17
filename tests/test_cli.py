import json
import os
import shutil
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

from bettikit import selftest
from bettikit.bounds import _reject_unprintable
from bettikit.cli import main
from bettikit.fixtures import fixture_path, load_text
from bettikit.pure import kappa_max, kappa_next_max
from bettikit.tables import BettiTable


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_to_exit(capsys, argv):
    """(exit code, stdout, stderr) of `bettikit argv`, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_with_deadline(argv):
    """(exit code, stdout, stderr) of `bettikit argv` in a subprocess given 10 s, with
    Python's default digit limit; a run that would hang fails the test instead."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
               PYTHONINTMAXSTRDIGITS="4300")
    result = subprocess.run([sys.executable, "-m", "bettikit.cli", *argv],
                            env=env, capture_output=True, text=True, timeout=10)
    return result.returncode, result.stdout, result.stderr


def expand(argv, tmp_path, text, numeral=""):
    """argv with {n} the numeral, {file} a file holding `text` (its {n} replaced too),
    and {ideal} and {table} two fixture files."""
    path = tmp_path / "input"
    if text is not None:
        path.write_text(text.replace("{n}", numeral), encoding="utf-8")
    subs = {"{n}": numeral, "{file}": str(path), "{ideal}": fixture_path("twisted_cubic.ideal"),
            "{table}": fixture_path("veronese_projection.table")}
    for key, value in subs.items():
        argv = [arg.replace(key, value) for arg in argv]
    return argv


def test_pure_text_output(capsys):
    code, out, _ = run(capsys, "pure", "0,3,4,5")
    assert code == 0
    assert "2: . 10 15 6" in out
    assert "multiplicity: 10" in out


def test_pure_clear_denominators(capsys):
    code, out, _ = run(capsys, "pure", "0,2,4,5", "--clear-denominators")
    assert code == 0
    assert "cleared by: 3" in out
    assert "multiplicity: 20/3" in out


def test_pure_json(capsys):
    code, out, _ = run(capsys, "pure", "0,2,4,5", "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degrees"] == [0, 2, 4, 5]
    assert payload["multiplicity"] == "20/3"
    assert {"p": 1, "q": 1, "num": "10", "den": "3"} in payload["entries"]


def test_pure_json_clear_denominators(capsys):
    code, out, _ = run(capsys, "pure", "0,2,3", "--clear-denominators", "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cleared_by"] == 1
    assert BettiTable.from_json_dict(payload) == BettiTable({(0, 0): 1, (1, 1): 3, (2, 1): 2})


def test_pure_bad_sequence(capsys):
    code, _, err = run(capsys, "pure", "0,2,2")
    assert code == 1
    assert "strictly increasing" in err


@pytest.mark.parametrize("degrees", ["0,,3", "0,3,"])
def test_pure_empty_entry(capsys, degrees):
    code, out, err = run(capsys, "pure", degrees)
    assert code == 1
    assert out == ""
    assert err == f"error: empty entry in degree sequence {degrees!r}\n"


def test_decompose_projected_veronese(capsys):
    code, out, _ = run(capsys, "decompose", fixture_path("veronese_projection.table"))
    assert code == 0
    assert out.splitlines() == [
        "2/3  0,3,4",
        "7/30  0,3,4,5",
        "1/10  0,3,4,5,6",
    ]


def test_decompose_json_with_codim(capsys):
    code, out, _ = run(capsys, "decompose", fixture_path("cubic_conic_union.table"),
                       "--format", "json", "--codim", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["multiplicity"] == "5"
    assert {"coefficient": "2/15", "degrees": [0, 2, 3, 5]} in payload["terms"]


def test_decompose_codim_warning(capsys):
    code, out, err = run(capsys, "decompose", fixture_path("veronese_projection.table"),
                         "--codim", "3")
    assert code == 0
    assert "warning" in err
    assert "multiplicity (length 3 part): 7/3" in out


def test_decompose_states_no_multiplicity_for_an_incomplete_table(tmp_path, capsys):
    # rows 0..1 of (x0^2, x1^3), whose degree is 6: the missing row 2 would
    # lengthen the decomposition, so its length-2 part, 0 here, is not stated,
    # and its term 0,2 is not reported as shorter than codimension 2
    table = tmp_path / "ci_quadric_cubic_qmax1.json"
    code, out, _ = run(capsys, "betti", fixture_path("ci_quadric_cubic.ideal"),
                       "--qmax", "1", "--out", "json")
    assert code == 0 and json.loads(out)["complete"] is False
    table.write_text(out)
    code, out, err = run(capsys, "decompose", str(table), "--codim", "2")
    assert (code, err) == (0, "")
    assert out == ("1  0,2\n"
                   "note: the table is marked incomplete, so rows past its qmax may hold "
                   "entries: the decomposition is of the rows given, and no multiplicity "
                   "is stated\n")
    code, out, err = run(capsys, "decompose", str(table), "--codim", "2", "--out", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"terms": [{"coefficient": "1", "degrees": [0, 2]}],
                               "complete": False}
    # a negative codimension is still rejected
    code, out, err = run(capsys, "decompose", str(table), "--codim", "-1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    # the table certified complete at q_max 3 states the degree
    code, out, _ = run(capsys, "betti", fixture_path("ci_quadric_cubic.ideal"),
                       "--qmax", "3", "--out", "json")
    assert code == 0 and json.loads(out)["complete"] is True
    table.write_text(out)
    code, out, _ = run(capsys, "decompose", str(table), "--codim", "2")
    assert code == 0
    assert out.splitlines()[-1] == "multiplicity (length 2 part): 6"


def test_decompose_rejects_off_cone(tmp_path, capsys):
    bad = tmp_path / "bad.table"
    bad.write_text("0: 1\n1: . . 2\n")
    code, _, err = run(capsys, "decompose", str(bad))
    assert code == 1
    assert "cone" in err


def test_decompose_missing_file(capsys):
    code, _, err = run(capsys, "decompose", "/nonexistent/t.table")
    assert code == 1
    assert err


def test_betti_text(capsys):
    code, out, _ = run(capsys, "betti", fixture_path("twisted_cubic.ideal"), "--qmax", "3")
    assert code == 0
    assert "field: gf 32003" in out
    assert "complete: certified" in out
    assert "0: 1" in out
    assert "1: . 3 2" in out


def test_betti_complete_flag_means_certified(tmp_path, capsys):
    # (x0^2, x1^5) is 6-regular: rows 2 and 3 are empty, yet rows 4 and 5 are not
    gap = tmp_path / "gap.ideal"
    gap.write_text("vars 2\nx0^2\nx1^5\n")
    code, out, _ = run(capsys, "betti", str(gap), "--qmax", "3")
    assert code == 0
    assert "complete: unknown" in out
    assert "4:" not in out
    code, out, _ = run(capsys, "betti", str(gap), "--qmax", "3", "--out", "json")
    assert code == 0
    assert json.loads(out)["complete"] is False
    code, out, _ = run(capsys, "betti", str(gap), "--qmax", "6")
    assert code == 0
    assert "complete: certified" in out
    assert "4: . 1" in out and "5: . . 1" in out


def test_betti_generator_vanishing_in_the_field(tmp_path, capsys):
    ideal = tmp_path / "vanishing.ideal"
    ideal.write_text("vars 4\nfield gf 5\nx0*x2 - x1^2\nx0*x3 - x1*x2\nx1*x3 - x2^2\n5*x0^4\n")
    code, out, _ = run(capsys, "betti", str(ideal), "--qmax", "2")
    assert code == 0
    assert out == "field: gf 5\ncomplete: certified\n0: 1\n1: . 3 2\n"


@pytest.mark.parametrize("field", ("rational", "gf 32003", "gf 2"))
def test_betti_linear_generator(tmp_path, capsys, field):
    # the twisted cubic in 5 variables plus x0 + x4: its table tensored with
    # one Koszul factor, and row 0 is read off dim M_1
    ideal = tmp_path / "linear.ideal"
    ideal.write_text("vars 5\nx0*x2 - x1^2\nx0*x3 - x1*x2\nx1*x3 - x2^2\nx0 + x4\n")
    code, out, _ = run(capsys, "betti", str(ideal), "--qmax", "3", "--field", field)
    assert code == 0
    assert out == f"field: {field}\ncomplete: certified\n0: 1 1\n1: . 3 5 2\n"
    code, out, _ = run(capsys, "betti", str(ideal), "--qmax", "3", "--field", field,
                       "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["field"], payload["complete"]) == (field, True)
    assert BettiTable.from_json_dict(payload) == BettiTable(
        {(0, 0): 1, (1, 0): 1, (1, 1): 3, (2, 1): 5, (3, 1): 2})


def test_betti_rational_json(capsys):
    code, out, _ = run(capsys, "betti", fixture_path("twisted_cubic.ideal"),
                       "--qmax", "3", "--field", "rational", "--out", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["field"] == "rational"
    assert payload["complete"] is True
    assert BettiTable.from_json_dict(payload) == BettiTable(
        {(0, 0): 1, (1, 1): 3, (2, 1): 2})


def test_betti_bad_field(capsys):
    code, _, err = run(capsys, "betti", fixture_path("twisted_cubic.ideal"),
                       "--qmax", "2", "--field", "gf")
    assert code == 1
    assert "bad field" in err


def test_betti_composite_field_in_file(tmp_path, capsys):
    # elimination mod 9 never ends: 3 has no inverse
    bad = tmp_path / "gf9.ideal"
    bad.write_text("vars 2\nfield gf 9\n3*x0^2 + x1^2\nx0^2\n")
    code, _, err = run(capsys, "betti", str(bad), "--qmax", "2")
    assert code == 1
    assert "gf9.ideal" in err and "prime" in err


def test_betti_composite_field_flag(capsys):
    code, _, err = run(capsys, "betti", fixture_path("twisted_cubic.ideal"),
                       "--qmax", "2", "--field", "gf9")
    assert code == 1
    assert "prime" in err


def test_betti_bad_qmax(capsys):
    code, _, err = run(capsys, "betti", fixture_path("twisted_cubic.ideal"), "--qmax", "0")
    assert code == 1
    assert "--qmax" in err


@pytest.mark.parametrize("qmax", ["1", "3"])
def test_betti_denominator_divisible_by_characteristic(tmp_path, capsys, qmax):
    bad = tmp_path / "den.ideal"
    bad.write_text("vars 2\nfield gf 3\n1/3*x0^2\nx1^2\n")
    code, _, err = run(capsys, "betti", str(bad), "--qmax", qmax)
    assert code == 1
    assert "denominator" in err


def test_betti_parse_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.ideal"
    bad.write_text("vars 2\nx0*x5\n")
    code, _, err = run(capsys, "betti", str(bad), "--qmax", "2")
    assert code == 1
    assert "bad.ideal:2:" in err
    assert "x5" in err


def test_betti_zero_denominator(tmp_path, capsys):
    bad = tmp_path / "bad.ideal"
    bad.write_text("vars 2\nfield rational\nx0*x1 + 1/0*x0^2\n")
    code, _, err = run(capsys, "betti", str(bad), "--qmax", "2")
    assert code == 1
    assert err.splitlines() == [f"{bad}:3:9: zero denominator in '1/0'"]


@pytest.mark.parametrize("text", ["0: 1\n1: . 1/0\n",
                                  '{"entries": [{"p": 1, "q": 1, "num": "1", "den": "0"}]}'],
                         ids=["text", "json"])
def test_decompose_zero_denominator(tmp_path, capsys, text):
    bad = tmp_path / "bad.table"
    bad.write_text(text)
    code, _, err = run(capsys, "decompose", str(bad))
    assert code == 1
    assert len(err.splitlines()) == 1
    assert "zero denominator" in err


@pytest.mark.parametrize("command", [["decompose"], ["check", "--codim", "2"]],
                         ids=["decompose", "check"])
@pytest.mark.parametrize("text", ['{"entries": [{"p": 0, "q": 0}]}', '{"entries": [1]}',
                                  '{"entries": 5}',
                                  '{"entries": [{"p": 1.5, "q": 0, "num": "1", "den": "1"}]}'],
                         ids=["missing-key", "entry-not-object", "entries-not-list",
                              "float-index"])
def test_malformed_json_table_exits_cleanly(tmp_path, capsys, command, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _, err = run(capsys, command[0], str(bad), *command[1:])
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith(f"{bad}: ")


@pytest.mark.parametrize("argv", [["check", "--codim", "2", "--ndm", "0,0"],
                                  ["check", "--codim", "2", "--ndm", "1,-1"],
                                  ["decompose", "--codim", "-1"]],
                         ids=["ndm-d-zero", "ndm-m-negative", "decompose-negative-codim"])
def test_out_of_range_numeric_flag_exits_cleanly(capsys, argv):
    code, out, err = run(capsys, argv[0], fixture_path("veronese_projection.table"), *argv[1:])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_check_violation_exit_code(capsys):
    code, out, _ = run(capsys, "check", fixture_path("veronese_projection.table"),
                       "--codim", "2", "--assert-nd")
    assert code == 2
    assert "verdict: Violation(p=1)" in out


def test_check_all_max_exit_zero(tmp_path, capsys):
    table = tmp_path / "tc.table"
    table.write_text("0: 1\n1: . 3 2\n")
    code, out, _ = run(capsys, "check", str(table), "--codim", "2")
    assert code == 0
    assert "verdict: AllMax" in out
    assert "predicted degree: 3" in out


def test_check_next_to_max(capsys):
    code, out, _ = run(capsys, "check", fixture_path("cubic_conic_union.table"),
                       "--codim", "3", "--next-to-max", "--ndm", "2,3")
    assert code == 2
    assert "verdict: Violation(p=2)" in out
    assert "property N_{2,3}: fails" in out


def test_check_json_report(capsys):
    code, out, _ = run(capsys, "check", fixture_path("veronese_projection.table"),
                       "--codim", "2", "--out", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["report"]["verdict"] == "Violation"
    assert payload["report"]["q_strand"] == 2


def test_check_has_no_q_option(capsys):
    # the strand is read off the table, so there is no --q to give it
    with pytest.raises(SystemExit) as exc:
        main(["check", fixture_path("veronese_projection.table"), "--codim", "2", "--q", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 64
    assert "--q" in captured.err
    assert captured.out == ""


def test_check_malformed_table(tmp_path, capsys):
    bad = tmp_path / "bad.table"
    bad.write_text("0: 1\n1: -2\n")
    code, _, err = run(capsys, "check", str(bad), "--codim", "1")
    assert code == 1
    assert "negative entry" in err
    assert "bad.table:2:" in err


def test_check_trivial_table(tmp_path, capsys):
    table = tmp_path / "free.table"
    table.write_text("0: 1\n")
    code, out, _ = run(capsys, "check", str(table), "--codim", "1")
    assert code == 0
    assert "nothing to check" in out


def test_fixtures_all_pass(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    assert "11/11 fixtures passed" in out
    assert "FAIL" not in out


def test_fixtures_dir_override(tmp_path, capsys, monkeypatch):
    shutil.copy(fixture_path("veronese_projection.table"), tmp_path / "veronese_projection.table")
    monkeypatch.setenv("FIXTURES_DIR", str(tmp_path))
    code, out, _ = run(capsys, "decompose", fixture_path("veronese_projection.table"))
    assert code == 0
    assert str(tmp_path) in fixture_path("veronese_projection.table")


def test_fixtures_report_a_wrong_ideal(tmp_path, capsys, monkeypatch):
    # the twisted cubic's file holds another valid ideal: the fixture fails, the rest pass
    corpus = tmp_path / "corpus"
    shutil.copytree(Path(fixture_path("twisted_cubic.ideal")).parent, corpus)
    shutil.copy(corpus / "ci_two_quadrics.ideal", corpus / "twisted_cubic.ideal")
    monkeypatch.setenv("FIXTURES_DIR", str(corpus))
    code, out, _ = run(capsys, "fixtures")
    assert code == 1
    lines = out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert failed == ["FAIL twisted-cubic [twisted_cubic.ideal]"]
    start = lines.index(failed[0]) + 1
    problems = list(takewhile(lambda line: line.startswith("     "), lines[start:]))
    assert problems and problems[0].startswith("     table mismatch: got ")
    assert sum(line.startswith("PASS") for line in lines) == 10
    assert lines[-1] == "10/11 fixtures passed"


def test_selftest_passes_every_sweep(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert out.splitlines() == [
        "PASS degree-family closed forms (100 cases)",
        "PASS next-to-maximal family closed forms (9 cases)",
        "PASS strand bound lemma (exhaustive) (500 cases)",
        "PASS dual multiplicity inequality (451 cases)",
        "PASS bound comparison (244 cases)",
        "PASS hilbert numerator divisibility (165 cases)",
        "PASS koszul differential squares to zero (210 cases)",
        "PASS row 0 ranks read off dim M_1 (483 cases)",
        "PASS delta_2 ranks read off the generator counts (854 cases)",
        "PASS certified cut agrees with the uncut table (200 cases)",
        "PASS cone decomposition round trip (50 cases)",
    ]


def test_selftest_reports_a_failing_sweep(capsys, monkeypatch):
    monkeypatch.setattr(selftest, "ALL_SWEEPS", [
        ("broken identity", lambda: iter([None, None, None, "first failure", "second failure"])),
        ("bound comparison", selftest.sweep_bound_comparison)])
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert out == ("FAIL broken identity (3 cases): first failure\n"
                   "PASS bound comparison (244 cases)\n")


def test_table_normalized_to_degree_zero(tmp_path, capsys):
    # a twist of the twisted cubic table: generator in degree 2
    shifted = tmp_path / "shifted.table"
    shifted.write_text("2: 1\n3: . 3 2\n")
    code, out, err = run(capsys, "decompose", str(shifted))
    assert code == 0
    assert "shifted down by 2" in err
    assert out.splitlines() == ["1  0,2,3"]


def test_unknown_subcommand_exit_64(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 64


def test_no_subcommand_usage(capsys):
    code = main([])
    assert code == 64


def test_emit_parse_round_trip_on_fixture_files(capsys):
    for name in ("veronese_projection.table", "cubic_conic_union.table"):
        text = load_text(name)
        table = BettiTable.from_text(text)
        assert table.to_text() == text
        assert BettiTable.from_json(table.to_json()) == table


# Every place an integer or a field name is read from outside input: the argv,
# the text of {file} ({n} is the numeral under test) and the exit code, 1 for
# a file or positional input and 64 for a flag argparse rejects.
READ_SITES = {
    "degree-sequence": (["pure", "0,{n}"], None, 1),
    "table-row-label": (["decompose", "{file}"], "0: 1\n{n}: . 3 2\n", 1),
    "table-entry": (["check", "{file}", "--codim", "2"], "0: 1\n1: . {n} 2\n", 1),
    "json-integer": (["decompose", "{file}"],
                     '{"entries": [{"p": 0, "q": "{n}", "num": "1", "den": "1"}]}', 1),
    "json-literal": (["decompose", "{file}"],
                     '{"entries": [{"p": 0, "q": 0, "num": {n}, "den": 1}]}', 1),
    "vars": (["betti", "{file}", "--qmax", "2"], "vars {n}\nx0^2\n", 1),
    "field-line": (["betti", "{file}", "--qmax", "2"], "vars 2\nfield gf {n}\nx0^2\n", 1),
    "coefficient": (["betti", "{file}", "--qmax", "2"], "vars 2\n{n}*x0^2\n", 1),
    "variable-index": (["betti", "{file}", "--qmax", "2"], "vars 4\nx0*x{n}\n", 1),
    "exponent": (["betti", "{file}", "--qmax", "2"], "vars 2\nx0^{n}\n", 1),
    "field-flag": (["betti", "{ideal}", "--qmax", "2", "--field", "gf{n}"], None, 1),
    "qmax": (["betti", "{ideal}", "--qmax", "{n}"], None, 64),
    "decompose-codim": (["decompose", "{table}", "--codim", "{n}"], None, 64),
    "check-codim": (["check", "{table}", "--codim", "{n}"], None, 64),
    "ndm": (["check", "{table}", "--codim", "2", "--ndm", "2,{n}"], None, 64),
}


@pytest.fixture
def int_digit_limit():
    """Python's default limit on integer-string conversion, restored afterwards."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("numeral", ["1_0", "\u0663", "\u00b2", "1" * 5000],
                         ids=["underscore", "arabic-indic-3", "superscript-2", "5000-digits"])
@pytest.mark.parametrize("site", READ_SITES)
def test_malformed_numeral_is_rejected_at_every_read_site(tmp_path, capsys, int_digit_limit,
                                                           site, numeral):
    # int() would read 1_0 as 10 and the Arabic-Indic digit as 3, and refuse
    # 5000 digits with advice meant for a Python program
    argv, text, expected = READ_SITES[site]
    code, out, err = run_to_exit(capsys, expand(argv, tmp_path, text, numeral))
    assert (code, out) == (expected, "")
    assert "set_int_max_str_digits" not in err
    if expected == 64:
        assert err.splitlines()[-1].startswith("error: argument --")
    else:
        assert len(err.splitlines()) == 1
        assert err.startswith("error: " if text is None else f"{tmp_path}")


def test_oversized_numeral_is_reported_where_it_stands(tmp_path, capsys, int_digit_limit):
    big = "1" * 5000
    argv = expand(["decompose", "{file}"], tmp_path, "0: 1\n{n}: . 3 2\n", big)
    code, out, err = run_to_exit(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"{argv[1]}:2:1: row label has 5000 digits, more than the 4300 allowed\n"
    code, out, err = run_to_exit(capsys, ["pure", f"0,{big}"])
    assert (code, out) == (1, "")
    assert err == "error: degree has 5000 digits, more than the 4300 allowed\n"


ERRORS_GOLDEN = json.loads((Path(__file__).parent / "cli_errors_golden.json")
                           .read_text(encoding="utf-8"))

# Malformed input the tests above check by substring: the argv and the text of
# {file}.  Its stderr, with the temporary directory written $TMP, and its exit
# code are recorded in cli_errors_golden.json.
ERROR_CASES = {
    "bad-field-flag": (["betti", "{ideal}", "--qmax", "2", "--field", "gf"], None),
    "bad-field-line": (["betti", "{file}", "--qmax", "2"], "vars 2\nfield gf x\nx0^2\n"),
    "composite-field-flag": (["betti", "{ideal}", "--qmax", "2", "--field", "gf9"], None),
    "composite-field-line": (["betti", "{file}", "--qmax", "2"],
                             "vars 2\nfield gf 9\n3*x0^2 + x1^2\nx0^2\n"),
    "constant-generator": (["betti", "{file}", "--qmax", "2"], "vars 2\n  1\n"),
    "missing-vars-header": (["betti", "{file}", "--qmax", "2"], "# only a comment\n"),
    "zero-denominator-ideal": (["betti", "{file}", "--qmax", "2"],
                               "vars 2\nfield rational\nx0*x1 + 1/0*x0^2\n"),
    "zero-denominator-table": (["decompose", "{file}"], "0: 1\n1: . 1/0\n"),
    "zero-denominator-json": (["decompose", "{file}"],
                              '{"entries": [{"p": 1, "q": 1, "num": "1", "den": "0"}]}'),
    "denominator-divisible-by-characteristic": (["betti", "{file}", "--qmax", "2"],
                                                "vars 2\nfield gf 3\n1/3*x0^2\nx1^2\n"),
    "json-missing-key": (["check", "{file}", "--codim", "2"], '{"entries": [{"p": 0, "q": 0}]}'),
    "json-entry-not-object": (["decompose", "{file}"], '{"entries": [1]}'),
    "json-entries-not-list": (["check", "{file}", "--codim", "2"], '{"entries": 5}'),
    "json-float-index": (["decompose", "{file}"],
                         '{"entries": [{"p": 1.5, "q": 0, "num": "1", "den": "1"}]}'),
    "json-syntax": (["decompose", "{file}"], '{"entries": ['),
    "json-complete-not-boolean": (["check", "{file}", "--codim", "2"],
                                  '{"entries": [{"p": 0, "q": 0, "num": "1", "den": "1"}], '
                                  '"complete": "false"}'),
    "json-duplicate-zero-cell": (["decompose", "{file}"],
                                 '{"entries": [{"p": 1, "q": 1, "num": "0", "den": "1"}, '
                                 '{"p": 0, "q": 0, "num": "1", "den": "1"}, '
                                 '{"p": 1, "q": 1, "num": "3", "den": "1"}, '
                                 '{"p": 2, "q": 1, "num": "2", "den": "1"}]}'),
    "qmax-zero": (["betti", "{ideal}", "--qmax", "0"], None),
    "ndm-d-zero": (["check", "{table}", "--codim", "2", "--ndm", "0,0"], None),
    "ndm-m-negative": (["check", "{table}", "--codim", "2", "--ndm", "1,-1"], None),
    "decompose-negative-codim": (["decompose", "{table}", "--codim", "-1"], None),
    "unknown-variable": (["betti", "{file}", "--qmax", "2"], "vars 2\nx0*x5\n"),
    "indented-unexpected-token": (["betti", "{file}", "--qmax", "2"], "vars 2\n    x0^2 + y\n"),
    "indented-dangling-sign": (["betti", "{file}", "--qmax", "2"], "vars 2\n    x0^2 +\n"),
    "negative-entry": (["check", "{file}", "--codim", "1"], "0: 1\n1: -2\n"),
    "duplicate-row": (["decompose", "{file}"], "0: 1\n2: . 7\n2: . . 10 5 1\n"),
    "next-to-max-no-strand": (["check", "{file}", "--codim", "2", "--next-to-max"], "0: 1\n"),
    "check-linear-generator": (["check", "{file}", "--codim", "2"], "0: 1 1\n1: . 1 1\n"),
    # the --ndm pair is read before the table's strand
    "check-ndm-before-linear-generator": (["check", "{file}", "--codim", "2", "--ndm", "0,0"],
                                          "0: 1 1\n1: . 1 1\n"),
    "missing-file": (["decompose", "/nonexistent/t.table"], None),
    "check-codim-unprintable": (["check", "{table}", "--codim", "10000000000"], None),
}
# Cases that hang when their check breaks (the bounds at e = 10**10 are computed
# for ever), so they run under a deadline.
HANGING_CASES = {"check-codim-unprintable"}


def test_error_cases_are_the_recorded_ones():
    assert sorted(ERROR_CASES) == sorted(ERRORS_GOLDEN)


@pytest.mark.parametrize("case", ERROR_CASES)
def test_error_output_matches_golden(tmp_path, capsys, int_digit_limit, case):
    argv, text = ERROR_CASES[case]
    argv = expand(argv, tmp_path, text)
    if case in HANGING_CASES:
        code, out, err = run_with_deadline(argv)
    else:
        code, out, err = run_to_exit(capsys, argv)
    assert out == ""
    assert {"code": code, "stderr": err.replace(str(tmp_path), "$TMP")} == ERRORS_GOLDEN[case]


@pytest.mark.parametrize("argv", [
    ["check", fixture_path("veronese_projection.table")],
    ["check", fixture_path("cubic_conic_union.table"), "--next-to-max"],
])
@pytest.mark.parametrize("out", ["text", "json"])
def test_check_at_an_unprintable_codimension_fails_fast(argv, out):
    # without the cap the bounds at this e are computed for ever, never printed
    code, stdout, stderr = run_with_deadline([*argv, "--codim", "10000000000", "--out", out])
    assert (code, stdout) == (1, "")
    assert stderr.startswith("error: codimension 10000000000 is too large to report")


@pytest.mark.parametrize("case", ["ndm-d-zero", "ndm-m-negative", "next-to-max-no-strand",
                                  "check-linear-generator"])
def test_codimension_cap_keeps_the_earlier_errors(tmp_path, capsys, case):
    argv, text = ERROR_CASES[case]
    argv = ["10000000000" if arg == "2" else arg for arg in argv]
    code, out, err = run_to_exit(capsys, expand(argv, tmp_path, text))
    assert {"code": code, "stderr": err} == ERRORS_GOLDEN[case]


def test_codimension_cap_leaves_next_to_max_to_reject_a_quadric_strand(capsys):
    code, _, err = run(capsys, "check", fixture_path("veronese_projection.table"),
                       "--codim", "10000000000", "--next-to-max")
    assert (code, err) == (1, "error: first nontrivial strand is 2, the bound needs q = 1\n")


@pytest.mark.parametrize("q, next_to_max", [(1, True), (1, False), (2, False), (40, False)])
def test_codimension_cap_rejects_only_unprintable_reports(int_digit_limit, q, next_to_max):
    # the smallest e the cap rejects has a bound of more than 4300 digits
    low, high = 1, 10 ** 5
    while low < high:
        middle = (low + high) // 2
        try:
            _reject_unprintable(middle, q, next_to_max)
            low = middle + 1
        except ValueError:
            high = middle
    e = low
    assert e < 10 ** 5
    entry = kappa_next_max(e // 2, e) if next_to_max else kappa_max((e + q) // 2 - q, q, e)
    assert entry > 10 ** int_digit_limit


def test_codimension_cap_is_off_without_a_digit_limit(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    assert _reject_unprintable(10 ** 10, 2, False) is None
