"""The full stdout and exit code of `bettikit check`, text and JSON, against recorded outputs.

`check_golden.json` pins the stdout and exit code of each case, so any
change in a verdict, bound, degree, shape flag or note shows here.  Together
the cases reach every verdict of both checks and both shape outcomes.
"""

import json
from pathlib import Path

import pytest

from bettikit.cli import main
from bettikit.fixtures import load_text
from bettikit.pure import hk_diagram
from bettikit.tables import DegreeSequence

GOLDEN = json.loads((Path(__file__).parent / "check_golden.json").read_text(encoding="utf-8"))

TABLES = {
    "veronese-projection": load_text("veronese_projection.table"),
    "cubic-conic-union": load_text("cubic_conic_union.table"),
    "twisted-cubic": "0: 1\n1: . 3 2\n",
    "pi-0235": hk_diagram(DegreeSequence((0, 2, 3, 5))).to_text(),
    # the twisted cubic's row 1 is AllMax, the entry in row 3 breaks the shape
    "all-max-extra-row": "0: 1\n1: . 3 2\n3: . 1\n",
    # pi(0,2,3,5) with the generator at (3, 2) doubled: same support, wrong shape
    "tilde-corner-2": "0: 1\n1: . 5 5\n2: . . . 2\n",
    "mixed-first-strand": "0: 1\n1: . 3 1\n",
    "mixed-next-to-max": "0: 1\n1: . 5 4\n",
    # `betti ci_quadric_cubic.ideal --qmax 1 --out json`: rows 0..1 of
    # (x0^2, x1^3), whose degree is 6; its row 2 is missing
    "ci-quadric-cubic-qmax1": ('{"entries": [{"p": 0, "q": 0, "num": "1", "den": "1"}, '
                               '{"p": 1, "q": 1, "num": "1", "den": "1"}], '
                               '"field": "gf 32003", "qmax": 1, "complete": false}'),
    # the twisted cubic's AllMax table marked incomplete: no shape is stated
    "twisted-cubic-incomplete": ('{"entries": [{"p": 0, "q": 0, "num": "1", "den": "1"}, '
                                 '{"p": 1, "q": 1, "num": "3", "den": "1"}, '
                                 '{"p": 2, "q": 1, "num": "2", "den": "1"}], '
                                 '"complete": false}'),
}
CODIMS = {"veronese-projection": (2,), "cubic-conic-union": (3,), "twisted-cubic": (2, 3),
          "pi-0235": (3,), "all-max-extra-row": (2,), "tilde-corner-2": (3,),
          "mixed-first-strand": (2,), "mixed-next-to-max": (3,),
          "ci-quadric-cubic-qmax1": (2,), "twisted-cubic-incomplete": (2,)}
FLAGS = {"assert-nd": ["--assert-nd"], "next-to-max-lgp": ["--next-to-max", "--assert-lgp"],
         "ndm-2-3": ["--ndm", "2,3"]}
CASES = [f"{name}-codim{e}-{flag}-{out}" for name in TABLES for e in CODIMS[name]
         for flag in FLAGS for out in ("text", "json")]


def parse_case(case):
    """(table name, codim, flag set, output format) of a case id."""
    name, rest = case.split("-codim")
    e, rest = rest.split("-", 1)
    flag, out = rest.rsplit("-", 1)
    return name, e, flag, out


def run_case(tmp_path, capsys, case):
    """(exit code, stdout) of `bettikit check` for one case id."""
    name, e, flag, out = parse_case(case)
    path = tmp_path / f"{name}.table"
    path.write_text(TABLES[name], encoding="utf-8")
    code = main(["check", str(path), "--codim", e, *FLAGS[flag], "--out", out])
    return code, capsys.readouterr().out


def test_cases_are_the_recorded_ones():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("case", CASES)
def test_check_output_matches_golden(tmp_path, capsys, case):
    code, out = run_case(tmp_path, capsys, case)
    assert {"code": code, "stdout": out} == GOLDEN[case]


def test_golden_reaches_every_verdict_and_shape():
    reached = set()
    for case, recorded in GOLDEN.items():
        _, _, flag, out = parse_case(case)
        if out == "json" and recorded["stdout"]:
            report = json.loads(recorded["stdout"]).get("report")
            if report is not None:
                check = "next" if flag == "next-to-max-lgp" else "first"
                reached.add((check, report["verdict"], report["shape_ok"]))
    for check in ("first", "next"):
        assert {(check, "AllMax", True), (check, "AllMax", False), (check, "NoneMax", None),
                (check, "Violation", None), (check, "MixedMaxInconsistent", None)} <= reached
