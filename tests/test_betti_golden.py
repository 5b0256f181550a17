"""`bettikit betti` on every bundled ideal, over four fields, in text and JSON.

Each output and exit code is recorded in betti_golden.json, keyed by
"<ideal file> <field> <format>", with each ideal at its fixture's qmax.  A
change to the engine that alters a table, the completeness flag or the
formatting shows up here byte for byte.
"""

import json
from pathlib import Path

import pytest

from bettikit.cli import main
from bettikit.fixtures import FIXTURES, fixture_path

GOLDEN = json.loads((Path(__file__).parent / "betti_golden.json").read_text(encoding="utf-8"))
FIELDS = ("rational", "gf 32003", "gf 5", "gf 2")
CASES = {f"{entry.filename} {field} {out}": (entry, field, out)
         for entry in FIXTURES if entry.is_ideal() for field in FIELDS for out in ("text", "json")}


def test_betti_cases_are_the_recorded_ones():
    assert sorted(CASES) == sorted(GOLDEN)


@pytest.mark.parametrize("case", CASES)
def test_betti_output_matches_golden(capsys, case):
    entry, field, out = CASES[case]
    code = main(["betti", fixture_path(entry.filename), "--qmax", str(entry.qmax),
                 "--field", field, "--out", out])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert {"code": code, "stdout": captured.out} == GOLDEN[case]
