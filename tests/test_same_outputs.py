"""`tools/same_outputs.py` tells a new selftest sweep from a changed one.

The tool is loaded by its path and `first_difference` is called on made-up
outputs of two trees, so no git and no subprocess run here.
"""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "same_outputs", Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(same_outputs)

SWEEPS = ["PASS strand bound lemma (exhaustive) (500 cases)",
          "PASS koszul differential squares to zero (210 cases)"]


def trees(selftest, fixtures=("PASS twisted cubic [twisted_cubic.ideal]", "1/1 fixtures passed")):
    """The outputs of a tree whose selftest printed `selftest`, exit status last."""
    return {"corpus": ["ideal 1/0: ok", "exit status 0"],
            "bettikit fixtures": [*fixtures, "exit status 0"],
            "bettikit selftest": list(selftest)}


def test_identical_outputs_give_no_difference():
    old = trees([*SWEEPS, "exit status 0"])
    assert same_outputs.first_difference(old, trees([*SWEEPS, "exit status 0"])) == (None, [])


def test_an_added_passing_sweep_is_reported_and_no_difference():
    new_sweep = "PASS cone decomposition round trip (50 cases)"
    old = trees([*SWEEPS, "exit status 0"])
    new = trees([SWEEPS[0], new_sweep, SWEEPS[1], "exit status 0"])
    assert same_outputs.first_difference(old, new) == (None, [new_sweep])


@pytest.mark.parametrize("selftest, where", [
    ([SWEEPS[0], "exit status 0"], "sweep koszul differential squares to zero"),
    ([SWEEPS[0], "PASS koszul differential squares to zero (211 cases)", "exit status 0"],
     "sweep koszul differential squares to zero"),
    ([SWEEPS[0], "FAIL koszul differential squares to zero (210 cases): nonzero",
      "exit status 1"], "sweep koszul differential squares to zero"),
    ([*SWEEPS, "FAIL bound comparison (244 cases): bound exceeded", "exit status 0"],
     "sweep bound comparison"),
    ([*SWEEPS, "exit status 1"], "exit status"),
], ids=["removed", "case count", "changed line", "added FAIL", "exit status"])
def test_a_removed_changed_or_failing_sweep_is_a_difference(selftest, where):
    difference, _ = same_outputs.first_difference(trees([*SWEEPS, "exit status 0"]),
                                                  trees(selftest))
    assert difference.startswith(f"bettikit selftest, {where}:")


def test_other_outputs_are_compared_line_by_line():
    # a line only the new tree prints is a difference outside selftest,
    # even one that reads like a passing sweep
    old = trees([*SWEEPS, "exit status 0"])
    new = trees([*SWEEPS, "exit status 0"], fixtures=(
        "PASS twisted cubic [twisted_cubic.ideal]", "PASS rnc (4 cases)", "1/1 fixtures passed"))
    difference, added = same_outputs.first_difference(old, new)
    assert difference.startswith("bettikit fixtures, line 2:") and added == []
