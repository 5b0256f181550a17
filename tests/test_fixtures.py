import os
import shutil
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from bettikit import fixtures, koszul
from bettikit.cli import main
from bettikit.decompose import Decomposition
from bettikit.fixtures import FIXTURES, fixture_path, load_text, run_all, run_fixture
from bettikit.tables import BettiTable


def test_every_fixture_file_exists():
    for entry in FIXTURES:
        assert os.path.exists(fixture_path(entry.filename)), entry.filename


def test_corpus_reproduces_expected_outputs():
    for entry, problems in run_all():
        assert problems == [], f"{entry.name}: {problems}"


@pytest.mark.parametrize("entry", [entry for entry in FIXTURES if entry.is_ideal()],
                         ids=lambda entry: entry.name)
def test_each_field_steps_one_ring_of_the_ideal(entry, monkeypatch):
    # the Hilbert function is checked on the ring the table's walk stepped
    made, init = Counter(), koszul._Ring.__init__

    def counting(ring, source, var=None):
        made[source.char_p if var is None else "cut"] += 1
        init(ring, source, var)
    monkeypatch.setattr(koszul._Ring, "__init__", counting)
    assert run_fixture(entry) == []
    assert (made[None], made[32003]) == (1, 1)


def test_fixtures_dir_override(tmp_path, monkeypatch):
    entry = FIXTURES[0]
    content = load_text(entry.filename)
    (tmp_path / entry.filename).write_text(content)
    monkeypatch.setenv("FIXTURES_DIR", str(tmp_path))
    assert fixture_path(entry.filename).startswith(str(tmp_path))
    assert run_fixture(entry) == []


def test_fixtures_dir_missing_file(tmp_path, monkeypatch):
    monkeypatch.setenv("FIXTURES_DIR", str(tmp_path))
    with pytest.raises(OSError):
        run_fixture(FIXTURES[0])


@pytest.mark.parametrize("filename, old, new", [
    ("twisted_cubic.ideal", "x0*x2", "x0*x9"),
    ("veronese_projection.table", "2: . 7 10 5 1", "1: . x"),
])
def test_fixtures_command_names_a_malformed_file(tmp_path, monkeypatch, capsys,
                                                 filename, old, new):
    for entry in FIXTURES:
        shutil.copy(fixture_path(entry.filename), tmp_path / entry.filename)
    bad = tmp_path / filename
    bad.write_text(bad.read_text().replace(old, new))
    monkeypatch.setenv("FIXTURES_DIR", str(tmp_path))
    assert main(["fixtures"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"{bad}:2:")


@pytest.mark.parametrize("filename, text, problem", [
    ("veronese_projection.table", "0: 1\n",
     "verdict none (no nontrivial strand), expected Violation"),
    ("cubic_conic_union.table", "0: 1\n2: . 1\n",
     "verdict none (first nontrivial strand is 2, the bound needs q = 1), expected Violation"),
], ids=["strandless", "next-to-max-on-row-2"])
def test_fixtures_command_reports_a_table_without_a_strand_to_check(tmp_path, monkeypatch, capsys,
                                                                    filename, text, problem):
    for entry in FIXTURES:
        shutil.copy(fixture_path(entry.filename), tmp_path / entry.filename)
    (tmp_path / filename).write_text(text)
    monkeypatch.setenv("FIXTURES_DIR", str(tmp_path))
    assert main(["fixtures"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    name = next(entry.name for entry in FIXTURES if entry.filename == filename)
    assert err == ""
    assert lines[lines.index(f"FAIL {name} [{filename}]") + 1:].count(f"     {problem}") == 1
    assert sum(line.startswith("PASS ") for line in lines) == len(FIXTURES) - 1
    assert lines[-1] == f"{len(FIXTURES) - 1}/{len(FIXTURES)} fixtures passed"


FIXTURE = {entry.name: entry for entry in FIXTURES}


def _hilbert_check_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(fixtures, "_hilbert_matches", lambda *args: False)
    return FIXTURE["twisted-cubic"]


def _second_field_gains_a_cell(monkeypatch, tmp_path):
    real, calls = fixtures._betti, []

    def betti(ideal, q_max):
        table, complete, ring = real(ideal, q_max)
        calls.append(ideal.char_p)
        if len(calls) == 2:
            table = BettiTable({**table.entries, (3, 3): Fraction(1)})
        return table, complete, ring
    monkeypatch.setattr(fixtures, "_betti", betti)
    return FIXTURE["twisted-cubic"]


def _column_one_empty(monkeypatch, tmp_path):
    (tmp_path / "veronese_projection.table").write_text("0: 1\n2: . . 10 5 1\n")
    monkeypatch.setenv("FIXTURES_DIR", str(tmp_path))
    return FIXTURE["veronese-projection"]


def _peel_drops_the_last_term(monkeypatch, tmp_path):
    real = fixtures.bs_decompose
    monkeypatch.setattr(fixtures, "bs_decompose",
                        lambda table: Decomposition(real(table).terms[:-1]))
    return FIXTURE["veronese-projection"]


@pytest.mark.parametrize("setup, message", [
    (lambda monkeypatch, tmp_path: replace(FIXTURE["hypersurface-cubic"],
                                           expected_table=(((0, 0), 1), ((1, 1), 1))),
     "table mismatch: got BettiTable({(0,0): 1, (1,2): 1}), "
     "expected BettiTable({(0,0): 1, (1,1): 1})"),
    (_hilbert_check_fails, "hilbert consistency failed"),
    (_second_field_gains_a_cell,
     "field disagreement: gf 32003 gives BettiTable({(0,0): 1, (1,1): 3, (2,1): 2}), "
     "rational gives BettiTable({(0,0): 1, (1,1): 3, (2,1): 2, (3,3): 1})"),
    (lambda monkeypatch, tmp_path: replace(FIXTURE["ci-quadric-cubic"], qmax=1),
     "table over gf 32003 not certified complete"),
    (lambda monkeypatch, tmp_path: replace(FIXTURE["ci-quadric-cubic"], qmax=1),
     "table over rational not certified complete"),
    (_column_one_empty,
     "table not in cone: table is outside the cone: column 1 has no entries "
     "but the table extends past it"),
    (lambda monkeypatch, tmp_path: replace(FIXTURE["veronese-projection"],
                                           expected_terms=((Fraction(1), (0, 3, 4)),)),
     "decomposition mismatch: got [((0, 3, 4), Fraction(2, 3)), "
     "((0, 3, 4, 5), Fraction(7, 30)), ((0, 3, 4, 5, 6), Fraction(1, 10))]"),
    (_peel_drops_the_last_term, "decomposition does not reconstruct the table"),
    (lambda monkeypatch, tmp_path: replace(FIXTURE["veronese-projection"],
                                           expected_multiplicity=Fraction(5)),
     "multiplicity 4, expected 5"),
    (lambda monkeypatch, tmp_path: replace(FIXTURE["twisted-cubic"], expected_verdict="NoneMax"),
     "verdict AllMax, expected NoneMax"),
], ids=["table-mismatch", "hilbert", "field-disagreement", "not-certified-gf", "not-certified-qq",
        "not-in-cone", "decomposition-mismatch", "reconstruction", "multiplicity", "verdict"])
def test_each_problem_the_runner_reports_can_be_reached(monkeypatch, tmp_path, setup, message):
    """Each problem line of `run_fixture`, reached by one broken entry, file or call.

    `bettikit fixtures` prints these lines only when a fixture fails, so a
    line broken in its wording or its condition would otherwise go unseen.
    """
    assert message in run_fixture(setup(monkeypatch, tmp_path))
